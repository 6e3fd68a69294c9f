"""Numerically stable smooth scalar primitives and small linear-algebra helpers.

Every function here is written to be complex-step safe: passing inputs with a
tiny imaginary perturbation propagates exact first derivatives through the
whole pipeline (branch decisions are taken on real parts only, norms are
computed as sqrt(sum(x*x)) rather than via abs). All functions are pure and
safe to call from any number of concurrent workers.
"""
from __future__ import annotations

import math

import numpy as np


def check_temperature(eps: float, name: str = "eps") -> float:
    """Validate a smoothing temperature (must be a positive finite real)."""
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {eps!r}")
    return eps


def _reject_nonfinite(x: np.ndarray, name: str) -> None:
    bad = ~np.isfinite(x)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), x.shape)
        pos = idx[0] if len(idx) == 1 else idx
        raise ValueError(f"{name} contains a non-finite entry at index {pos}")


# exp(x) is a normal float64 for x >= -708, subnormal below, 0 below -745.
_EXP_TAIL = -708.0


def _exp(z: np.ndarray, cutoff: float = _EXP_TAIL) -> np.ndarray:
    # np.exp is tens of times slower on its subnormal and underflow range.
    # Entries whose real part is below the cutoff become an exact 0, with exp
    # taken at the cutoff rather than skipped: the cost stays the same however
    # many entries are far, which is the contact-count independence.
    live = z.real >= cutoff
    return np.exp(np.where(live, z, cutoff)) * live


def softmax(x: np.ndarray, eps: float, axis: int = -1, check: bool = True) -> np.ndarray:
    """Temperature-scaled softmax, exp(x_i/eps) / sum_j exp(x_j/eps).

    Max-subtraction makes the computation overflow-free for any finite input,
    and makes the shift invariance softmax(x + c) == softmax(x) exact whenever
    the additions x + c are themselves exact. Ties produce equal weights.
    check=False skips input validation (for hot loops whose inputs were
    validated upstream).
    """
    eps = check_temperature(eps)
    x = np.asarray(x)
    if x.shape[axis] < 1:
        raise ValueError("softmax needs at least one entry")
    if check:
        _reject_nonfinite(x, "softmax input")
    # Shift by the (real-part) max so the largest exponent is exactly 0. For
    # astronomically spread inputs the shifted tail saturates to -inf, which
    # lands in the zero tail below, so the overflow is benign.
    shift = np.max(x.real, axis=axis, keepdims=True)
    with np.errstate(over="ignore"):
        z = (x - shift) / eps
    # The log(N) margin on the exp cutoff keeps the normalized weights normal
    # too, as the sum is at most N; products of subnormals are slow as well.
    # The entries dropped weigh under 1e-305 of the largest.
    e = _exp(z, _EXP_TAIL + math.log(x.shape[axis]))
    return e / np.sum(e, axis=axis, keepdims=True)


def _log1p(x: np.ndarray) -> np.ndarray:
    # Complex x. np.log1p handles complex, but loses the tail for |x| far
    # below machine epsilon of the real part; the series keeps tiny imaginary
    # parts exact.
    small = np.abs(x) < 1e-4
    safe = np.where(small, 0.0, x)
    return np.where(small, x * (1.0 - x * (0.5 - x / 3.0)), np.log(1.0 + safe))


def softplus(x: np.ndarray, eps: float, check: bool = True) -> np.ndarray:
    """Smooth ReLU, eps*log(1 + exp(x/eps)), in the overflow-safe branch form.

    Equals max(x, 0) + eps*log1p(exp(-|x|/eps)); monotone increasing, and
    strictly positive for x > -708 eps. Further out the exp term, under
    1e-307 eps, is an exact 0.
    """
    eps = check_temperature(eps)
    x = np.asarray(x)
    if check:
        _reject_nonfinite(x, "softplus input")
    if not np.iscomplexobj(x):
        tail = _exp(-np.abs(x) / eps)
        # log1p(y) rounds to y below 2^-54, where np.log1p is slow: keep y.
        tail = np.where(tail < 2.0**-54, tail, np.log1p(np.maximum(tail, 2.0**-54)))
        return np.maximum(x, 0.0) + eps * tail
    pos = x.real > 0.0
    # |x| with a branch on the real part keeps the imaginary perturbation
    # analytic; the exponent then has non-positive real part, so no overflow.
    ax = np.where(pos, x, -x)
    return np.where(pos, x, 0.0) + eps * _log1p(_exp(-ax / eps))


def dot(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.sum(a * b, axis=axis)


def squared_norm(v: np.ndarray, axis: int = -1) -> np.ndarray:
    # sum(v*v), not sum(|v|^2): keeps complex-step perturbations analytic.
    return np.sum(v * v, axis=axis)


def norm(v: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.sqrt(squared_norm(v, axis=axis))


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 cross-product matrix: skew(v) @ w == cross(v, w)."""
    v = np.asarray(v)
    z = np.zeros(v.shape[:-1], dtype=v.dtype)
    return np.stack(
        [
            np.stack([z, -v[..., 2], v[..., 1]], axis=-1),
            np.stack([v[..., 2], z, -v[..., 0]], axis=-1),
            np.stack([-v[..., 1], v[..., 0], z], axis=-1),
        ],
        axis=-2,
    )


# Quaternions are stored (w, x, y, z).

def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q)
    return q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (normalized internally)."""
    q = quat_normalize(q)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.stack(
        [
            np.stack([1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)], axis=-1),
            np.stack([2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)], axis=-1),
            np.stack([2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)], axis=-1),
        ],
        axis=-2,
    )


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion.

    Uses a series for small angles so it stays smooth (and complex-step safe)
    through zero.
    """
    rv = np.asarray(rv)
    th2 = np.sum(rv * rv, axis=-1, keepdims=True)
    th = np.sqrt(th2)
    small = th.real < 1e-8
    th_safe = np.where(small, 1.0, th)
    # sin(th/2)/th -> 1/2 - th^2/48 as th -> 0
    half_sinc = np.where(small, 0.5 - th2 / 48.0, np.sin(th_safe / 2.0) / th_safe)
    w = np.cos(th / 2.0)
    return np.concatenate([w, half_sinc * rv], axis=-1)


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (quat_to_matrix(q) @ np.asarray(v)[..., None])[..., 0]

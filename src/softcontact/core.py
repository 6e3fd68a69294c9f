"""Numerically stable smooth scalar primitives and small linear-algebra helpers.

Every function here is written to be complex-step safe: passing inputs with a
tiny imaginary perturbation propagates exact first derivatives through the
whole pipeline (branch decisions are taken on real parts only, norms are
computed as sqrt(sum(x*x)) rather than via abs); exp and softplus apply the
first-order rule f(a + ib) = f(a) + i b f'(a) to such inputs at the cost of
one real evaluation. All functions are pure and safe to call from any number
of concurrent workers: the kernels take their temporaries from the calling
thread's Scratch, the only mutable state here, and return fresh arrays or
the caller's out.
"""
from __future__ import annotations

import math
import threading

import numpy as np


class Scratch:
    """Working memory reused from call to call: one byte buffer handed out
    as arrays in stack order.

    empty(shape, dtype) takes the next bytes of the buffer as an array, and
    a `with scratch:` block gives back on exit every array taken inside it,
    so an array taken from a scratch is valid until the block around it
    exits. A take the buffer cannot hold is a fresh array; once a block
    exits with nothing left taken, the buffer grows to the most bytes ever
    taken at once, so later calls of the same sizes allocate nothing. Views
    are cached by (offset, shape, dtype), and the buffer is viewed as
    whatever dtype a call needs. One scratch serves one thread at a time.
    """

    __slots__ = ("_buf", "_size", "_top", "_high", "_marks", "_views")

    def __init__(self):
        self._buf = np.empty(0, np.uint8)
        self._size = 0
        self._top = 0
        self._high = 0
        self._marks: list[int] = []
        self._views: dict = {}

    def empty(self, shape: tuple, dtype=float) -> np.ndarray:
        key = (self._top, shape, dtype)
        hit = self._views.get(key)
        if hit is not None:
            view, self._top = hit
            return view
        dt = np.dtype(dtype)
        nbytes = math.prod(shape) * dt.itemsize
        start = self._top
        # 64-byte offsets keep every view aligned for any dtype.
        self._top = start + -(-nbytes // 64) * 64
        if self._top > self._size:
            self._high = max(self._high, self._top)
            return np.empty(shape, dt)
        view = self._buf[start:start + nbytes].view(dt).reshape(shape)
        self._views[key] = (view, self._top)
        return view

    def __enter__(self) -> "Scratch":
        self._marks.append(self._top)
        return self

    def __exit__(self, typ, value, tb) -> None:
        self._top = top = self._marks.pop()
        # Nothing taken is live at top 0, so the buffer can be replaced.
        if not top and self._high > self._size:
            self._buf = np.empty(self._high, np.uint8)
            self._size = self._high
            self._views.clear()


class _Arena(threading.local):
    """One Scratch per thread, held outside any Scene: the kernels' memory."""

    def __init__(self):
        self.scratch = Scratch()


_ARENA = _Arena()


def check_temperature(eps: float, name: str = "eps") -> float:
    """Validate a smoothing temperature (must be a positive finite real)."""
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {eps!r}")
    return eps


def _reject_nonfinite(x: np.ndarray, name: str, error: type = ValueError) -> None:
    """Raise error naming the first non-finite entry of x."""
    with _ARENA.scratch as arena:
        ok = np.isfinite(x, out=arena.empty(x.shape, bool))
        if not ok.all():
            idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), x.shape))
            pos = idx[0] if len(idx) == 1 else idx
            raise error(f"{name} contains a non-finite entry at index {pos}")


# Point-plane entries per query block, as float64 bytes (complex: half).
_CHUNK_ENTRIES = 32768

# exp(x) is a normal float64 for x >= -708, subnormal below, 0 below -745.
_EXP_TAIL = -708.0

# Complex-step inputs carry an imaginary part b this small, so f(a + ib) =
# f(a) + i b f'(a) holds exactly in float64 (cos b rounds to 1 and sin b to
# b); larger parts, which no derivative of this package produces, raise.
_STEP_BOUND = 1e-8


def _check_step(b: np.ndarray, scale: float = 1.0) -> None:
    """Raise unless max |b| / scale is below the bound. Two reductions give
    max |b| without an |b| array; dividing by a positive scale commutes with
    the max."""
    # Written as not (m >= bound) so a NaN imaginary part propagates.
    m = np.maximum(np.max(b, initial=0.0), -np.min(b, initial=0.0)) / scale
    if m >= _STEP_BOUND:
        raise ValueError(f"complex-step perturbation {m:.3g} is not below {_STEP_BOUND:g}")


def _first_order(z: np.ndarray, value: np.ndarray, slope: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f(a + ib) = value + i b slope, with value = f(a) and slope = f'(a).
    Set part by part: complex arithmetic would carry a NaN in b into the
    real part."""
    if out is None:
        out = np.empty_like(z)
    out.real = value
    np.multiply(z.imag, slope, out=out.imag)
    return out


def _exp(z: np.ndarray, cutoff: float = _EXP_TAIL, out: np.ndarray | None = None) -> np.ndarray:
    """exp(z) with an exact 0 wherever Re z < cutoff, written into out when
    given (z itself allowed)."""
    # np.exp is tens of times slower on its subnormal and underflow range,
    # and at the bare cutoff -708 itself, but not from -707.7 up. Entries
    # whose real part is below the cutoff are clamped to it, zeroed before
    # exp only at the bare cutoff, and zeroed after it: computed rather than
    # skipped, the cost stays the same however many entries are far, which
    # is the contact-count independence. A NaN passes np.maximum and the
    # float 0/1 mask (NaN * 0 is NaN); a bool one is cast.
    a = z.real
    step = np.iscomplexobj(z)
    with _ARENA.scratch as arena:
        live = np.greater_equal(a, cutoff, out=arena.empty(a.shape))
        e = np.maximum(a, cutoff, out=arena.empty(a.shape) if step else out)
        if cutoff <= _EXP_TAIL:
            e *= live
        np.exp(e, out=e)
        e *= live
        if not step:
            return e
        _check_step(z.imag)
        return _first_order(z, e, e, out)


def _quotient(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """num / den for sums of complex-step terms, den's real part positive,
    written into out when given (num itself allowed). Divided part by part,
    as softmax divides: the real part is the real quotient and the imaginary
    part the quotient rule's (Im num - q Im den) / Re den."""
    if not np.iscomplexobj(num):
        return np.divide(num, den, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(num.shape, den.shape), num.dtype)
    q = np.divide(num.real, den.real, out=out.real)
    np.subtract(num.imag, q * den.imag, out=out.imag)
    out.imag /= den.real
    return out


def softmax(x: np.ndarray, eps: float, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Temperature-scaled softmax, exp(x_i/eps) / sum_j exp(x_j/eps).

    Max-subtraction makes the computation overflow-free for any finite input,
    and makes the shift invariance softmax(x + c) == softmax(x) exact whenever
    the additions x + c are themselves exact. Ties produce equal weights.
    A complex-step input is carried part by part, so its real part is the
    real softmax bit for bit. The result is written into out when given
    (x itself allowed).
    """
    eps = check_temperature(eps)
    x = np.asarray(x)
    if x.shape[axis] < 1:
        raise ValueError("softmax needs at least one entry")
    step = np.iscomplexobj(x)
    with _ARENA.scratch as arena:
        _reject_nonfinite(x, "softmax input")
        # Shift by the (real-part) max so the largest exponent is exactly 0. For
        # astronomically spread inputs the shifted tail saturates to -inf, which
        # lands in the zero tail below, so the overflow is benign.
        shift = np.max(x.real, axis=axis, keepdims=True)
        with np.errstate(over="ignore"):
            e = np.subtract(x.real, shift, dtype=float, out=arena.empty(x.shape) if step else out)
            e /= eps
        # The log(N) margin on the exp cutoff keeps the normalized weights normal
        # too, as the sum is at most N; products of subnormals are slow as well.
        # The entries dropped weigh under 1e-305 of the largest.
        _exp(e, _EXP_TAIL + math.log(x.shape[axis]), out=e)
        s = np.sum(e, axis=axis, keepdims=True)
        if not step:
            e /= s
            return e
        # Numpy's complex division (by eps, or by the sum) rounds the real part
        # differently from the real one, so the imaginary part of the first-order
        # rule is carried beside the real path: d(e/s) = (de - w ds)/s.
        de = np.divide(x.imag, eps, out=arena.empty(x.shape))
        _check_step(de)
        de *= e
        e /= s
        if out is None:
            out = np.empty_like(x)
        out.real = e
        de -= np.multiply(e, np.sum(de, axis=axis, keepdims=True), out=e)
        np.divide(de, s, out=out.imag)
        return out


def softplus(x: np.ndarray, eps: float, check: bool = True, out: np.ndarray | None = None) -> np.ndarray:
    """Smooth ReLU, eps*log(1 + exp(x/eps)), in the overflow-safe branch form.

    Equals max(x, 0) + eps*log1p(exp(-|x|/eps)); monotone increasing, and
    strictly positive for x > -708 eps. Further out the exp term, under
    1e-307 eps, is an exact 0. A complex-step input a + ib (|b|/eps below
    1e-8, else ValueError) gives softplus(a) + i b sigmoid(a/eps), both from
    the one real tail exp(-|a|/eps). The result is written into out when
    given (x itself allowed).
    """
    eps = check_temperature(eps)
    x = np.asarray(x)
    if x.ndim == 0:
        return softplus(x.reshape(1), eps, check, None if out is None else out.reshape(1))[0]
    step = np.iscomplexobj(x)
    a = x.real
    with _ARENA.scratch as arena:
        if check:
            _reject_nonfinite(x, "softplus input")
        if step:
            _check_step(x.imag, eps)
        tail = np.abs(a, dtype=float, out=arena.empty(a.shape))
        tail /= -eps
        _exp(tail, out=tail)
        pos = np.maximum(a, 0.0, out=arena.empty(a.shape))
        # log1p(y) rounds to y below 2^-54, where np.log1p is slow: keep y. As
        # log1p(y) <= y, that is the minimum of y and log1p(max(y, 2^-54)).
        v = np.maximum(tail, 2.0**-54, out=arena.empty(a.shape) if step else out)
        np.log1p(v, out=v)
        np.minimum(v, tail, out=v)
        v *= eps
        v += pos
        if not step:
            return v
        # The slope sigmoid(a/eps): 1 / (1 + tail) for a > 0, else tail / (1 + tail).
        den = np.add(1.0, tail, out=pos)
        np.putmask(tail, np.greater(a, 0.0, out=arena.empty(a.shape, bool)), 1.0)
        return _first_order(x, v, np.divide(tail, den, out=tail), out)


def dot(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.sum(a * b, axis=axis)


def squared_norm(v: np.ndarray, axis: int = -1) -> np.ndarray:
    # sum(v*v), not sum(|v|^2): keeps complex-step perturbations analytic.
    return np.sum(v * v, axis=axis)


def norm(v: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.sqrt(squared_norm(v, axis=axis))


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

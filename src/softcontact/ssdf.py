"""Soft and hard signed distance functions of query points against an AOPC.

The soft variant replaces the nearest-plane argmin with a softmin over
squared point distances, yielding a value that is smooth in the query, the
cloud points, and the normals. The hard variant is the brute-force argmin
oracle realizing the zero-temperature limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _CHUNK_ENTRIES, _EXP_TAIL, _exp, _quotient, check_temperature, softmax


@dataclass(frozen=True)
class SsdfResult:
    """value: signed distance estimate(s); weights: softmin distribution over
    the cloud points; plane_distances: the per-plane signed distances the
    value averages.

    For a single (3,) query the fields are scalar / (I,); for an (Q, 3) batch
    they are (Q,) / (Q, I); a stack of P clouds adds a leading P axis.
    """

    value: np.ndarray
    weights: np.ndarray
    plane_distances: np.ndarray


def _cloud(aopc):
    return np.asarray(aopc.points), np.asarray(aopc.normals)


def _as_batch(p):
    p = np.asarray(p)
    if p.ndim == 1:
        return p[None, :], True
    if p.ndim < 2 or p.shape[-1] != 3:
        raise ValueError("query must be (3,), (Q, 3) or (P, Q, 3)")
    return p, False


def plane_distances(aopc, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-plane signed distances n_i . (p - p_i), shape (..., Q, I), written
    into out when given."""
    pts, nrm = _cloud(aopc)
    q, _ = _as_batch(p)
    s = np.matmul(q, np.swapaxes(nrm, -1, -2), out=out)
    s -= np.sum(pts * nrm, axis=-1)[..., None, :]
    return s


def squared_distances(aopc, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances |p - p_i|^2, shape (..., Q, I), written into out
    when given.

    Uses the expanded form (no (Q, I, 3) intermediate); written with x*x sums
    so complex-step perturbations stay analytic.
    """
    pts, _ = _cloud(aopc)
    q, _ = _as_batch(p)
    qq = np.sum(q * q, axis=-1)
    pp = np.sum(pts * pts, axis=-1)
    d = np.matmul(q, np.swapaxes(pts, -1, -2), out=out)
    np.multiply(2.0, d, out=d)
    np.subtract(qq[..., :, None], d, out=d)
    d += pp[..., None, :]
    return d


def ssdf(aopc, p, eps1: float) -> SsdfResult:
    """Softmin-weighted average of per-plane signed distances.

    eps1 carries units of squared meters (it divides squared distances);
    1e-4 is a reasonable default for meter-scale geometry. A stack of clouds
    (P, I, 3) takes a (P, Q, 3) query.
    """
    check_temperature(eps1, "eps1")
    q, single = _as_batch(p)
    pts, nrm = _cloud(aopc)
    value, e, sums, nphi = _block(_ssdf_matrix(pts, nrm, eps1), _query_rows(q))
    w, s = np.empty((2,) + value.shape + e.shape[:1], e.dtype)
    _quotient(e, sums, out=np.moveaxis(w, -1, 0))
    np.negative(nphi, out=np.moveaxis(s, -1, 0))
    return SsdfResult(value[0], w[0], s[0]) if single else SsdfResult(value, w, s)


def _query_rows(q, last=1.0, out=None):
    """The rows [q, last] of queries q (..., Q, 3) as the columns of a
    (..., 4, Q) array: [q, 1] is what _ssdf_matrix is taken against."""
    if out is None:
        out = np.empty(q.shape[:-2] + (4,) + q.shape[-2:-1], q.dtype)
    out[..., :3, :], out[..., 3, :] = np.swapaxes(q, -1, -2), last
    return out


def _ssdf_matrix(pts, nrm, eps1: float, out=None):
    """(..., 2, 4, I) of a cloud's points and normals (..., I, 3): against a
    query row [q, 1], the columns [0, :, i] give the softmin logits
    (2 q . p_i - |p_i|^2) / eps1 and the columns [1, :, i] the negated plane
    distances p_i . n_i - q . n_i. The logits are -|q - p_i|^2 / eps1 less
    the row constant |q|^2 / eps1, which the softmin is invariant to."""
    if out is None:
        out = np.empty(pts.shape[:-2] + (2, 4) + pts.shape[-2:-1], np.result_type(pts, nrm))
    np.divide(np.swapaxes(pts, -1, -2), 0.5 * eps1, out=out[..., 0, :3, :])
    np.divide(np.einsum("...j,...j->...", pts, pts), -eps1, out=out[..., 0, 3, :])
    np.negative(np.swapaxes(nrm, -1, -2), out=out[..., 1, :3, :])
    np.einsum("...j,...j->...", pts, nrm, out=out[..., 1, 3, :])
    return out


def _stacked(x):
    """x (k, I, ..., Q) as (..., k, I, Q), the order batched matmuls take."""
    return x.transpose(tuple(range(2, x.ndim - 1)) + (0, 1, x.ndim - 1))


# The unnormalised weights peak at exp(_LIFT), about 1e100, not at 1, so
# that contact's products of small weights with the small penalties of far
# planes stay normal numbers: numpy and BLAS are tens of times slower on
# subnormal ones. I exp(_LIFT) times any plane distance below 1e200 m
# stays finite.
_LIFT = 230.0


def _block(S, rows, value=None, sums=None, out=None):
    """ssdf's block, shared with contact's query blocks so that their values
    are ssdf's bit for bit. Against a cloud's _ssdf_matrix S and the query
    rows [q, 1] of _query_rows (..., 4, Q), returns the value (..., Q), the
    unnormalised softmin weights e = exp(s - max_i s + _LIFT) of the logits
    s (I, ..., Q), their sums over the planes (..., Q) and the negated plane
    distances -phi (I, ..., Q); value = sum e phi / sum e. Planes lead, so
    every sum over them runs along the stack and query axes at once. e and
    -phi are out (2, I, ..., Q), and value and sums are written into the
    given arrays; each is fresh when not given."""
    if out is None:
        lead = np.broadcast_shapes(S.shape[:-3], rows.shape[:-2])
        out = np.empty((2, S.shape[-1]) + lead + rows.shape[-1:], np.result_type(S, rows))
    # An overflowing body gives inf - inf, in the matmul or in the shift: the
    # caller names the pair.
    with np.errstate(invalid="ignore"):
        np.matmul(np.swapaxes(S, -1, -2), rows[..., None, :, :], out=_stacked(out))
        e, nphi = out
        logits = e.real
        logits -= np.max(logits, axis=0) - _LIFT
    # The log(I) margin on the exp cutoff keeps the normalised weights normal,
    # as the sum is at most I; the entries dropped weigh under 1e-305 of the
    # largest.
    _exp(e, _EXP_TAIL + _LIFT + math.log(e.shape[0]), out=e)
    sums = np.sum(e, axis=0, out=sums)
    value = np.einsum("i...,i...->...", e, nphi, out=value)
    np.negative(_quotient(value, sums, out=value), out=value)
    return value, e, sums, nphi


def hard_sdf(aopc, p):
    """Nearest-point plane distance: the zero-temperature oracle.

    Returns (value, index) where index is the argmin of |p - p_i|^2 with
    lowest-index tie-breaking (0-based).
    """
    q, single = _as_batch(p)
    d = squared_distances(aopc, q)
    idx = np.argmin(d, axis=-1)
    s = plane_distances(aopc, q)
    value = np.take_along_axis(s, idx[:, None], axis=-1)[:, 0]
    return (float(value[0]), int(idx[0])) if single else (value, idx)


@dataclass(frozen=True)
class IsotropicGaussianBasis:
    """Per-point isotropic Gaussian kernels exp(-|r|^2 / bandwidth).

    bandwidth: scalar or (I,) positive, units of squared meters. With a
    uniform bandwidth this reproduces the plain softmin form exactly.
    """

    bandwidth: np.ndarray

    def log_weights(self, aopc, q: np.ndarray) -> np.ndarray:
        bw = np.asarray(self.bandwidth, dtype=float)
        if np.any(bw <= 0):
            raise ValueError("bandwidth must be positive")
        d = squared_distances(aopc, q)
        return -d / bw


@dataclass(frozen=True)
class AnisotropicGaussianBasis:
    """Per-point anisotropic Gaussian kernels exp(-r^T P_i r).

    precision: (3, 3) shared or (I, 3, 3) per point; symmetric positive
    definite (checked by Cholesky), units 1/m^2.
    """

    precision: np.ndarray

    def log_weights(self, aopc, q: np.ndarray) -> np.ndarray:
        P = np.asarray(self.precision, dtype=float)
        pts = np.asarray(aopc.points)
        I = pts.shape[0]
        if P.shape == (3, 3):
            P = np.broadcast_to(P, (I, 3, 3))
        if P.shape != (I, 3, 3):
            raise ValueError("precision must be (3, 3) or (I, 3, 3)")
        try:
            np.linalg.cholesky(0.5 * (P + np.swapaxes(P, -1, -2)))
        except np.linalg.LinAlgError:
            raise ValueError("precision matrices must be positive definite") from None
        r = q[:, None, :] - pts[None, :, :]
        return -np.einsum("qia,iab,qib->qi", r, P, r)


def ssdf_general(aopc, p, basis) -> SsdfResult:
    """Basis-function generalization: value = sum B_i s_i / sum B_i.

    The weights are computed through a max-shifted softmax of the kernel
    log-weights, so arbitrarily peaked kernels stay overflow-free.
    """
    q, single = _as_batch(p)
    # The ratio is invariant to scaling all kernels per query; eps=1 softmax
    # of the log-weights is exactly that normalized ratio.
    w = softmax(basis.log_weights(aopc, q), 1.0, axis=-1)
    s = plane_distances(aopc, q)
    value = np.sum(w * s, axis=-1)
    return SsdfResult(value[0], w[0], s[0]) if single else SsdfResult(value, w, s)


def sample_sdf_grid(aopc, bounds, resolution, eps1: float, slice_axis: int | None = None, slice_value: float = 0.0):
    """Soft signed distances over an axis-aligned lattice.

    bounds: (lo, hi) pair of (3,) corners; resolution: per-axis node counts
    (each >= 2); slice_axis/slice_value optionally pin one coordinate (that
    axis then contributes a single lattice plane). Returns (points, values)
    with points in row-major (x slowest) order, shape (N, 3) and (N,).

    Pure function; lattice chunks are independent, so callers may shard the
    node set across workers and concatenate. Chunks of _CHUNK_ENTRIES.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"bounds must be finite, got lo={lo.tolist()!r}, hi={hi.tolist()!r}")
    if lo.shape != (3,) or hi.shape != (3,) or np.any(hi <= lo):
        raise ValueError("bounds must be (lo, hi) with hi > lo on every axis")
    if not np.isfinite(slice_value):
        raise ValueError(f"slice_value must be finite, got {slice_value!r}")
    res = [int(r) for r in np.broadcast_to(np.asarray(resolution), (3,))]
    axes = []
    for ax in range(3):
        if slice_axis is not None and ax == int(slice_axis):
            axes.append(np.array([float(slice_value)]))
            continue
        if res[ax] < 2:
            raise ValueError("resolution must be at least 2 per sampled axis")
        axes.append(np.linspace(lo[ax], hi[ax], res[ax]))
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    values = np.empty(pts.shape[0])
    chunk = max(1, _CHUNK_ENTRIES // aopc.num_points)
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, start + chunk)
        values[sl] = ssdf(aopc, pts[sl], eps1).value
    return pts, values


def grid_to_csv(points: np.ndarray, values: np.ndarray) -> str:
    lines = ["x,y,z,phi"]
    for p, v in zip(points, values):
        lines.append("%.17g,%.17g,%.17g,%.17g" % (p[0], p[1], p[2], v))
    return "\n".join(lines) + "\n"

"""Soft and hard signed distance functions of query points against an AOPC.

The soft variant replaces the nearest-plane argmin with a softmin over
squared point distances, yielding a value that is smooth in the query, the
cloud points, and the normals. The hard variant is the brute-force argmin
oracle realizing the zero-temperature limit. A complex step (one direction
here, K in contact's batches) is split into the real part and real tangents,
so the block runs in real arithmetic and the tangents follow the first-order
rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _ARENA, _CHUNK_ENTRIES, _EXP_TAIL, _check_step, _dual, _exp, _parts, _quotient, _reject_nonfinite, _tangent_scale, check_temperature, softmax


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
    """p as a batch of queries, and whether it was one (3,) query."""
    p = np.asarray(p)
    if p.ndim < 1 or p.shape[-1] != 3:
        raise ValueError("query must be (3,), (Q, 3) or (P, Q, 3)")
    _reject_nonfinite(p.real, "query")
    return (p[None, :], True) if p.ndim == 1 else (p, False)


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
    (P, I, 3) takes a (P, Q, 3) query. A query with a non-finite coordinate
    (in its real part: a complex step's tangent is carried) raises ValueError.
    """
    q, single = _as_batch(p)
    (_, value, sums, out), = _ssdf_blocks(aopc, q, eps1, max(q.shape[-2], 1))
    step = np.iscomplexobj(value)
    # [w, s], (..., Q, I) each, and its parts (real, imaginary) planes first.
    ws = np.empty((2,) + out.shape[2:] + out.shape[1:2], complex if step else float)
    parts = np.moveaxis(_parts(ws) if step else ws[None], -1, 2)
    np.negative(out[1::2], out=parts[:, 1])
    if step:
        parts[1, 0] = out[2]
        _quotient(out[0], sums[0], out=parts[0, 0], dnum=parts[1, 0], dden=sums[1][0])
    else:
        _quotient(out[0], sums, out=parts[0, 0])
    w, s = ws
    return SsdfResult(value[0], w[0], s[0]) if single else SsdfResult(value, w, s)


def _ssdf_blocks(cloud, points, eps1: float, n: int | None = None):
    """(slice, value, sums, out) of _block over blocks of n queries of points
    (by default as many as fit _CHUNK_ENTRIES entries, stack x block x
    planes), from one _ssdf_matrix: the block rule of every SSDF reader
    outside the contact kernel, ssdf's one block of all. value is ssdf's of
    points[..., slice, :]; for a real query out[0] / sums are its weights.
    A complex step is split once (K = 1) and its tangents given unscaled. A
    non-finite query raises ValueError."""
    check_temperature(eps1, "eps1")
    q, _ = _as_batch(points)
    pts, nrm = _cloud(cloud)
    S = _ssdf_matrix(pts, nrm, eps1)
    step = np.iscomplexobj(S) or np.iscomplexobj(q)
    scale = _tangent_scale(S, q) if step else 1.0
    if step:
        S = _dual(S, scale, np.empty((1,) + S.shape[:-2] + (8,) + S.shape[-1:]))
    lead = np.broadcast_shapes(pts.shape[:-2], q.shape[:-2])
    n = n or max(1, _CHUNK_ENTRIES // (math.prod(lead) * pts.shape[-2]))
    for start in range(0, q.shape[-2], n):
        sl = slice(start, start + n)
        rows = _query_rows(q[..., sl, :])
        if not step:
            yield (sl, *_block(S, rows))
            continue
        rows = _dual(rows, scale, np.empty((1,) + rows.shape[:-2] + (8,) + rows.shape[-1:]), tangent_first=True)
        value = np.empty(lead + rows.shape[-1:], complex)
        _, sums, out = _block(S, rows, (_parts(value)[0], _parts(value)[1:]), scale=scale)
        for tangent in (_parts(value)[1], sums[1], out[2:]):
            tangent *= 1.0 / scale
        yield sl, value, sums, out


def _query_rows(q, last=1.0, out=None):
    """The rows [q, last] of queries q (..., Q, 3) as the columns of a
    (..., 4, Q) array: [q, 1] is what _ssdf_matrix is taken against."""
    if out is None:
        out = np.empty(q.shape[:-2] + (4,) + q.shape[-2:-1], q.dtype)
    out[..., :3, :], out[..., 3, :] = q.swapaxes(-1, -2), last
    return out


def _ssdf_matrix(pts, nrm, eps1: float, out=None):
    """(..., 2, 4, I) of a cloud's points and normals (..., I, 3): against a
    query row [q, 1], the columns [0, :, i] give the softmin logits
    (2 q . p_i - |p_i|^2) / eps1 and the columns [1, :, i] the negated plane
    distances p_i . n_i - q . n_i. The logits are -|q - p_i|^2 / eps1 less
    the row constant |q|^2 / eps1, which the softmin is invariant to."""
    if out is None:
        out = np.empty(pts.shape[:-2] + (2, 4) + pts.shape[-2:-1], np.result_type(pts, nrm))
    np.divide(pts.swapaxes(-1, -2), 0.5 * eps1, out=out[..., 0, :3, :])
    np.divide(np.einsum("...j,...j->...", pts, pts), -eps1, out=out[..., 0, 3, :])
    np.negative(nrm.swapaxes(-1, -2), out=out[..., 1, :3, :])
    np.einsum("...j,...j->...", pts, nrm, out=out[..., 1, 3, :])
    return out


def _stacked(x, k=0):
    """x (K..., c, I, ..., Q), with k leading axes K, as (K..., ..., c, I, Q),
    the order batched matmuls take."""
    return x.transpose(tuple(range(k)) + tuple(range(k + 2, x.ndim - 1)) + (k, k + 1, x.ndim - 1))


# The unnormalised weights peak at exp(_LIFT), about 1e100, not at 1, so
# that contact's products of small weights with the small penalties of far
# planes stay normal numbers: numpy and BLAS are tens of times slower on
# subnormal ones. I exp(_LIFT) times any plane distance below 1e200 m
# stays finite.
_LIFT = 230.0


def _block(S, rows, value=None, sums=None, out=None, scale=1.0):
    """ssdf's block, shared with contact's query blocks so that their values
    are ssdf's bit for bit. Against a cloud's _ssdf_matrix S and the query
    rows [q, 1] of _query_rows (..., 4, Q), returns the value (..., Q), the
    sums over the planes (..., Q) of the unnormalised softmin weights
    e = exp(s - max_i s + _LIFT) of the logits s, and out (2, I, ..., Q):
    e and the negated plane distances -phi; value = sum e phi / sum e.
    Planes lead, so every sum over them runs along the stack and query axes
    at once. value, sums and out are written into the given arrays; each is
    fresh when not given.

    A complex step of K directions that share one real part comes split
    into real arrays (core._dual), each with a leading axis of K (or 1):
    S (K, ..., 2, 8, I) is the matrix over its tangent times scale and rows
    (K, ..., 8, Q) the rows' tangent over the rows, so one batched matmul
    gives every direction's tangents of the logits and of -phi. Then out is
    (2 + 2K, I, ..., Q), [e, -phi] and per direction their tangents, and
    value and sums are pairs of the real part (..., Q) and the tangents
    (K, ..., Q). The real parts take the real block's operations, and every
    tangent, times scale, follows the first-order rule."""
    step = S.shape[-2] == 8
    K = max(S.shape[0], rows.shape[0]) if step else 0
    if out is None:
        lead = np.broadcast_shapes(S.shape[step:-3], rows.shape[step:-2])
        out = np.empty((2 + 2 * K, S.shape[-1]) + lead + rows.shape[-1:])
    # An overflowing body gives inf - inf, in the matmul or in the shift: the
    # caller names the pair.
    with np.errstate(invalid="ignore"):
        re_S, re_rows = (S[0, ..., :4, :], rows[0, ..., 4:, :]) if step else (S, rows)
        np.matmul(re_S.swapaxes(-1, -2), re_rows[..., None, :, :], out=_stacked(out[:2]))
        if step:
            tangents = out[2:].reshape((K, 2) + out.shape[1:])
            np.matmul(S.swapaxes(-1, -2), rows[..., None, :, :], out=_stacked(tangents, 1))
        e, nphi = out[:2]
        e -= e.max(axis=0) - _LIFT
    # The log(I) margin on the exp cutoff keeps the normalised weights normal,
    # as the sum is at most I; the entries dropped weigh under 1e-305 of the
    # largest.
    _exp(e, _EXP_TAIL + _LIFT + math.log(e.shape[0]), out=e)
    shape = out.shape[2:]
    fresh = (lambda: (np.empty(shape), np.empty((K,) + shape))) if step else (lambda: np.empty(shape))
    value, sums = (fresh() if x is None else x for x in (value, sums))
    num, den = (value[0], sums[0]) if step else (value, sums)
    e.sum(axis=0, out=den)
    np.einsum("i...,i...->...", e, nphi, out=num)
    if step:
        (de, dnphi), dnum, dden = tangents.swapaxes(0, 1), value[1], sums[1]
        _check_step(de, scale)
        de *= e
        # Each direction's sum over the planes as one matmul against ones.
        dden[...] = np.matmul(np.ones(e.shape[0]), de.reshape(K, e.shape[0], -1)).reshape(dden.shape)
        np.einsum("ki...,i...->k...", de, nphi, out=dnum)
        with _ARENA.scratch as arena:
            dnum += np.einsum("i...,ki...->k...", e, dnphi, out=arena.empty(dnum.shape))
        _quotient(num, den, out=num, dnum=dnum, dden=dden)
        np.negative(dnum, out=dnum)
    else:
        _quotient(num, den, out=num)
    np.negative(num, out=num)
    return value, sums, out


def hard_sdf(aopc, p):
    """Nearest-point plane distance: the zero-temperature oracle.

    Returns (value, index) where index is the argmin of |p - p_i|^2 with
    lowest-index tie-breaking (0-based). A non-finite query raises ValueError.
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
    node set across workers and concatenate.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"bounds must be finite, got lo={lo.tolist()!r}, hi={hi.tolist()!r}")
    if lo.shape != (3,) or hi.shape != (3,) or np.any(hi <= lo):
        raise ValueError("bounds must be (lo, hi) with hi > lo on every axis")
    if not np.isfinite(slice_value):
        raise ValueError(f"slice_value must be finite, got {slice_value!r}")
    res = np.broadcast_to(np.asarray(resolution, dtype=float), (3,))
    if not np.isfinite(res).all():
        raise ValueError(f"resolution must be finite, got {res.tolist()!r}")
    axes = []
    for ax in range(3):
        if slice_axis is not None and ax == int(slice_axis):
            axes.append(np.array([float(slice_value)]))
            continue
        if res[ax] < 2:
            raise ValueError("resolution must be at least 2 per sampled axis")
        axes.append(np.linspace(lo[ax], hi[ax], int(res[ax])))
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    return pts, np.concatenate([value for _, value, _, _ in _ssdf_blocks(aopc, pts, eps1)])


def grid_to_csv(points: np.ndarray, values: np.ndarray) -> str:
    lines = ["x,y,z,phi"]
    for p, v in zip(points, values):
        lines.append("%.17g,%.17g,%.17g,%.17g" % (p[0], p[1], p[2], v))
    return "\n".join(lines) + "\n"

"""Numerically stable smooth scalar primitives and small linear-algebra helpers.

Every function here is written to be complex-step safe: passing inputs with a
tiny imaginary perturbation propagates exact first derivatives through the
whole pipeline (branch decisions are taken on real parts only, norms are
computed as sqrt(sum(x*x)) rather than via abs); softplus and softmax apply
the first-order rule f(a + ib) = f(a) + i b f'(a) to such inputs at the cost
of one real evaluation. The contact kernel goes further: it splits a complex
step of K directions that share one real part into the real part and K real
tangents (_tangent_scale, _dual), runs its blocks on real arrays and writes
the result into the parts of a complex array (_parts). All functions are
pure and safe to call from any number of concurrent workers: the kernels
take their temporaries from the calling thread's Scratch, the only mutable
state here, and return fresh arrays or the caller's out.
"""
from __future__ import annotations

import math
import os
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

# True in a process this package forked (a gradient column worker or a
# contact helper). It leaves through os._exit, so nothing it forked would be
# reaped, and its caller already keeps the other CPUs busy.
_forked = False


def _may_fork() -> bool:
    """Whether to spread work over forked processes: os.fork exists, the
    affinity set holds at least 2 CPUs, no other thread is alive (the child
    could inherit a lock that thread holds) and this process is not one
    that _fork made."""
    return not _forked and hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def _fork() -> int:
    """os.fork(), with the child marked so that _may_fork refuses there."""
    global _forked
    pid = os.fork()
    if pid == 0:
        _forked = True
    return pid


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


# Point-plane entries per query block, as float64 bytes: a complex step's
# block carries a float64 tangent beside each float64 entry, so it takes half
# the entries.
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


def _broadcast(*shapes: tuple) -> tuple:
    """np.broadcast_shapes(*shapes), without its cost when all are equal."""
    return shapes[0] if shapes.count(shapes[0]) == len(shapes) else np.broadcast_shapes(*shapes)


def _blocks(n: int, most: int) -> list[slice]:
    """range(n) cut as np.array_split cuts it into ceil(n / most) slices,
    whose lengths differ by at most one: the one block rule for queries and
    pairs. No ragged remainder is left, such as a one-query block, whose
    matrix-vector product may round differently in the last bit."""
    k = -(-n // most)
    ends = [i * (n // k) + min(i, n % k) for i in range(k + 1)] if k else []
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _first_order(z: np.ndarray, value: np.ndarray, slope: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f(a + ib) = value + i b slope, with value = f(a) and slope = f'(a).
    Set part by part: complex arithmetic would carry a NaN in b into the
    real part."""
    if out is None:
        out = np.empty_like(z)
    out.real = value
    np.multiply(z.imag, slope, out=out.imag)
    return out


def _exp(a: np.ndarray, cutoff: float = _EXP_TAIL, out: np.ndarray | None = None) -> np.ndarray:
    """exp(a) of a real a with an exact 0 wherever a < cutoff, written into
    out when given (a itself allowed)."""
    # np.exp is tens of times slower on its subnormal and underflow range,
    # and at the bare cutoff -708 itself, but not from -707.7 up. Entries
    # below the cutoff are clamped to it, zeroed before exp only at the bare
    # cutoff, and zeroed after it: computed rather than skipped, the cost
    # stays the same however many entries are far, which is the
    # contact-count independence. A NaN passes np.maximum and the float 0/1
    # mask (NaN * 0 is NaN); a bool one is cast.
    with _ARENA.scratch as arena:
        live = np.greater_equal(a, cutoff, out=arena.empty(a.shape))
        e = np.maximum(a, cutoff, out=out)
        if cutoff <= _EXP_TAIL:
            e *= live
        np.exp(e, out=e)
        e *= live
        return e


def _quotient(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None, dnum: np.ndarray | None = None,
              dden: np.ndarray | None = None) -> np.ndarray:
    """num / den, written into out when given (num itself allowed). With
    real tangents dnum beside num and dden beside den (None: a constant
    den), den positive, dnum becomes the quotient's tangent by the quotient
    rule, (dnum - q dden) / den."""
    q = np.divide(num, den, out=out)
    if dnum is not None:
        if dden is not None:
            with _ARENA.scratch as arena:
                dnum -= np.multiply(q, dden, out=arena.empty(np.broadcast_shapes(q.shape, dden.shape)))
        dnum /= den
    return q


def _tangent_scale(*zs: np.ndarray) -> float:
    """The power of two that brings the largest imaginary part of zs into
    [0.5, 1), within 2^+-1000; 1 when that part is 0 or not finite. A
    tangent carried times it stays clear of the subnormal range, where numpy
    and BLAS are several times slower (a 1e-30 step is about 2^-100), and
    dividing by it on the way out is exact."""
    m = max(float(abs(z.imag).max(initial=0.0)) for z in zs)
    return math.ldexp(1.0, -min(max(math.frexp(m)[1], -1000), 1000))


def _dual(z: np.ndarray, scale: float, out: np.ndarray, tangent_first: bool = False) -> np.ndarray:
    """z (..., k, m) as the real (..., 2k, m) array out: its real part over
    its imaginary part times scale, or the other way round."""
    k = z.shape[-2]
    re, im = (out[..., k:, :], out[..., :k, :]) if tangent_first else (out[..., :k, :], out[..., k:, :])
    re[...] = z.real
    np.multiply(z.imag, scale, out=im)
    return out


def _parts(z: np.ndarray) -> np.ndarray:
    """A contiguous complex z's real part over its imaginary part, as one
    (2, ...) real view."""
    return z.view(float).reshape(z.shape + (2,)).transpose((z.ndim,) + tuple(range(z.ndim)))


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
        shift = x.real.max(axis=axis, keepdims=True)
        with np.errstate(over="ignore"):
            e = np.subtract(x.real, shift, dtype=float, out=arena.empty(x.shape) if step else out)
            e /= eps
        # The log(N) margin on the exp cutoff keeps the normalized weights normal
        # too, as the sum is at most N; products of subnormals are slow as well.
        # The entries dropped weigh under 1e-305 of the largest.
        _exp(e, _EXP_TAIL + math.log(x.shape[axis]), out=e)
        s = e.sum(axis=axis, keepdims=True)
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
    if check:
        _reject_nonfinite(x, "softplus input")
    if not np.iscomplexobj(x):
        return _softplus(x, eps, out)
    _check_step(x.imag, eps)
    with _ARENA.scratch as arena:
        slope = arena.empty(x.shape)
        return _first_order(x, _softplus(x.real, eps, arena.empty(x.shape), slope), slope, out)


def _softplus(a: np.ndarray, eps: float, out: np.ndarray | None = None, slope: np.ndarray | None = None) -> np.ndarray:
    """softplus of a real a, written into out when given (a itself
    allowed), and its slope sigmoid(a/eps) into slope when given."""
    with _ARENA.scratch as arena:
        tail = np.abs(a, dtype=float, out=arena.empty(a.shape))
        tail /= -eps
        _exp(tail, out=tail)
        pos = np.maximum(a, 0.0, out=arena.empty(a.shape))
        if slope is not None:
            np.greater(a, 0.0, out=slope)
        # log1p(y) rounds to y below 2^-54, where np.log1p is slow: keep y. As
        # log1p(y) <= y, that is the minimum of y and log1p(max(y, 2^-54)).
        v = np.maximum(tail, 2.0**-54, out=out)
        np.log1p(v, out=v)
        np.minimum(v, tail, out=v)
        v *= eps
        v += pos
        if slope is not None:
            # max(tail, [a > 0]) / (1 + tail), as tail is in [0, 1] or nan.
            np.maximum(tail, slope, out=slope)
            slope /= np.add(1.0, tail, out=pos)
        return v


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
    return q / np.sqrt((q * q).sum(axis=-1, keepdims=True))


# Quaternion products and rotation matrices as linear maps of outer
# products: (a_w b_w - u.v, a_w v + b_w u + u x v) of a = (a_w, u) and
# b = (b_w, v) from a b^T, and R - Id of a unit q = (w, v), R_ij =
# delta_ij (1 - 2 v.v) + 2 v_i v_j - 2 eps_ijk w v_k, from q q^T.
_EYE, _EPS = np.eye(3), np.cross(np.eye(3)[:, None], np.eye(3)[None, :])  # eps_ijk
_PRODUCT_TERMS, _ROTATION_TERMS = np.zeros((4, 4, 4)), np.zeros((4, 4, 3, 3))
_PRODUCT_TERMS[0], _PRODUCT_TERMS[1:, 0, 1:], _PRODUCT_TERMS[1:, 1:, 1:] = np.eye(4), _EYE, _EPS
_PRODUCT_TERMS[1:, 1:, 0] = -_EYE
_ROTATION_TERMS[1:, 1:] = 2.0 * (_EYE[:, None, :, None] * _EYE[None, :, None, :] - _EYE[:, :, None, None] * _EYE)
_ROTATION_TERMS[0, 1:] = -2.0 * _EPS
_PRODUCT_TERMS, _ROTATION_TERMS = _PRODUCT_TERMS.reshape(16, 4), _ROTATION_TERMS.reshape(16, 9)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product a b: one matmul of a b^T against its terms."""
    outer = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (16,)) @ _PRODUCT_TERMS


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (normalized internally): one matmul
    of q q^T / q.q against the rotation's quadratic terms."""
    q = np.asarray(q)
    outer = q[..., :, None] * q[..., None, :]
    outer /= (q * q).sum(axis=-1)[..., None, None]
    R = outer.reshape(q.shape[:-1] + (16,)) @ _ROTATION_TERMS
    R[..., ::4] += 1.0
    return R.reshape(q.shape[:-1] + (3, 3))


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion.

    Uses a series for small angles so it stays smooth (and complex-step safe)
    through zero.
    """
    rv = np.asarray(rv)
    th2 = (rv * rv).sum(axis=-1, keepdims=True)
    th = np.sqrt(th2)
    small = th.real < 1e-8
    th_safe = np.where(small, 1.0, th)
    # sin(th/2)/th -> 1/2 - th^2/48 as th -> 0
    half_sinc = np.where(small, 0.5 - th2 / 48.0, np.sin(th_safe / 2.0) / th_safe)
    w = np.cos(th / 2.0)
    return np.concatenate([w, half_sinc * rv], axis=-1)

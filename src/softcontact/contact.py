"""Soft-minimum contact model: spring-damper-friction point-plane forces,
softly selected over all point-plane pairs of a collision pair.

The normal force is a smooth penalty k * softplus(-phi) modulated by a
velocity-dependent dissipation factor; friction is a regularized Coulomb law
that always opposes sliding and stays inside the cone |f_t| <= mu * f_n.
Because the penalty never reaches exactly zero, bodies exert exponentially
small forces at a distance, which is what gives the dynamics informative
gradients before contact is made.

The pair force makes one pass per pair direction over blocks of query
points, each block computing its SSDF (ssdf's own block, so the values are
separation_field's bit for bit) and its point-plane forces together from
(I, Q_block) arrays. Every contact constant rides in three small per-plane
matrices built once per direction, so the block's matmuls resolve the
velocities in each plane's (n, t1, t2) frame already scaled, and sum the
softmin-weighted forces and their torques about the cloud's origin against
the frame axes and their moment arms (p - t) x e, which posing rotates from
the body frame; the softmin is normalised once per query, on those sums.
The pair's force is linear in the separation distribution, so once both
directions' values are in and their softmax is taken, each body's wrench
(sum f, sum (p - t) x f) enters its 6-DOF block, which is J^T f without the
Jacobian. Stacks of P pairs (a leading pair axis on every array) run through
the same code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import SeparationField
from .core import _ARENA, _CHUNK_ENTRIES, _quotient, check_temperature, dot, softmax, softplus, squared_norm
from .geometry import moment
from .ssdf import _block, _query_rows, _ssdf_matrix, _stacked


@dataclass(frozen=True)
class ContactParams:
    """Contact material and smoothing constants.

    k        : contact stiffness, N/m
    mu       : Coulomb friction coefficient
    v_d      : dissipation velocity, m/s
    v_s      : stiction velocity, m/s
    eps1     : point-softmin temperature, m^2
    eps2     : separation-field temperature, m
    eps3     : penalty smoothing length, m
    """

    k: float = 1e4
    mu: float = 0.5
    v_d: float = 0.1
    v_s: float = 1e-3
    eps1: float = 1e-4
    eps2: float = 1e-3
    eps3: float = 1e-3

    def __post_init__(self):
        for name in ("k", "mu", "v_d", "v_s"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.k > 0:
            raise ValueError("stiffness k must be positive")
        if self.mu < 0:
            raise ValueError("friction coefficient must be nonnegative")
        if not (self.v_d > 0 and self.v_s > 0):
            raise ValueError("v_d and v_s must be positive")
        for name in ("eps1", "eps2", "eps3"):
            check_temperature(getattr(self, name), name)


def dissipation_factor(x, out=None):
    """Velocity modulation of the normal force, x = v_n / v_d.

    1 - x for x <= 0, (x - 2)^2 / 4 on (0, 2], and 0 beyond: continuous and
    C1 at both joints, nonnegative everywhere. A real x takes the one form
    (clip(x, 0, 2) - 2)^2 / 4 - min(x, 0), six passes; a complex-step x the
    pieces in complex arithmetic, selected by its real part. The result is
    written into out when given (x itself allowed).
    """
    x = np.asarray(x)
    dtype = np.result_type(x, 2.0)
    d = np.empty(x.shape, dtype) if out is None else out
    with _ARENA.scratch as arena:
        # Every piece that reads x is taken before d may overwrite it. A NaN
        # stays NaN.
        if not np.iscomplexobj(x):
            low = np.minimum(x, 0.0, out=arena.empty(x.shape, dtype))
            np.clip(x, 0.0, 2.0, out=d)
            d -= 2.0
            np.square(d, out=d)
            d *= 0.25
            d -= low
            return d
        xr = x.real
        low = np.less_equal(xr, 0.0, out=arena.empty(x.shape, bool))
        high = np.greater(xr, 2.0, out=arena.empty(x.shape, bool))
        linear = np.subtract(1.0, x, out=arena.empty(x.shape, dtype))
        np.subtract(x, 2.0, out=d)
        np.square(d, out=d)
        d /= 4.0
        np.putmask(d, low, linear)
        np.putmask(d, high, 0.0)
    return d


def point_plane_force(p, v, plane_p, plane_n, params: ContactParams):
    """Spring-damper-friction force on a point moving against a plane.

    All arguments broadcast over leading axes; v is the point velocity
    relative to the plane. Returns the (..., 3) world force on the point.
    """
    p, v, plane_p, plane_n = (np.asarray(x) for x in (p, v, plane_p, plane_n))
    phi = dot(plane_n, p - plane_p)
    c = params.k * softplus(-phi, params.eps3)
    v_n = dot(plane_n, v)
    v_t = v - v_n[..., None] * plane_n
    lam_n = c * dissipation_factor(v_n / params.v_d)
    scale = -params.mu * lam_n / np.sqrt(params.v_s**2 + squared_norm(v_t))
    return lam_n[..., None] * plane_n + scale[..., None] * v_t


class NonFiniteContact(ValueError):
    """Contact sums that are not finite, at stack row `row` (0 for one pair)."""

    def __init__(self, row: int):
        super().__init__(f"contact is not finite at stack row {row}")
        self.row = row


def _query_sums(cloud, points, velocities, params: ContactParams):
    """SSDF values and softmin-weighted point-plane sums of query points
    against a posed cloud, in one pass over blocks of queries.

    Query q, at points[q] moving at velocities[q], has softmin weights w_qi
    over the cloud's planes i and feels F_qi = point_plane_force against
    plane i. Returns, taken from the thread's arena in the caller's block,
    value (..., Q), the SSDF sum_i w_qi phi_qi bit for bit as ssdf computes
    it (both run ssdf._block), and gt (..., Q, 6): g_q = sum_i w_qi F_qi
    beside tau_q = sum_i w_qi (p_i - t) x F_qi about the cloud's origin t.
    Raises NonFiniteContact if any of them is not finite.

    The constants ride in the three per-plane matrices of _plane_matrices,
    so the block's matmuls give the logits, -phi_qi, x = v_n / v_d and
    alpha, beta = v_t / v_s directly. With the unnormalised weights e of
    ssdf._block, W = e softplus(-phi, eps3) dissipation_factor(x) and
    r = W / sqrt(1 + alpha^2 + beta^2), one more matmul takes
    [W, alpha r, beta r] against the moment matrix, and the sums are
    divided by sum_i e_qi and scaled by k once per query. A side repeated
    along the stack (stride 0, one body on every row) is read once and
    broadcast by the matmuls. Each block's (I, ..., Q_block) arrays hold at
    most _CHUNK_ENTRIES float64 entries' bytes.
    """
    I, Q = cloud.num_points, points.shape[-2]
    lead = np.broadcast_shapes(cloud.points.shape[:-2], points.shape[:-2])
    # The SSDF takes the geometry's dtype, as ssdf does; the forces the
    # common one.
    geo = np.result_type(cloud.points, cloud.normals, points)
    dtype = np.result_type(geo, cloud.arms, cloud.velocities, velocities)
    arena = _ARENA.scratch
    value = arena.empty(lead + (Q,), geo)
    gt = arena.empty(lead + (Q, 6), dtype)
    with arena:
        sums = arena.empty(lead + (Q,), geo)
        S, F, M = _plane_matrices(cloud, params, geo, dtype, arena)
        points, velocities = _once(points), _once(velocities)
        rows = _query_rows(points, 1.0, arena.empty(points.shape[:-2] + (4, Q), points.dtype))
        vel = _query_rows(velocities, -1.0, arena.empty(velocities.shape[:-2] + (4, Q), velocities.dtype))
        step = max(1, _CHUNK_ENTRIES * 8 // (np.dtype(dtype).itemsize * math.prod(lead) * I))
        for start in range(0, Q, step):
            blk = slice(start, start + step)
            n = min(Q, start + step) - start
            with arena:
                _, e, _, lam = _block(S, rows[..., blk], value[..., blk], sums[..., blk],
                                      arena.empty((2, I) + lead + (n,), geo))
                V = arena.empty((3, I) + lead + (n,), dtype)
                np.matmul(np.swapaxes(F, -1, -2), vel[..., None, :, blk], out=_stacked(V))
                x, ab = V[0], V[1:]
                softplus(lam, params.eps3, check=False, out=lam)
                dissipation_factor(x, out=x)
                x *= lam
                x *= e
                r = np.einsum("k...,k...->...", ab, ab, out=arena.empty(x.shape, dtype))
                r += 1.0
                np.sqrt(r, out=r)
                np.divide(x, r, out=r)
                ab *= r
                np.sum(np.matmul(M, _stacked(V), out=arena.empty(lead + (3, 6, n), dtype)), axis=-3,
                       out=np.swapaxes(gt[..., blk, :], -1, -2))
        # k waits for the division, so the lifted weights of ssdf._block
        # never meet it.
        _quotient(gt, sums[..., None], out=gt)
        gt *= params.k
    # Any non-finite entry of a block reaches these sums or the values.
    if not (np.isfinite(value).all() and np.isfinite(gt).all()):
        bad = ~(np.isfinite(value) & np.isfinite(gt).all(axis=-1)).all(axis=-1)
        raise NonFiniteContact(int(np.argmax(bad.reshape(-1))))
    return value, gt


def _once(x):
    """x with a repeated stack axis (stride 0: one body on every row) cut to
    its one row; any other array as it is."""
    return x[..., 0, :, :] if x.ndim > 2 and x.shape[-3] > 1 and x.strides[-3] == 0 else x


def _plane_matrices(cloud, params: ContactParams, geo, dtype, arena):
    """A posed cloud's three per-plane matrices, taken from arena, with one
    column per plane i: the SSDF matrix (..., 2, 4, I) of ssdf._ssdf_matrix;
    the force matrix (..., 3, 4, I) whose columns [e, v_i . e] / s, for
    e = n, t1, t2 and s = v_d, v_s, v_s, give x, alpha and beta against
    [u_q, -1]; and the moment matrix (..., 3, 6, I) of the columns
    c [e, (p_i - t) x e], c = 1, -mu, -mu, real where the pose is."""
    pts, nrm, tng, arms, vel = (_once(x) for x in (cloud.points, cloud.normals, cloud.tangents, cloud.arms,
                                                   cloud.velocities))
    lead, I = pts.shape[:-2], pts.shape[-2]
    S = _ssdf_matrix(pts, nrm, params.eps1, arena.empty(lead + (2, 4, I), geo))
    F = arena.empty(lead + (3, 4, I), dtype)
    M = arena.empty(lead + (3, 6, I), np.result_type(nrm, tng, arms))
    nrm, tng, arms = np.swapaxes(nrm, -1, -2), _columns(tng), _columns(arms)
    np.divide(nrm, params.v_d, out=F[..., 0, :3, :])
    np.divide(tng, params.v_s, out=F[..., 1:, :3, :])
    np.einsum("...ji,...kji->...ki", np.swapaxes(vel, -1, -2), F[..., :3, :], out=F[..., 3, :])
    M[..., 0, :3, :] = nrm
    np.multiply(tng, -params.mu, out=M[..., 1:, :3, :])
    np.multiply(arms, np.array([1.0, -params.mu, -params.mu])[:, None, None], out=M[..., 3:, :])
    return S, F, M


def _columns(x):
    """x (k, ..., I, 3) as (..., k, 3, I)."""
    return x.transpose(tuple(range(1, x.ndim - 2)) + (0, x.ndim - 1, x.ndim - 2))


def point_ssdf_force(aopc, p, v, J, params: ContactParams) -> np.ndarray:
    """Generalized force of one moving point against a posed AOPC.

    Each plane of the cloud exerts its point-plane force on the point, and
    the cloud body takes the reaction, weighted by the same softmin
    distribution the SSDF query at p uses: J^T f on the point (J is its
    (3, n) Jacobian) plus the cloud body's wrench. Returns a vector over the
    scene's generalized coordinates.
    """
    with _ARENA.scratch:
        _, gt = _query_sums(aopc, np.asarray(p)[None, :], np.asarray(v)[None, :], params)
        return np.asarray(J).T @ gt[0, :3] - aopc.wrench_force(gt[0])


def ssdf_ssdf_force(a, b, field: SeparationField, params: ContactParams) -> np.ndarray:
    """Total generalized contact force of a collision pair.

    The point-against-cloud forces of b's points in a's field and a's points
    in b's field are combined with the field's separation distribution,
    matching its concatenation order; nothing else of the field is read.
    Every pair force enters the two translation blocks as an
    equal-and-opposite (+lambda, -lambda) couple, so linear momentum is
    conserved by construction. For stacks of P pairs each body's wrench
    enters once per pair it is in; the result is the (n,) sum.
    """
    Ia, Ib = a.num_points, b.num_points
    if len(field) != Ia + Ib:
        raise ValueError(f"separation field length {len(field)} does not match AOPC pair ({Ib} + {Ia} points)")
    if field.eps1 != params.eps1 or field.eps2 != params.eps2:
        raise ValueError("separation field temperatures do not match the contact parameters")
    return _pair_contact(a, b, params, field.distribution)[0]


def _pair_contact(a, b, params: ContactParams, coeff=None):
    """(generalized force, separation values (..., I_b + I_a), separation
    distribution) of a pair or a stack of pairs, from one _query_sums pass
    per direction, whose sums live in the thread's arena for the call; the
    distribution is the softmax of the values unless coeff gives it.

    The query body takes (sum coeff g, sum coeff (p_q - t_q) x g) and the
    cloud body minus (sum coeff g, sum coeff tau): the spatial-force form of
    J^T f, whose two linear parts are the same sum.
    """
    Ib = b.num_points
    with _ARENA.scratch:
        value_ba, gt_ba = _query_sums(a, b.points, b.velocities, params)
        value_ab, gt_ab = _query_sums(b, a.points, a.velocities, params)
        values = np.concatenate([value_ba, value_ab], axis=-1)
        if coeff is None:
            coeff = softmax(-values, params.eps2)
        wrenches = []
        for query, c, gt in ((b, coeff[..., :Ib], gt_ba), (a, coeff[..., Ib:], gt_ab)):
            total = (c[..., None, :] @ gt)[..., 0, :]
            torque = moment(query.points - query.origin[..., None, :], c[..., None] * gt[..., :3])
            wrenches.append((np.concatenate([total[..., :3], torque], axis=-1), -total))
    (on_b, from_b), (on_a, from_a) = wrenches
    return a.wrench_force(on_a + from_b) + b.wrench_force(on_b + from_a), values, coeff

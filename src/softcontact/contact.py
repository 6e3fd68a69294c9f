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
the same code. So does a complex step of K directions: its matrices and
query rows are split into the one real part and K real tangents, and the
blocks carry the tangents beside the real arithmetic by the first-order rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import SeparationField
from .core import (_ARENA, _CHUNK_ENTRIES, Scratch, _broadcast, _check_step, _dual, _first_order, _parts, _quotient,
                   _softplus, _tangent_scale, check_temperature, dot, softmax, softplus, squared_norm)
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
    C1 at both joints, nonnegative everywhere. With c = clip(x, 0, 2) it is
    (c - 2)^2 / 4 - min(x, 0) and its slope (c - 2) / 2 on the whole line: a
    real x takes the value in six passes, and a complex-step x the value and
    slope of its real part through the first-order rule. The result is
    written into out when given (x itself allowed).
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return _dissipation(x, np.empty(x.shape, np.result_type(x, 2.0)) if out is None else out)
    with _ARENA.scratch as arena:
        slope = arena.empty(x.shape)
        return _first_order(x, _dissipation(x.real, arena.empty(x.shape), slope), slope, out)


def _dissipation(x, out, slope=None):
    """dissipation_factor of a real x, written into out (x itself allowed),
    and its slope into slope when given. A NaN stays NaN."""
    with _ARENA.scratch as arena:
        # min(x, 0) is taken before out may overwrite x.
        low = np.minimum(x, 0.0, out=arena.empty(x.shape))
        c = np.minimum(np.maximum(x, 0.0, out=out), 2.0, out=out)
        c -= 2.0
        if slope is not None:
            np.multiply(c, 0.5, out=slope)
        np.square(c, out=c)
        c *= 0.25
        c -= low
        return c


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


def _query_sums(cloud, points, velocities, params: ContactParams, out=None):
    """SSDF values and softmin-weighted point-plane sums of query points
    against a posed cloud, in one pass over blocks of queries.

    Query q, at points[q] moving at velocities[q], has softmin weights w_qi
    over the cloud's planes i and feels F_qi = point_plane_force against
    plane i. Returns value (..., Q), the SSDF sum_i w_qi phi_qi bit for bit
    as ssdf computes it (both run ssdf._block), and gt (..., Q, 6): g_q =
    sum_i w_qi F_qi beside tau_q = sum_i w_qi (p_i - t) x F_qi about the
    cloud's origin t; written into out = (value, gt), arrays of those shapes
    and dtypes, when given, else taken from the thread's arena in the
    caller's block. Raises NonFiniteContact if any of them is not finite.

    The constants ride in the three per-plane matrices of _plane_matrices,
    so the block's matmuls give the logits, -phi_qi, x = v_n / v_d and
    alpha, beta = v_t / v_s directly. With the unnormalised weights e of
    ssdf._block, W = e softplus(-phi, eps3) dissipation_factor(x) and
    r = W / sqrt(1 + alpha^2 + beta^2), one more matmul takes
    [W, alpha r, beta r] against the moment matrix, and the sums are
    divided by sum_i e_qi and scaled by k once per query. A side with one
    row (one body on every row of a stack) is broadcast by the matmuls
    against the other side's rows.

    Every block runs in real arithmetic. A complex step has its matrices
    and query rows split once into real parts and real tangents times a
    power of two (core._tangent_scale, core._dual); the blocks run the real
    code on the real parts and carry the tangents beside them by the
    first-order rule, and the complex (value, gt) is put back together once
    per query (core._parts). A batch of K directions that share one real part
    has a leading K axis on its complex arrays beyond cloud.dof_start's, as
    have value and gt where complex: the real part is computed once, and the
    tangent stages run on (K, I, ..., Q_block) arrays; one direction without
    that axis is K = 1. A step in q carries a tangent through the SSDF and
    the forces, one in v through the forces only. Each block's arrays hold
    at most _CHUNK_ENTRIES float64 entries' bytes, all K + 1 parts together.
    """
    I, Q = cloud.num_points, points.shape[-2]
    full = _broadcast(cloud.points.shape[:-2], points.shape[:-2], cloud.velocities.shape[:-2],
                               velocities.shape[:-2])
    nk = len(full) - np.ndim(cloud.dof_start)  # 1 with a batch's axis of K
    K, lead = full[0] if nk else 1, full[nk:]
    # The SSDF takes the geometry's dtype, as ssdf does; the forces the
    # common one.
    geo = np.result_type(cloud.points, cloud.normals, points)
    dtype = np.result_type(geo, cloud.arms, cloud.velocities, velocities)
    # Which of the SSDF and the forces carry a tangent.
    sq, sf = geo.kind == "c", dtype.kind == "c"
    arena = _ARENA.scratch
    value, gt = out or (arena.empty((K,) * (nk and sq) + lead + (Q,), geo),
                        arena.empty((K,) * (nk and sf) + lead + (Q, 6), dtype))
    with arena:
        # A complex step's matrices and rows are fresh arrays, dropped once
        # split; the arena holds the split ones. A posed group's matrices
        # come with the cloud, cut by row (dynamics._pose_groups).
        src = Scratch() if sf else arena
        S, F, M = cloud.planes or _plane_matrices(cloud, params, geo, dtype, src)
        rows = _query_rows(points, 1.0, src.empty(points.shape[:-2] + (4, Q), points.dtype))
        vel = _query_rows(velocities, -1.0, src.empty(velocities.shape[:-2] + (4, Q), velocities.dtype))
        # A moment matrix of an unmoved cloud has no tangent to carry.
        sm = np.iscomplexobj(M) and M.imag.any()
        # The SSDF's inputs carry a step in q on either body, the velocity
        # columns one in v.
        scale = _tangent_scale(*((S, rows) if sq else (F, vel))) if sf else 1.0

        def split(z, tangent_first=False):
            """z (K, ..., k, m), or without the axis of K, as core._dual's
            real (K, ..., 2k, m)."""
            stack = z.shape[nk * np.iscomplexobj(z):-2]
            return _dual(z, scale, arena.empty((K,) + stack + (2 * z.shape[-2], z.shape[-1])), tangent_first)

        if sq:
            S, rows = split(S), split(rows, True)
        if sf:
            F, vel = split(F), split(vel, True)
        if sm:
            M = split(M)
        elif np.iscomplexobj(M):
            M = np.ascontiguousarray(M.real[(0,) * nk])
        F0, vel0 = (F[0, ..., :4, :], vel[0, ..., 4:, :]) if sf else (F, vel)
        M0 = M[0, ..., :6, :] if sm else M
        # The real parts over the tangents of the values, sums and gt.
        val = _parts(value).reshape((2, K) + lead + (Q,)) if sq else value
        sums = (arena.empty(lead + (Q,)), arena.empty((K,) + lead + (Q,))) if sq else arena.empty(lead + (Q,))
        gts = _parts(gt).reshape((2, K) + lead + (Q, 6)) if sf else gt[None, None]
        step = max(1, _CHUNK_ENTRIES // ((1 + K * sf) * math.prod(lead) * I))
        for start in range(0, Q, step):
            blk = slice(start, start + step)
            n = min(Q, start + step) - start
            with arena:
                B = arena.empty((2 + 2 * K * sq, I) + lead + (n,))
                _block(S, rows[..., blk], (val[0, 0][..., blk], val[1][..., blk]) if sq else val[..., blk],
                       (sums[0][..., blk], sums[1][..., blk]) if sq else sums[..., blk], B, scale)
                e, lam = B[:2]
                V = arena.empty((3 + 3 * K * sf, I) + lead + (n,))
                np.matmul(F0.swapaxes(-1, -2), vel0[..., None, :, blk], out=_stacked(V[:3]))
                if sf:
                    dV = V[3:].reshape((K, 3) + V.shape[1:])
                    np.matmul(F.swapaxes(-1, -2), vel[..., None, :, blk], out=_stacked(dV, 1))
                x, ab = V[0], V[1:3]
                slope = arena.empty(x.shape) if sf else None
                if sq:
                    dB = B[2:].reshape((K, 2) + B.shape[1:])
                    de, dlam = dB[:, 0], dB[:, 1]
                    _check_step(dlam, params.eps3 * scale)
                _softplus(lam, params.eps3, out=lam, slope=slope if sq else None)
                if sq:
                    dlam *= slope
                _dissipation(x, out=x, slope=slope)
                if sf:
                    # dW = e softplus d(dissipation) + dissipation d(e softplus),
                    # the real factors multiplied out before they meet the K
                    # tangents.
                    dx, dab = dV[:, 0], dV[:, 1:]
                    slope *= lam
                    slope *= e
                    dx *= slope
                    if sq:
                        de *= np.multiply(lam, x, out=slope)
                        dlam *= np.multiply(e, x, out=slope)
                        dx += de
                        dx += dlam
                x *= lam
                x *= e
                r = np.einsum("k...,k...->...", ab, ab, out=arena.empty(x.shape))
                r += 1.0
                if sf:
                    # dr = (dW - W (alpha dalpha + beta dbeta) / s^2) / s, s^2 in r.
                    u = np.einsum("j...,kj...->k...", ab, dab, out=arena.empty(dx.shape))
                    u *= np.divide(x, r, out=slope)
                    np.subtract(dx, u, out=u)
                np.sqrt(r, out=r)
                if sf:
                    u /= r
                np.divide(x, r, out=r)
                if sf:
                    dab *= r
                    dab += np.multiply(ab, u[:, None], out=arena.empty(dab.shape))
                ab *= r
                G = np.matmul(M0, _stacked(V[:3]), out=arena.empty(lead + (3, 6, n)))
                G.sum(axis=-3, out=gts[0, 0][..., blk, :].swapaxes(-1, -2))
                if sf:
                    G = np.matmul(M0, _stacked(dV, 1), out=arena.empty((K,) + G.shape))
                    if sm:
                        G += np.matmul(M[..., 6:, :], _stacked(V[:3]), out=arena.empty(G.shape))
                    G.sum(axis=-3, out=gts[1][..., blk, :].swapaxes(-1, -2))
        # k waits for the division, so the lifted weights of ssdf._block
        # never meet it.
        _quotient(gts[0, 0], (sums[0] if sq else sums)[..., None], out=gts[0, 0], dnum=gts[1] if sf else None,
                  dden=sums[1][..., None] if sq else None)
        if sf:
            gts[0, 1:] = gts[0, :1]
        gts *= params.k
        if sf:
            gts[1] *= 1.0 / scale
        if sq:
            val[1] *= 1.0 / scale
            val[0, 1:] = val[0, :1]
    # Any non-finite entry of a block reaches these sums or the values.
    if not (np.isfinite(value).all() and np.isfinite(gt).all()):
        bad = ~(np.isfinite(value) & np.isfinite(gt).all(axis=-1)).all(axis=-1)
        raise NonFiniteContact(int(np.argmax(bad.reshape(-1))) % math.prod(lead))
    return value, gt


def _plane_matrices(cloud, params: ContactParams, geo, dtype, arena):
    """A posed cloud's three per-plane matrices, taken from arena, with one
    column per plane i: the SSDF matrix (..., 2, 4, I) of ssdf._ssdf_matrix;
    the force matrix (..., 3, 4, I) whose columns [e, v_i . e] / s, for
    e = n, t1, t2 and s = v_d, v_s, v_s, give x, alpha and beta against
    [u_q, -1]; and the moment matrix (..., 3, 6, I) of the columns
    c [e, (p_i - t) x e], c = 1, -mu, -mu, real where the pose is. The SSDF
    matrix takes dtype geo, the force matrix dtype."""
    pts, nrm, tng, arms, vel = cloud.points, cloud.normals, cloud.tangents, cloud.arms, cloud.velocities
    lead, I = pts.shape[:-2], pts.shape[-2]
    S = _ssdf_matrix(pts, nrm, params.eps1, arena.empty(lead + (2, 4, I), geo))
    F = arena.empty(_broadcast(lead, vel.shape[:-2]) + (3, 4, I), dtype)
    M = arena.empty(lead + (3, 6, I), np.result_type(nrm, tng, arms))
    nrm, tng, arms = nrm.swapaxes(-1, -2), _columns(tng), _columns(arms)
    np.divide(nrm, params.v_d, out=F[..., 0, :3, :])
    np.divide(tng, params.v_s, out=F[..., 1:, :3, :])
    np.einsum("...ji,...kji->...ki", vel.swapaxes(-1, -2), F[..., :3, :], out=F[..., 3, :])
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


def _pair_contact(a, b, params: ContactParams, coeff=None, sums=None):
    """(generalized force, separation values (..., I_b + I_a), separation
    distribution) of a pair or a stack of pairs, from one _query_sums pass
    per direction, b in a first, whose sums live in the thread's arena for
    the call; sums, when given, are the two passes' (value, gt) computed
    elsewhere. The distribution is the softmax of the values unless coeff
    gives it.

    The query body takes (sum coeff g, sum coeff (p_q - t_q) x g) and the
    cloud body minus (sum coeff g, sum coeff tau): the spatial-force form of
    J^T f, whose two linear parts are the same sum.
    """
    Ib = b.num_points
    with _ARENA.scratch:
        (value_ba, gt_ba), (value_ab, gt_ab) = sums or (_query_sums(a, b.points, b.velocities, params),
                                                        _query_sums(b, a.points, a.velocities, params))
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

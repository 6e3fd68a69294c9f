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
(Q_block, I) matrices: velocities are resolved in each plane's (n, t1, t2)
frame, and the softmin-weighted forces and their torques about the cloud's
origin are summed per query by matmuls against the frame axes and their
moment arms (p - t) x e, which posing rotates from the body frame. The
pair's force is linear in the separation distribution, so once both
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
from .core import _ARENA, _CHUNK_ENTRIES, check_temperature, dot, softmax, softplus, squared_norm
from .geometry import moment
from .ssdf import _block


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
    C1 at both joints, nonnegative everywhere. The result is written into
    out when given (x itself allowed).
    """
    x = np.asarray(x)
    xr = x.real
    dtype = np.result_type(x, 2.0)
    with _ARENA.scratch as arena:
        # Both selections and 1 - x are taken before out may overwrite x. A
        # NaN fails both tests and stays NaN.
        low = np.less_equal(xr, 0.0, out=arena.empty(x.shape, bool))
        high = np.greater(xr, 2.0, out=arena.empty(x.shape, bool))
        linear = np.subtract(1.0, x, out=arena.empty(x.shape, dtype))
        d = np.subtract(x, 2.0, out=np.empty(x.shape, dtype) if out is None else out)
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


def _query_sums(cloud, points, velocities, params: ContactParams):
    """SSDF values and softmin-weighted point-plane sums of query points
    against a posed cloud, in one pass over blocks of queries.

    Query q, at points[q] moving at velocities[q], has softmin weights w_qi
    over the cloud's planes i and feels F_qi = point_plane_force against
    plane i. Returns, taken from the thread's arena in the caller's block,
    value (..., Q), the SSDF sum_i w_qi phi_qi bit for bit as ssdf computes
    it (both run ssdf._block), and gt (..., Q, 6): g_q = sum_i w_qi F_qi
    beside tau_q = sum_i w_qi (p_i - t) x F_qi about the cloud's origin t.

    One matmul of [-1, u_q] against the rows [v_i . e, e] of _frame resolves
    the velocity of q against plane i in the plane's frame (n_i, t1_i, t2_i)
    into v_n, a and b, so |v_t|^2 = a^2 + b^2 has no cancellation; with
    scale = -mu lambda_n / sqrt(v_s^2 + a^2 + b^2), one more turns
    [w lambda_n, w scale a, w scale b] into (g, tau) against the frame axes
    and their posed moment arms. Each block's (..., Q_block, I) arrays hold
    at most _CHUNK_ENTRIES float64 entries' bytes.
    """
    I = cloud.num_points
    lead, Q = points.shape[:-2], points.shape[-2]
    # The SSDF takes the geometry's dtype, as ssdf does; the forces the
    # common one.
    geo = np.result_type(cloud.points, cloud.normals, points)
    dtype = np.result_type(geo, cloud.arms, cloud.velocities, velocities)
    arena = _ARENA.scratch
    value = arena.empty(lead + (Q,), geo)
    gt = arena.empty(lead + (Q, 6), dtype)
    with arena:
        frame = _frame(cloud, arena.empty((3,) + cloud.normals.shape[:-1] + (7,), dtype))
        rel, moments = np.swapaxes(frame[..., :4], -1, -2), frame[..., 1:]
        query_vel = arena.empty(velocities.shape[:-1] + (4,), dtype)
        query_vel[..., 0], query_vel[..., 1:] = -1.0, velocities
        step = max(1, _CHUNK_ENTRIES * 8 // (np.dtype(dtype).itemsize * math.prod(lead) * I))
        for start in range(0, Q, step):
            blk = slice(start, start + step)
            qp = points[..., blk, :]
            shape = qp.shape[:-1] + (I,)
            with arena:
                w, phi = arena.empty(shape, geo), arena.empty(shape, geo)
                _block(cloud, qp, params.eps1, value[..., blk], w, phi)
                vel = np.matmul(query_vel[..., blk, :], rel, out=arena.empty((3,) + shape, dtype))
                v_n, a, b = vel
                v_n /= params.v_d
                lam_n = np.negative(phi, out=arena.empty(shape, dtype), dtype=dtype)
                softplus(lam_n, params.eps3, check=False, out=lam_n)
                lam_n *= params.k
                lam_n *= dissipation_factor(v_n, out=v_n)
                # scale = -mu lambda_n / sqrt(v_s^2 + a^2 + b^2) in B, with v_n's
                # slot as the temporary; then v_n, a, b become w lambda_n,
                # w scale a and w scale b.
                B = np.multiply(a, a, out=arena.empty(shape, dtype))
                B += np.multiply(b, b, out=v_n)
                B += params.v_s**2
                np.sqrt(B, out=B)
                np.divide(np.multiply(-params.mu, lam_n, out=v_n), B, out=B)
                B *= w
                np.multiply(w, lam_n, out=v_n)
                a *= B
                b *= B
                np.sum(np.matmul(vel, moments, out=arena.empty((3,) + shape[:-1] + (6,), dtype)), axis=0,
                       out=gt[..., blk, :])
    return value, gt


def _frame(cloud, out):
    """The rows [v_i . e, e, (p_i - t) x e] (3, ..., I, 7), e = n, t1, t2."""
    out[0, ..., 1:4], out[1:, ..., 1:4], out[..., 4:] = cloud.normals, cloud.tangents, cloud.arms
    np.einsum("...ij,k...ij->k...i", cloud.velocities, out[..., 1:4], out=out[..., 0])
    return out


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

"""Soft-minimum contact model: spring-damper-friction point-plane forces,
softly selected over all point-plane pairs of a collision pair.

The normal force is a smooth penalty k * softplus(-phi) modulated by a
velocity-dependent dissipation factor; friction is a regularized Coulomb law
that always opposes sliding and stays inside the cone |f_t| <= mu * f_n.
Because the penalty never reaches exactly zero, bodies exert exponentially
small forces at a distance, which is what gives the dynamics informative
gradients before contact is made.

The pair force evaluates every point-plane entry of both directions with
(Q, I) matrices only: the softmin weights and plane distances come from the
separation field, velocities are resolved in each plane's (n, t1, t2) frame,
and the per-point forces are matmuls against the cloud's frame vectors. Each
body takes its per-point forces as one wrench (sum f, sum (p - t) x f) in its
6-DOF block, which is J^T f without the Jacobian. Stacks of P pairs (a
leading pair axis on every array) run through the same code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import SeparationField
# softmax stays bound here: perfbench/tracer.py wraps contact.softmax.
from .core import FRESH, check_temperature, dot, softmax, softplus, squared_norm  # noqa: F401
from .ssdf import SsdfResult, ssdf


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


def dissipation_factor(x, out=None, *, _scratch=FRESH):
    """Velocity modulation of the normal force, x = v_n / v_d.

    1 - x for x <= 0, (x - 2)^2 / 4 on (0, 2], and 0 beyond: continuous and
    C1 at both joints, nonnegative everywhere. The result is written into
    out when given (x itself allowed); _scratch (private) supplies the
    temporaries.
    """
    x = np.asarray(x)
    xr = x.real
    dtype = np.result_type(x, 2.0)
    with _scratch:
        # Both selections and 1 - x are taken before out may overwrite x. A
        # NaN fails both tests and stays NaN.
        low = np.less_equal(xr, 0.0, out=_scratch.empty(x.shape, bool))
        high = np.greater(xr, 2.0, out=_scratch.empty(x.shape, bool))
        linear = np.subtract(1.0, x, out=_scratch.empty(x.shape, dtype))
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
    p = np.asarray(p)
    v = np.asarray(v)
    plane_p = np.asarray(plane_p)
    plane_n = np.asarray(plane_n)
    phi = dot(plane_n, p - plane_p)
    c = params.k * softplus(-phi, params.eps3)
    v_n = dot(plane_n, v)
    v_t = v - v_n[..., None] * plane_n
    lam_n = c * dissipation_factor(v_n / params.v_d)
    scale = -params.mu * lam_n / np.sqrt(params.v_s**2 + squared_norm(v_t))
    return lam_n[..., None] * plane_n + scale[..., None] * v_t


def _point_forces(cloud, q_velocities, battery: SsdfResult, coeff, params: ContactParams, scratch=FRESH):
    """Softly selected point-plane forces between query points and a cloud.

    Query point q feels coeff_q sum_i w_qi lambda_qi, lambda_qi being
    point_plane_force against plane i of the posed cloud, with w and phi
    taken from the battery (the SSDF of the query points against the cloud);
    the cloud points take the reactions. Returns (f_query (Q, 3), f_cloud
    (I, 3)), which sum to zero (with a leading P axis for a stack).

    Only (Q, I) arrays are built. The relative velocity is resolved in each
    plane's frame (n_i, t1_i, t2_i) into v_n, a and b, so |v_t|^2 = a^2 + b^2
    has no cancellation, and with W = coeff w, C = W lambda_n and
    B = W scale, scale = -mu lambda_n / sqrt(v_s^2 + a^2 + b^2), the sums
    over i are the matmuls C @ n + (B a) @ t1 + (B b) @ t2; the sums over q
    are the column sums of the same matrices. The (Q, I) temporaries come
    from scratch.
    """
    nrm = cloud.normals
    t1, t2 = cloud.tangents
    vel = cloud.velocities
    # Every (Q, I) array takes the common dtype, so the passes below can
    # write in place.
    dtype = np.result_type(q_velocities, vel, nrm, battery.plane_distances, battery.weights, coeff)
    q_velocities = q_velocities.astype(dtype, copy=False)
    shape = battery.weights.shape

    def component(axes):
        out = np.matmul(q_velocities, np.swapaxes(axes, -1, -2), out=scratch.empty(shape, dtype))
        out -= np.sum(vel * axes, axis=-1)[..., None, :]
        return out

    with scratch:
        v_n, a, b = component(nrm), component(t1), component(t2)
        v_n /= params.v_d
        lam_n = np.negative(battery.plane_distances, out=scratch.empty(shape, dtype), dtype=dtype)
        softplus(lam_n, params.eps3, check=False, out=lam_n, _scratch=scratch)
        # Complex products keep their operand order: numpy's complex x * y and
        # y * x can round the imaginary part differently.
        np.multiply(params.k, lam_n, out=lam_n)
        lam_n *= dissipation_factor(v_n, out=v_n, _scratch=scratch)
        # B = W scale with scale = -mu lambda_n / r, r = sqrt(v_s^2 + a^2 + b^2);
        # W goes into v_n's buffer, C = W lambda_n into lambda_n's, B a and B b
        # into a's and b's.
        B = np.multiply(a, a, out=scratch.empty(shape, dtype))
        B += np.multiply(b, b, out=v_n)
        B += params.v_s**2
        np.sqrt(B, out=B)
        np.divide(np.multiply(-params.mu, lam_n, out=v_n), B, out=B)
        W = np.multiply(coeff[..., None], battery.weights, out=v_n)
        np.multiply(W, B, out=B)
        C = np.multiply(W, lam_n, out=lam_n)
        Ba = np.multiply(B, a, out=a)
        Bb = np.multiply(B, b, out=b)
        f_query = C @ nrm + Ba @ t1 + Bb @ t2
        f_cloud = -(C.sum(axis=-2)[..., None] * nrm + Ba.sum(axis=-2)[..., None] * t1 + Bb.sum(axis=-2)[..., None] * t2)
    return f_query, f_cloud


def point_ssdf_force(aopc, p, v, J, params: ContactParams) -> np.ndarray:
    """Generalized force of one moving point against a posed AOPC.

    Each plane of the cloud exerts its point-plane force on the point, and
    the cloud body takes the reaction, weighted by the same softmin
    distribution the SSDF query at p uses: J^T f on the point (J is its
    (3, n) Jacobian) plus the cloud body's wrench. Returns a vector over the
    scene's generalized coordinates.
    """
    battery = ssdf(aopc, np.asarray(p)[None, :], params.eps1)
    f_point, f_cloud = _point_forces(aopc, np.asarray(v)[None, :], battery, np.ones(1), params)
    return np.asarray(J).T @ f_point[0] + aopc.generalized_force(f_cloud)


def ssdf_ssdf_force(a, b, field: SeparationField, params: ContactParams, _scratch=FRESH) -> np.ndarray:
    """Total generalized contact force of a collision pair.

    The point-against-cloud forces of b's points in a's field and a's points
    in b's field are combined with the separation distribution, matching the
    field's concatenation order; the field's SSDF batteries supply the
    softmin weights and plane distances. Every pair force enters the two
    translation blocks as an equal-and-opposite (+lambda, -lambda) couple, so
    linear momentum is conserved by construction. For stacks of P pairs each
    body's wrench enters once per pair it is in; the result is the (n,) sum.
    _scratch (private) supplies the (Q, I) temporaries.
    """
    Ia, Ib = a.num_points, b.num_points
    if len(field) != Ia + Ib:
        raise ValueError(
            f"separation field length {len(field)} does not match AOPC pair ({Ib} + {Ia} points)"
        )
    if field.eps1 != params.eps1 or field.eps2 != params.eps2:
        raise ValueError("separation field temperatures do not match the contact parameters")
    coeff = field.distribution
    f_b, f_a = _point_forces(a, b.velocities, field.b_in_a, coeff[..., :Ib], params, _scratch)
    g_a, g_b = _point_forces(b, a.velocities, field.a_in_b, coeff[..., Ib:], params, _scratch)
    return a.generalized_force(f_a + g_a) + b.generalized_force(f_b + g_b)

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
and the per-point forces are matmuls against the cloud's frame vectors. They
are projected through the point Jacobians once per body.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import SeparationField
# softmax stays bound here: perfbench/tracer.py wraps contact.softmax.
from .core import check_temperature, dot, softmax, softplus, squared_norm  # noqa: F401
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
        if not self.k > 0:
            raise ValueError("stiffness k must be positive")
        if self.mu < 0:
            raise ValueError("friction coefficient must be nonnegative")
        if not (self.v_d > 0 and self.v_s > 0):
            raise ValueError("v_d and v_s must be positive")
        for name in ("eps1", "eps2", "eps3"):
            check_temperature(getattr(self, name), name)


def dissipation_factor(x):
    """Velocity modulation of the normal force, x = v_n / v_d.

    1 - x for x <= 0, (x - 2)^2 / 4 on (0, 2], and 0 beyond: continuous and
    C1 at both joints, nonnegative everywhere.
    """
    x = np.asarray(x)
    xr = x.real
    neg = xr <= 0.0
    return neg * (1.0 - x) + ((~neg) & (xr <= 2.0)) * ((x - 2.0) ** 2 / 4.0)


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


def _point_forces(cloud, q_velocities, battery: SsdfResult, coeff, params: ContactParams):
    """Softly selected point-plane forces between query points and a cloud.

    Query point q feels coeff_q sum_i w_qi lambda_qi, lambda_qi being
    point_plane_force against plane i of the posed cloud, with w and phi
    taken from the battery (the SSDF of the query points against the cloud);
    the cloud points take the reactions. Returns (f_query (Q, 3), f_cloud
    (I, 3)), which sum to zero.

    Only (Q, I) arrays are built. The relative velocity is resolved in each
    plane's frame (n_i, t1_i, t2_i) into v_n, a and b, so |v_t|^2 = a^2 + b^2
    has no cancellation, and with W = coeff w the sums over i are the matmuls
    (W lambda_n) @ n + (W scale a) @ t1 + (W scale b) @ t2; the sums over q
    are the column sums of the same matrices.
    """
    nrm = cloud.normals
    t1, t2 = cloud.tangents
    vel = cloud.velocities

    def component(axes):
        return q_velocities @ axes.T - np.sum(vel * axes, axis=-1)

    v_n, a, b = component(nrm), component(t1), component(t2)
    lam_n = params.k * softplus(-battery.plane_distances, params.eps3, check=False) * dissipation_factor(v_n / params.v_d)
    scale = -params.mu * lam_n / np.sqrt(params.v_s**2 + (a * a + b * b))
    W = coeff[:, None] * battery.weights
    C = W * lam_n
    B = W * scale
    Ba = B * a
    Bb = B * b
    f_query = C @ nrm + Ba @ t1 + Bb @ t2
    f_cloud = -(C.sum(axis=0)[:, None] * nrm + Ba.sum(axis=0)[:, None] * t1 + Bb.sum(axis=0)[:, None] * t2)
    return f_query, f_cloud


def point_ssdf_force(aopc, p, v, J, params: ContactParams) -> np.ndarray:
    """Generalized force of one moving point against a posed AOPC.

    Each plane of the cloud exerts its point-plane force on the point, and
    the cloud body takes the reaction: the contribution is (J - J_i)^T
    lambda_i, weighted by the same softmin distribution the SSDF query at p
    uses. Returns a vector over the scene's generalized coordinates.
    """
    battery = ssdf(aopc, np.asarray(p)[None, :], params.eps1)
    f_point, f_cloud = _point_forces(aopc, np.asarray(v)[None, :], battery, np.ones(1), params)
    return np.asarray(J).T @ f_point[0] + np.tensordot(f_cloud, aopc.jacobians, axes=2)


def ssdf_ssdf_force(a, b, field: SeparationField, params: ContactParams) -> np.ndarray:
    """Total generalized contact force of a collision pair.

    The point-against-cloud forces of b's points in a's field and a's points
    in b's field are combined with the separation distribution, matching the
    field's concatenation order; the field's SSDF batteries supply the
    softmin weights and plane distances. Every pair force enters the two
    translation blocks as an equal-and-opposite (+lambda, -lambda) couple, so
    linear momentum is conserved by construction.
    """
    Ia, Ib = a.num_points, b.num_points
    if len(field) != Ia + Ib:
        raise ValueError(
            f"separation field length {len(field)} does not match AOPC pair ({Ib} + {Ia} points)"
        )
    if field.eps1 != params.eps1 or field.eps2 != params.eps2:
        raise ValueError("separation field temperatures do not match the contact parameters")
    coeff = field.distribution
    f_b, f_a = _point_forces(a, b.velocities, field.b_in_a, coeff[:Ib], params)
    g_a, g_b = _point_forces(b, a.velocities, field.a_in_b, coeff[Ib:], params)
    # Each body's per-point forces go through its (I, 3, n) Jacobian once.
    return np.tensordot(f_a + g_a, a.jacobians, axes=2) + np.tensordot(f_b + g_b, b.jacobians, axes=2)

"""Independent oracles and derivative checkers for the smooth pipeline.

Two derivative routes are kept deliberately separate: central finite
differences (the independent oracle, never used by the library itself) and
complex-step differentiation (the implementation-provided algorithmic
derivative; every kernel in this package is written to be analytic under a
tiny imaginary perturbation, so the complex step is exact to machine
precision). The hard pipeline oracle realizes the zero-temperature limit of
collision detection and contact by brute force.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .collision import soft_separation_distance, separation_field
from .contact import point_plane_force
from .dynamics import Scene, SceneState, forward_dynamics, pose_all, total_contact_force
from .ssdf import hard_sdf


def fd_gradient(f, x, h=None):
    """Central-difference Jacobian of f at x, one column per coordinate.

    h defaults to 1e-6 * (1 + |x_i|) per coordinate. Scalar-valued f gives a
    (n,) gradient, vector-valued f an (m, n) matrix. Non-finite evaluations
    are reported with the offending input coordinate.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        hs = 1e-6 * (1.0 + np.abs(x))
    else:
        hs = np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
    if np.any(hs <= 0):
        raise ValueError("finite-difference step must be positive")
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = hs.flat[i]
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError(f"non-finite evaluation while perturbing coordinate {i}")
        cols.append((fp - fm) / (2.0 * hs.flat[i]))
    jac = np.stack(cols, axis=-1)
    return jac


def cs_gradient(f, x, h: float = 1e-30):
    """Complex-step Jacobian: Im f(x + i h e_j) / h, exact to machine
    precision for the analytic kernels in this package."""
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for i in range(n):
        xc = x.astype(complex)
        xc.flat[i] += 1j * h
        cols.append(np.asarray(f(xc)).imag / h)
    return np.stack(cols, axis=-1)


def cs_hessian_diag(f, x, delta=None, h: float = 1e-30):
    """Diagonal second derivatives of a scalar f: a central difference of the
    exact complex-step gradient (one cancellation-free differentiation plus
    one short difference)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if delta is None:
        delta = 1e-4 * (1.0 + np.abs(x))
    else:
        delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape).copy()
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta.flat[i]

        def gi(y):
            yc = y.astype(complex)
            yc.flat[i] += 1j * h
            return np.asarray(f(yc)).imag / h

        out[i] = (gi(x + e) - gi(x - e)) / (2.0 * delta.flat[i])
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------------------
# Pipeline-level checks


def flatten_state(state: SceneState) -> np.ndarray:
    return np.concatenate([np.asarray(state.q).ravel(), np.asarray(state.v)])


def unflatten_state(scene: Scene, state: SceneState, theta: np.ndarray) -> SceneState:
    nf = len(scene.free_indices)
    theta = np.asarray(theta)
    return SceneState(state.time, theta[: 7 * nf].reshape(nf, 7), theta[7 * nf :])


def pipeline_functions(scene: Scene, state: SceneState):
    """The three smooth maps checked for differentiability.

    Each entry maps a slice of the flattened free-body state to its output:
    the separation distance depends on poses only (its velocity gradient is
    identically zero), while contact force and forward dynamics are checked
    over poses and velocities together.
    """
    nf = len(scene.free_indices)
    n_pose = 7 * nf
    theta0 = flatten_state(state)

    def with_slice(theta_part, stop):
        full = theta0.astype(theta_part.dtype)
        full[:stop] = theta_part
        return unflatten_state(scene, state, full)

    def seps(theta_pose):
        st = with_slice(theta_pose, n_pose)
        world = pose_all(scene, st)
        out = [
            soft_separation_distance(
                separation_field(world[ia], world[ib], scene.params.eps1, scene.params.eps2)
            )
            for ia, ib in scene.pair_indices
        ]
        return np.stack(out)

    def contact(theta):
        return total_contact_force(scene, unflatten_state(scene, state, theta))

    def accel(theta):
        st = unflatten_state(scene, state, theta)
        return forward_dynamics(scene, st, scene.tau(st.time))

    return {
        "soft_separation_distance": (seps, theta0[:n_pose]),
        "total_contact_force": (contact, theta0),
        "forward_dynamics": (accel, theta0),
    }


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_coordinate: tuple
    step: float
    samples: int
    tol: float
    passed: bool
    per_function: dict = dc_field(default_factory=dict)
    rows: list = dc_field(default_factory=list)  # (function, out, in, provided, fd, rel)

    def text(self) -> str:
        lines = [
            "gradient check: %s" % ("PASS" if self.passed else "FAIL"),
            "  samples: %d   fd step scale: %g   tolerance: %g" % (self.samples, self.step, self.tol),
            "  max relative error: %.3e at %s" % (self.max_relative_error, (self.worst_coordinate,)),
        ]
        for name, err in self.per_function.items():
            lines.append("  %-26s max rel err %.3e" % (name, err))
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        lines = ["function,out_index,in_index,provided,fd,relative_error"]
        for fn, oi, ii, a, b, r in self.rows:
            lines.append("%s,%d,%d,%.17g,%.17g,%.17g" % (fn, oi, ii, a, b, r))
        return "\n".join(lines) + "\n"


def check_pipeline_gradients(scene: Scene, state: SceneState, h: float = 1e-6, tol: float = 1e-3) -> GradCheckReport:
    """Compare complex-step and central-difference derivatives of the soft
    separation distance, total contact force, and forward dynamics with
    respect to the free-body poses and velocities.

    The state should sit away from the dissipation-factor kinks (normal
    rates near 0 or 2 v_d) and softmin ties; `sample_nondegenerate_state`
    produces such states.
    """
    report = GradCheckReport(0.0, ("", 0, 0), h, 1, tol, True)
    for name, (fn, theta) in pipeline_functions(scene, state).items():
        hs = h * (1.0 + np.abs(theta))
        provided = np.atleast_2d(cs_gradient(fn, theta))
        oracle = np.atleast_2d(fd_gradient(fn, theta, hs))
        rel = relative_error(provided, oracle)
        report.per_function[name] = float(rel.max())
        for (oi, ii), r in np.ndenumerate(rel):
            report.rows.append((name, int(oi), int(ii), float(provided[oi, ii]), float(oracle[oi, ii]), float(r)))
        if rel.max() > report.max_relative_error:
            oi, ii = np.unravel_index(int(np.argmax(rel)), rel.shape)
            report.max_relative_error = float(rel.max())
            report.worst_coordinate = (name, int(oi), int(ii))
    report.passed = report.max_relative_error <= tol
    return report


def sample_nondegenerate_state(scene: Scene, rng: np.random.Generator, base: SceneState,
                               pos_scale: float = 0.1, vel_scale: float = 0.5,
                               margin: float = 0.05, max_tries: int = 200) -> SceneState:
    """Randomize the free-body state, rejecting samples where any
    significantly weighted point-plane pair sits near a dissipation kink."""
    nf = len(scene.free_indices)
    for _ in range(max_tries):
        q = base.q.copy()
        v = base.v.copy()
        q[:, :3] += pos_scale * rng.standard_normal((nf, 3))
        dq = rng.standard_normal((nf, 4)) * 0.2
        qq = q[:, 3:] + dq
        q[:, 3:] = qq / np.linalg.norm(qq, axis=1, keepdims=True)
        v = v + vel_scale * rng.standard_normal(scene.n)
        st = SceneState(base.time, q, v)
        if _state_clear_of_kinks(scene, st, margin):
            return st
    raise RuntimeError("could not sample a non-degenerate state")


def _state_clear_of_kinks(scene: Scene, state: SceneState, margin: float) -> bool:
    world = pose_all(scene, state)
    for ia, ib in scene.pair_indices:
        fld = separation_field(world[ia], world[ib], scene.params.eps1, scene.params.eps2)
        Ib = world[ib].num_points
        for cloud, qs, coeff, w in (
            (world[ia], world[ib], fld.distribution[:Ib], fld.b_in_a.weights),
            (world[ib], world[ia], fld.distribution[Ib:], fld.a_in_b.weights),
        ):
            v_n = qs.velocities @ cloud.normals.T - np.sum(cloud.velocities * cloud.normals, axis=-1)
            x = v_n / scene.params.v_d
            sig = (coeff[:, None] * w) > 1e-8
            if np.any(sig & ((np.abs(x) < margin) | (np.abs(x - 2.0) < margin))):
                return False
    return True


# ---------------------------------------------------------------------------
# Hard (zero-temperature) pipeline oracle


@dataclass(frozen=True)
class HardOracleResult:
    """separation: exact minimum over all hard point-against-cloud signed
    distances; witness: (pair index, owner surface, query face, nearest cloud
    face) of the global minimizer; force: generalized contact force with hard
    selection everywhere a softmin appears."""

    separation: float
    witness: tuple
    force: np.ndarray
    per_pair: list


def hard_pipeline_oracle(scene: Scene, state: SceneState) -> HardOracleResult:
    world = pose_all(scene, state)
    total = np.zeros(scene.n)
    best = np.inf
    witness = None
    per_pair = []
    for pidx, (ia, ib) in enumerate(scene.pair_indices):
        a, b = world[ia], world[ib]
        val_ba, idx_ba = hard_sdf(a, b.points)
        val_ab, idx_ab = hard_sdf(b, a.points)
        values = np.concatenate([val_ba, val_ab])
        f_star = int(np.argmin(values))
        pair_min = float(values[f_star])
        Ib = b.num_points
        if f_star < Ib:
            q, cloud, qi, ci = b, a, f_star, int(idx_ba[f_star])
            owner = 2
        else:
            q, cloud, qi, ci = a, b, f_star - Ib, int(idx_ab[f_star - Ib])
            owner = 1
        lam = point_plane_force(
            q.points[qi],
            q.velocities[qi] - cloud.velocities[ci],
            cloud.points[ci],
            cloud.normals[ci],
            scene.params,
        )
        force = (q.jacobians[qi] - cloud.jacobians[ci]).T @ lam
        total += force
        per_pair.append((pair_min, (pidx, owner, qi, ci), force))
        if pair_min < best:
            best = pair_min
            witness = (pidx, owner, qi, ci)
    return HardOracleResult(best, witness, total, per_pair)

"""Independent oracles and derivative checkers for the smooth pipeline.

Two derivative routes are kept deliberately separate: central finite
differences (the independent oracle, never used by the library itself) and
complex-step differentiation (the implementation-provided algorithmic
derivative; every kernel in this package is written to be analytic under a
tiny imaginary perturbation, so the complex step is exact to machine
precision, and softplus and softmax take it through the first-order rule at
real cost). The pipeline check differentiates one map with both routes, on
the available CPUs: central differences evaluate contact once per perturbed
state, the complex step once per batch of directions (a body's pose or its
velocity), which share one real part.
The hard pipeline oracle realizes the zero-temperature limit of collision
detection and contact by brute force.
"""
from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field as dc_field

try:
    import resource
except ImportError:  # not on every platform: contact_count_timing then counts no faults
    resource = None

import numpy as np

from .contact import point_plane_force
from .core import _fork, _may_fork, softmax
from .dynamics import (Scene, SceneState, _pair_walk, _separation_force_acceleration, pose_all, rollout,
                       separated_state, step)
# Bound here for perfbench/tracer.py, which wraps them as verify attributes.
from .collision import separation_field  # noqa: F401
from .dynamics import forward_dynamics, total_contact_force  # noqa: F401
from .ssdf import _ssdf_blocks, hard_sdf


def _map_columns(column, n: int) -> list:
    """[column(i) for i in range(n)] on min(n, available CPUs) processes.

    The caller computes columns 0, T, 2T, ... and forked child k columns k,
    k + T, ..., sent back over a pipe; so column must be pure, as nothing it
    changes in a child reaches the caller. The result is the serial loop's
    bit for bit. A child reports only its first failing column; the caller
    evaluates the lowest one again, raising the error a serial loop would.
    A child that dies without a complete report raises RuntimeError, and
    every child is reaped before this returns or raises. Where core._may_fork
    refuses, or n < 2, it is serial.
    """
    if n < 2 or not _may_fork():
        return [column(i) for i in range(n)]
    workers = min(n, len(os.sched_getaffinity(0)))

    def share(k):  # k's columns up to its first failing one, and that one
        done = []
        for i in range(k, n, workers):
            try:
                done.append(column(i))
            except Exception:
                return done, i
        return done, None

    children = []  # (pid, read end of its pipe) of child k at k - 1
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = _fork()
            if pid == 0:  # the child leaves only through os._exit
                try:
                    with open(w, "wb") as pipe:
                        pickle.dump(share(k), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb")))
        reports = [share(0)] + [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for _, pipe in children:
            pipe.close()
    for k, status in enumerate(statuses, 1):
        if status:
            raise RuntimeError(f"the worker for columns {list(range(k, n, workers))} exited with status {status}")
    reports[1:] = map(pickle.loads, reports[1:])
    failed = [i for _, i in reports if i is not None]
    if failed:
        column(min(failed))
        raise RuntimeError(f"column {min(failed)} failed in a worker process only")
    return [reports[i % workers][0][i // workers] for i in range(n)]


def _steps(x, h, scale):
    """Per-coordinate steps for x: scale (1 + |x_i|) when h is None, else h
    broadcast to x's shape. Raises ValueError unless every step is positive
    and finite."""
    hs = scale * (1.0 + np.abs(x)) if h is None else np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
    bad = ~(np.isfinite(hs) & (hs > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"step {float(hs.flat[i])!r} for coordinate {i} is not positive and finite")
    return hs


def fd_gradient(f, x, h=None):
    """Central-difference Jacobian of f at x, one column per coordinate.

    h defaults to 1e-6 * (1 + |x_i|) per coordinate. Scalar-valued f gives a
    (n,) gradient, vector-valued f an (m, n) matrix. Non-finite evaluations
    are reported with the offending input coordinate. The columns are spread
    over the available CPUs (_map_columns), so f must be pure; the result is
    the serial loop's bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    hs = _steps(x, h, 1e-6)

    def column(i):
        e = np.zeros(x.shape)
        e.flat[i] = hs.flat[i]
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError(f"non-finite evaluation while perturbing coordinate {i}")
        return (fp - fm) / (2.0 * hs.flat[i])

    return np.stack(_map_columns(column, n), axis=-1)


def _cs_column(f, x, i, h):
    """Im f(x + i h e_i) / h: column i of the complex-step Jacobian of f at
    a real x."""
    xc = x.astype(complex)
    xc.flat[i] += 1j * h
    return np.asarray(f(xc)).imag / h


def _check_h(h):
    """Reject a complex step h that is not positive and finite."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h!r}")


def cs_gradient(f, x, h: float = 1e-30, batches=None):
    """Complex-step Jacobian: Im f(x + i h e_j) / h, exact to machine
    precision for the analytic kernels in this package. As in fd_gradient,
    the columns are spread over the available CPUs, with the serial loop's
    result bit for bit. batches, index arrays that partition the
    coordinates of a 1-D x, takes the columns of each from one evaluation
    of f on the (K, n) stack of the states x + i h e_j, j in the batch,
    which share one real part; f must then map it to (K, ...). The batches
    are spread over the CPUs instead."""
    _check_h(h)
    x = np.asarray(x, dtype=float)
    if batches is None:
        return np.stack(_map_columns(lambda i: _cs_column(f, x, i, h), x.size), axis=-1)
    if x.ndim != 1 or not np.array_equal(np.sort(np.concatenate(batches)), np.arange(x.size)):
        raise ValueError("batches must partition the coordinates of a 1-D x")

    def batch(k):
        xc = np.repeat(x[None].astype(complex), len(batches[k]), axis=0)
        xc[np.arange(len(batches[k])), batches[k]] += 1j * h
        return np.moveaxis(np.asarray(f(xc)).imag, 0, -1) / h

    blocks = _map_columns(batch, len(batches))
    jac = np.empty(blocks[0].shape[:-1] + x.shape)
    for cols, block in zip(batches, blocks):
        jac[..., cols] = block
    return jac


def cs_hessian_diag(f, x, delta=None, h: float = 1e-30):
    """Diagonal second derivatives of a scalar f: a central difference of the
    exact complex-step gradient (one cancellation-free differentiation plus
    one short difference). delta defaults to 1e-4 * (1 + |x_i|) per
    coordinate. As in cs_gradient, the entries are spread over the available
    CPUs, with the serial loop's result bit for bit."""
    _check_h(h)
    x = np.asarray(x, dtype=float)
    delta = _steps(x, delta, 1e-4)

    def entry(i):
        e = np.zeros(x.shape)
        e.flat[i] = delta.flat[i]
        return (_cs_column(f, x + e, i, h) - _cs_column(f, x - e, i, h)) / (2.0 * delta.flat[i])

    return np.array(_map_columns(entry, x.size), dtype=float)


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
    return SceneState(state.time, theta[..., : 7 * nf].reshape(theta.shape[:-1] + (nf, 7)), theta[..., 7 * nf :])


def _checked_map(scene: Scene, state: SceneState):
    """The flattened state; the gradient check's map of it to the soft
    separation distances, total contact force and forward dynamics under
    scene.tau, from one contact evaluation; and each function's (rows,
    columns) block of the map's Jacobian. The separation's keeps the pose
    columns only, as its velocity gradient is identically zero. The map
    also takes a batch (K, n) of complex-step states that share one real
    part, in one contact evaluation, and returns (K, m)."""
    n_pairs, n_pose = len(scene.pair_indices), 7 * len(scene.free_indices)

    def joint(theta):
        return np.concatenate(_separation_force_acceleration(scene, unflatten_state(scene, state, theta)), axis=-1)

    blocks = {
        "soft_separation_distance": (slice(0, n_pairs), slice(0, n_pose)),
        "total_contact_force": (slice(n_pairs, n_pairs + scene.n), slice(None)),
        "forward_dynamics": (slice(n_pairs + scene.n, None), slice(None)),
    }
    return flatten_state(state), joint, blocks


def pipeline_functions(scene: Scene, state: SceneState):
    """The three smooth maps the gradient check covers, one by one: its map
    restricted to each function's block, as (map of the block's columns of
    the flattened state, the others held at state's; their value at state)."""
    theta0, joint, blocks = _checked_map(scene, state)

    def restricted(rows, cols):
        def f(x):
            theta = theta0.astype(np.result_type(theta0, x))
            theta[cols] = x
            return joint(theta)[rows]
        return f, theta0[cols]

    return {name: restricted(*block) for name, block in blocks.items()}


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

    All three come from one map of the flattened state, differentiated once
    by each route: central differences with the steps h (1 + |theta_i|), one
    contact evaluation per perturbed state, and the complex step in batches
    fixed by the scene, each free body's pose block and then each one's
    velocity block, one contact evaluation per batch. Its rows
    are then split into the three functions, the separation keeping its
    pose columns only. The state should sit away from
    the dissipation-factor kinks (normal rates near 0 or 2 v_d) and softmin
    ties; `sample_nondegenerate_state` produces such states.
    """
    if not (np.isfinite(h) and h > 0 and np.isfinite(tol) and tol >= 0):
        raise ValueError(f"need a finite h > 0 and a finite tol >= 0, got h={h!r}, tol={tol!r}")
    theta, joint, blocks = _checked_map(scene, state)
    # Each body's 7 pose coordinates, then each one's 6 velocity ones: pose
    # batches first, so the round robin of _map_columns gives every process
    # a share of both kinds, whatever the CPU count.
    nf = len(scene.free_indices)
    jac_cs = cs_gradient(joint, theta, 1e-30, np.split(np.arange(theta.size), np.cumsum([7] * nf + [6] * nf)[:-1]))
    jac_fd = fd_gradient(joint, theta, h * (1.0 + np.abs(theta)))
    report = GradCheckReport(0.0, ("", 0, 0), h, 1, tol, True)
    for name, block in blocks.items():
        provided, oracle = jac_cs[block], jac_fd[block]
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
    significantly weighted point-plane pair sits near a dissipation kink.
    Raises ValueError for a pos_scale, vel_scale or margin that is not
    finite and nonnegative, or a max_tries that is not a positive integer."""
    for name, value in (("pos_scale", pos_scale), ("vel_scale", vel_scale), ("margin", margin)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    if not isinstance(max_tries, (int, np.integer)) or max_tries < 1:
        raise ValueError(f"max_tries must be a positive integer, got {max_tries!r}")
    nf = len(scene.free_indices)
    for _ in range(max_tries):
        q = base.q.copy()
        q[:, :3] += pos_scale * rng.standard_normal((nf, 3))
        qq = q[:, 3:] + rng.standard_normal((nf, 4)) * 0.2
        q[:, 3:] = qq / np.linalg.norm(qq, axis=1, keepdims=True)
        v = base.v + vel_scale * rng.standard_normal(scene.n)
        st = SceneState(base.time, q, v)
        if _state_clear_of_kinks(scene, st, margin):
            return st
    raise RuntimeError("could not sample a non-degenerate state")


def _state_clear_of_kinks(scene: Scene, state: SceneState, margin: float) -> bool:
    """False when a point-plane entry that weighs over 1e-8 in its pair force
    (separation weight of the query times softmin weight of the plane) has
    x = v_n / v_d within margin of a dissipation kink, 0 or 2. One walk of
    ssdf's blocks (_ssdf_blocks) per direction keeps each query's SSDF value
    and its peak, the largest softmin weight over its planes near a kink;
    the separation weight is nonnegative and rounding monotone, so testing
    it times the peak decides as testing every entry does."""
    params = scene.params
    for _, _, a, b in _pair_walk(scene, state):
        values, peaks = [], []
        for cloud, qs in ((a, b), (b, a)):
            cloud_speed = np.sum(cloud.velocities * cloud.normals, axis=-1)[..., None, :]
            for sl, value, sums, (e, *_) in _ssdf_blocks(cloud, qs.points, params.eps1):
                x = np.matmul(qs.velocities[..., sl, :], np.swapaxes(cloud.normals, -1, -2))  # v_n / v_d
                x -= cloud_speed
                x /= params.v_d
                near = np.moveaxis((np.abs(x) < margin) | (np.abs(x - 2.0) < margin), -1, 0)
                values.append(value)
                peaks.append(np.max(e / sums * near, axis=0))  # e / sums: ssdf's weights, planes first
        coeff = softmax(-np.concatenate(values, axis=-1), params.eps2)
        if np.any(coeff * np.concatenate(peaks, axis=-1) > 1e-8):
            return False
    return True


def _minor_faults() -> float:
    """Minor page faults of this process so far; NaN without `resource`."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else float("nan")


def contact_count_timing(scene: Scene, state: SceneState, dt: float, pairs: int, integrator: str = "rk4",
                         through_rollout: bool = False):
    """Claim (iii)'s measurement: steps from state, in contact, alternate
    with steps from separated_state(scene, state), the same work with no
    pair near contact, separated first, after one warm-up step of each, so
    drift in machine speed cancels out of each pair's ratio separated /
    contact. through_rollout takes each step as a one-step rollout, with the
    scene's contact helper where a fork is allowed. Returns each variant's
    seconds per step (pairs,) and mean minor page faults per step."""
    if not isinstance(pairs, (int, np.integer)) or pairs < 1:
        raise ValueError(f"pairs must be a positive integer, got {pairs!r}")
    states = {"separated": separated_state(scene, state), "contact": state}
    run = ((lambda st: rollout(scene, st, dt, 1, integrator, record_separation=False)) if through_rollout
           else (lambda st: step(scene, st, dt, integrator)))
    for st in states.values():
        run(st)
    times, faults = {variant: np.empty(pairs) for variant in states}, dict.fromkeys(states, 0.0)
    for k in range(pairs):
        for variant, st in states.items():
            f0, t0 = _minor_faults(), time.perf_counter()
            run(st)
            times[variant][k] = time.perf_counter() - t0
            faults[variant] += _minor_faults() - f0
    return times, {variant: n / pairs for variant, n in faults.items()}


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
        # lam on query point qi, -lam on cloud point ci, as body wrenches.
        f_q, f_cloud = np.zeros(q.points.shape, lam.dtype), np.zeros(cloud.points.shape, lam.dtype)
        f_q[qi], f_cloud[ci] = lam, -lam
        force = q.generalized_force(f_q) + cloud.generalized_force(f_cloud)
        total += force
        per_pair.append((pair_min, (pidx, owner, qi, ci), force))
        if pair_min < best:
            best = pair_min
            witness = (pidx, owner, qi, ci)
    return HardOracleResult(best, witness, total, per_pair)

"""The benchmark's workloads, built from a seed through softcontact's public API.

Each workload runs closed-loop operations, one after the other, and checks
every operation it runs:

- stack_rollout: an RK4 rollout of configs/stacked_boxes.json with the
  minimum separation recorded, as `softcontact simulate` runs it. Two
  144-point boxes in face-face overlap; the pair force dominates the step.
- box_pile_rollout: 16 free 24-point boxes in a jittered 4x4 grid resting on
  a kinematic ground, 40 pairs and 96 DOF. Many small kernel calls, so
  per-pair overhead, separation_field, posing with dense Jacobians and
  dynamics assembly dominate.
- gradcheck: check_pipeline_gradients on configs/sphere_pair.json at states
  drawn from the seed. Complex-step runs every kernel in complex128.

The seed only reaches the inputs: the box-pile jitter and the gradcheck
states. The stack scene is the bundled config and does not depend on it.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("stack_rollout", "box_pile_rollout", "gradcheck")

# RK4 steps per rollout operation. Every operation restarts from the same
# initial state, so its final state can be checked against the reference.
ROLLOUT_STEPS = {"stack_rollout": 25, "box_pile_rollout": 4}

# The box-pile jitter comes from layout seed % PILE_LAYOUTS; reference.json
# holds the final state of every layout.
PILE_LAYOUTS = 32
PILE_GRID = 4
PILE_BOX_SIZE = 0.2
PILE_BOX_RESOLUTION = 24
PILE_PITCH = 0.21
PILE_GROUND_SIZE = (1.6, 1.6, 0.2)
PILE_GROUND_RESOLUTION = 96
PILE_JITTER_XY = 0.003
PILE_JITTER_YAW = 0.03
PILE_SINK = 0.004
PILE_DT = 0.002

# Correctness bounds. A rollout's final q and v must match the reference
# entry by entry within STATE_ATOL (m, unit quaternion, m/s, rad/s): a
# perturbation of 1e-13 in the initial state moves the final state by about
# 1e-12, so this leaves room for reordered floating-point sums and none for
# a changed force. Penetration stays under MAX_PENETRATION_M in every rollout
# (the reference rollouts reach 5 mm on both scenes).
STATE_ATOL = 1e-8
MAX_PENETRATION_M = 0.008

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class SetupError(RuntimeError):
    """The checkout does not hold the package or the configs the benchmark needs."""


def load_package(root: str):
    """Import softcontact from root/src, never from anywhere else."""
    pkg_dir = os.path.join(root, "src", "softcontact")
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        raise SetupError(f"no softcontact package under {os.path.join(root, 'src')}")
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import softcontact

    if os.path.dirname(os.path.abspath(softcontact.__file__)) != os.path.abspath(pkg_dir):
        raise SetupError(f"softcontact was imported from {softcontact.__file__}, not {pkg_dir}")
    return softcontact


def module(name: str):
    """A softcontact submodule. Attribute access on the package does not work
    for all of them: softcontact.ssdf is the function, not the module."""
    return importlib.import_module("softcontact." + name)


def load_reference(path: str = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass
class OpResult:
    """One closed-loop operation.

    seconds: its wall time; unit_seconds: the wall time of each unit of work
    in it (RK4 step intervals on the rollouts, the whole check on gradcheck);
    errors: why it failed, empty when it passed; probe_s: the speed probe's
    time around it, when run.py measured one.
    """

    seconds: float
    unit_seconds: list
    errors: list = field(default_factory=list)
    max_rel_err: float = 0.0
    probe_s: float = 0.0


def check_final_state(q, v, max_penetration: float, ref: dict, atol: float = STATE_ATOL) -> list:
    """Compare a rollout's final state with its reference; return the failures."""
    errors = []
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, got in (("q", q), ("v", v)):
        want = np.asarray(ref[name], dtype=float)
        if got.shape != want.shape:
            errors.append(f"final {name} has shape {got.shape}, reference {want.shape}")
            continue
        if not np.isfinite(got).all():
            errors.append(f"final {name} is not finite")
            continue
        dev = np.abs(got - want)
        if dev.max() > atol:
            idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            errors.append(f"final {name}{list(idx)} deviates from the reference by {dev.max():.3e} > {atol:g}")
    if not max_penetration <= MAX_PENETRATION_M:
        errors.append(f"max penetration {max_penetration:.4g} m exceeds {MAX_PENETRATION_M:g} m")
    return errors


def separated_state(scene, state):
    """The same state with every free body moved far out along +x, so no
    pair is near contact (the cmd_bench 'separated' variant)."""
    st = state.copy()
    span = max(float(np.abs(b.aopc.points).max()) for b in scene.bodies)
    for k in range(st.q.shape[0]):
        st.q[k, 0] += 40.0 * (k + 1) * max(span, 1.0)
    return st


def describe(scene) -> dict:
    """Problem size: points per body, pairs, DOF, and point-plane entries
    (Q*I over both directions of every pair) per contact evaluation."""
    pts = [b.aopc.num_points for b in scene.bodies]
    entries = sum(2 * pts[ia] * pts[ib] for ia, ib in scene.pair_indices)
    per_body = sorted(set(pts))
    return {
        "bodies": len(pts),
        "points_per_body": per_body if len(per_body) > 1 else per_body[0],
        "pairs": len(scene.pair_indices),
        "dof": scene.n,
        "qi_entries_per_contact_eval": entries,
    }


class RolloutWorkload:
    """Repeated RK4 rollouts of ROLLOUT_STEPS[name] steps from one state."""

    unit = "RK4 step"

    def __init__(self, name, scene, state, dt, reference):
        self.name = name
        self.scene = scene
        self.state = state
        self.dt = dt
        self.n_steps = ROLLOUT_STEPS[name]
        self.reference = reference
        self.contact_state = state

    def warm_up(self):
        module("dynamics").step(self.scene, self.state, self.dt, "rk4")

    def prepare(self):
        return None

    def operation(self, _input=None, probe=None) -> OpResult:
        """One rollout. Its step times are the intervals between successive
        `step` returns inside `rollout`, the first one measured from the
        call, so each interval holds one step and one separation record."""
        dynamics = module("dynamics")
        inner = dynamics.step
        stamps = []

        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        dynamics.step = stamped
        try:
            t0 = time.perf_counter()
            try:
                result = dynamics.rollout(self.scene, self.state, self.dt, self.n_steps, "rk4", record_separation=True)
            except dynamics.DivergenceError as e:
                t1 = time.perf_counter()
                return OpResult(t1 - t0, list(np.diff([t0] + stamps)) or [t1 - t0], [f"diverged: {e}"])
            t1 = time.perf_counter()
        finally:
            dynamics.step = inner
        final = result.states[-1]
        errors = check_final_state(final.q, final.v, result.max_penetration, self.reference)
        return OpResult(t1 - t0, list(np.diff([t0] + stamps)), errors)


class GradcheckWorkload:
    """Repeated check_pipeline_gradients calls at states drawn from the seed,
    drawn as `softcontact gradcheck` draws them."""

    unit = "gradient check"

    def __init__(self, scene, state, dt, seed):
        self.name = "gradcheck"
        self.scene = scene
        self.state = state
        self.dt = dt
        self.rng = np.random.default_rng(seed)
        # The config's spheres sit 0.35 m apart; this state overlaps them by
        # 5 cm for the contact-count independence ratio.
        st = state.copy()
        st.q[1, 1] = 0.8
        self.contact_state = st

    def warm_up(self):
        st = self.state.copy()
        st.v = st.v.astype(complex)
        module("dynamics").forward_dynamics(self.scene, st)

    def prepare(self):
        verify = module("verify")
        return verify.sample_nondegenerate_state(self.scene, self.rng, self.state, vel_scale=self.scene.params.v_d)

    def operation(self, state, probe=None) -> OpResult:
        """One check. A check runs for seconds, longer than the machine holds
        one speed, so with a speed probe it also probes after each of its six
        cs_gradient/fd_gradient calls. The probe time is left out of the
        check's time, and probe_s weights each part by its own probe."""
        verify = module("verify")
        marks = []  # (end of a part, probe seconds, end of the probe)
        saved = [(name, getattr(verify, name)) for name in ("cs_gradient", "fd_gradient")] if probe else []

        def probed(inner):
            def call(*args, **kwargs):
                out = inner(*args, **kwargs)
                t = time.perf_counter()
                marks.append((t, probe(), time.perf_counter()))
                return out
            return call

        for name, inner in saved:
            setattr(verify, name, probed(inner))
        try:
            t0 = time.perf_counter()
            report = verify.check_pipeline_gradients(self.scene, state)
            t1 = time.perf_counter()
        finally:
            for name, inner in saved:
                setattr(verify, name, inner)
        start, parts = t0, []
        for end, probe_s, resume in marks:
            parts.append((end - start, probe_s))
            start = resume
        if parts:
            parts[-1] = (parts[-1][0] + t1 - start, parts[-1][1])
        seconds = sum(p for p, _ in parts) if parts else t1 - t0
        errors = []
        if not report.passed:
            errors.append(f"gradient check failed: {report.max_relative_error:.3e} at {report.worst_coordinate} > tol {report.tol:g}")
        op = OpResult(seconds, [seconds], errors, report.max_relative_error)
        if parts:
            op.probe_s = seconds / sum(p / s for p, s in parts)
        return op


def pile_scene(seed: int):
    """16 free boxes in a jittered 4x4 grid on a kinematic ground, with every
    box-ground pair and every pair of grid neighbours. Returns (scene, state)."""
    sc = sys.modules["softcontact"]
    geometry = module("geometry")
    rng = np.random.default_rng(seed % PILE_LAYOUTS)
    s = PILE_BOX_SIZE
    box = geometry.generate_primitive("box", [s, s, s], PILE_BOX_RESOLUTION, name="box")
    ground = geometry.generate_primitive("box", list(PILE_GROUND_SIZE), PILE_GROUND_RESOLUTION, name="ground")
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    ground_pose = sc.Pose(np.array([0.0, 0.0, -PILE_GROUND_SIZE[2] / 2]), identity)
    bodies = [sc.Body("ground", ground, "kinematic", motion=sc.StaticMotion(ground_pose))]
    pairs, poses = [], {}
    inertia = sc.box_inertia(1.0, [s, s, s])
    for i in range(PILE_GRID):
        for j in range(PILE_GRID):
            name = f"box{i}{j}"
            bodies.append(sc.Body(name, box, "free", mass=1.0, inertia=inertia))
            xy = (np.array([i, j]) - (PILE_GRID - 1) / 2) * PILE_PITCH + rng.uniform(-PILE_JITTER_XY, PILE_JITTER_XY, 2)
            yaw = rng.uniform(-PILE_JITTER_YAW, PILE_JITTER_YAW)
            quat = np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])
            poses[name] = sc.Pose(np.array([xy[0], xy[1], s / 2 - PILE_SINK]), quat)
            pairs.append(("ground", name))
    for i in range(PILE_GRID):
        for j in range(PILE_GRID):
            if i + 1 < PILE_GRID:
                pairs.append((f"box{i}{j}", f"box{i + 1}{j}"))
            if j + 1 < PILE_GRID:
                pairs.append((f"box{i}{j}", f"box{i}{j + 1}"))
    params = sc.ContactParams(k=2000.0, mu=0.5, v_d=0.1, v_s=0.02, eps1=1e-4, eps2=1e-3, eps3=1e-3)
    scene = sc.Scene(bodies, pairs, params=params)
    return scene, sc.make_state(scene, poses)


def build(name: str, seed: int, root: str, reference: dict | None = None):
    """Build a workload's scene and inputs from the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if name == "box_pile_rollout":
        scene, state = pile_scene(seed)
        ref = reference["box_pile_rollout"][seed % PILE_LAYOUTS] if reference else None
        return RolloutWorkload(name, scene, state, PILE_DT, ref)
    config = module("config")
    cfg_name = "stacked_boxes.json" if name == "stack_rollout" else "sphere_pair.json"
    cfg_path = os.path.join(root, "configs", cfg_name)
    if not os.path.isfile(cfg_path):
        raise SetupError(f"missing scene config {cfg_path}")
    cfg = config.load_config(cfg_path)
    if name == "stack_rollout":
        ref = reference["stack_rollout"] if reference else None
        return RolloutWorkload(name, cfg.scene, cfg.state, cfg.world.dt, ref)
    return GradcheckWorkload(cfg.scene, cfg.state, cfg.world.dt, seed)

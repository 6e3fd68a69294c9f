"""Acceptance suite: one test per criterion, each printing a pass line and
holding its runtime budget. Tolerances are pinned here, not configurable."""
import os
import select
import signal
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from softcontact.collision import (
    contact_points,
    separation_field,
    soft_separation_distance,
    soft_top_k,
    vertex_weights,
)
from softcontact.config import load_config
from softcontact.contact import ContactParams
from softcontact.core import quat_from_rotvec, quat_normalize, softplus
from softcontact.dynamics import (
    Body,
    Scene,
    SceneState,
    StaticMotion,
    box_inertia,
    forward_dynamics,
    inverse_dynamics,
    make_state,
    pose_all,
    rollout,
    sphere_inertia,
    total_contact_force,
)
from softcontact.geometry import Pose, box_aopc, pose_aopc, sphere_aopc
from softcontact.ssdf import sample_sdf_grid, ssdf
from softcontact.verify import (
    check_pipeline_gradients,
    contact_count_timing,
    cs_gradient,
    cs_hessian_diag,
    hard_pipeline_oracle,
    pipeline_functions,
    sample_nondegenerate_state,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _live_children_cpu_seconds():
    """User plus system CPU time of this process's children that are not yet
    reaped, such as a scene's contact helper: each /proc/<pid>/stat whose
    parent field is this process. (/proc/<pid>/task/*/children would list
    them directly, but not every kernel provides it.)"""
    total = 0
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except (OSError, ValueError):  # not a process, or it has gone
            continue
        # After the name: state, ppid, ..., utime and stime at 11 and 12.
        if int(fields[1]) == os.getpid():
            total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def _cpu_seconds():
    """CPU time of this process, all threads included, plus that of its
    children, reaped or alive: the gradient check's forked column workers
    and the rollouts' contact helpers."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system + _live_children_cpu_seconds()


class budget:
    """Context manager asserting the criterion's runtime budget and printing
    its pass line. The budget is on CPU time (_cpu_seconds), so other load
    on the machine cannot fail it; the pass line gives wall time beside it."""

    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0, self.cpu0 = time.perf_counter(), _cpu_seconds()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall, cpu = time.perf_counter() - self.t0, _cpu_seconds() - self.cpu0
        if exc_type is None:
            print(f"[acceptance] criterion {self.number} ({self.name}): PASS ({wall:.1f}s wall, {cpu:.1f}s CPU)")
            assert cpu < self.seconds, f"criterion {self.number} exceeded its {self.seconds}s CPU budget"
        else:
            print(f"[acceptance] criterion {self.number} ({self.name}): FAIL")
        return False


def test_budget_counts_the_cpu_of_reaped_children():
    # The parent only waits; the child alone spends 0.5 s of CPU, and the
    # budget of 0.2 s fails on it.
    with pytest.raises(AssertionError, match="exceeded its 0.2s CPU budget"):
        with budget(0, "forked busy child", 0.2):
            pid = os.fork()
            if pid == 0:
                try:
                    start = time.process_time()
                    while time.process_time() - start < 0.5:
                        pass
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
    # The same with a child still alive when the block ends, as a scene's
    # contact helper is: its CPU counts before it is reaped.
    r, w = os.pipe()
    pid = 0
    try:
        with pytest.raises(AssertionError, match="exceeded its 0.2s CPU budget"):
            with budget(0, "live busy child", 0.2):
                pid = os.fork()
                if pid == 0:
                    try:
                        start = time.process_time()
                        while time.process_time() - start < 0.5:
                            pass
                        os.write(w, b"x")
                        time.sleep(120)
                    finally:
                        os._exit(0)
                ready, _, _ = select.select([r], [], [], 60)
                assert ready and os.read(r, 1) == b"x"
        assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # alive all along
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(r)
        os.close(w)


def test_criterion_1_oracle_convergence():
    # soft separation vs brute-force hard minimum at vanishing temperatures,
    # 20 randomized sphere/box pose pairs with >= 1000 points each
    with budget(1, "oracle convergence", 60):
        rng = np.random.default_rng(42)
        sph = sphere_aopc(0.8, 1100)
        box = box_aopc([1.2, 0.9, 0.7], 1100)
        assert sph.num_points >= 1000 and box.num_points >= 1000
        bodies = [Body("s", sph, "free", 1.0, sphere_inertia(1.0, 0.8)),
                  Body("b", box, "free", 1.0, box_inertia(1.0, [1.2, 0.9, 0.7]))]
        scene = Scene(bodies, [("s", "b")])
        worst = 0.0
        for _ in range(20):
            q = np.zeros((2, 7))
            q[:, 3] = 1.0
            q[1, 3:] = quat_normalize(rng.standard_normal(4))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            q[1, :3] = rng.uniform(0.8, 2.2) * direction
            st = SceneState(0.0, q, np.zeros(12))
            world = pose_all(scene, st)
            fld = separation_field(world[0], world[1], 1e-9, 1e-9)
            soft = float(soft_separation_distance(fld))
            hard = hard_pipeline_oracle(scene, st).separation
            worst = max(worst, abs(soft - hard))
        assert worst < 1e-6, f"worst soft-vs-hard deviation {worst:.3e}"


def test_criterion_2_analytic_geometry():
    with budget(2, "analytic geometry", 60):
        # sphere SSDF vs the analytic signed distance at 200 random queries
        sph = sphere_aopc(1.0, 4096)
        assert sph.num_points >= 4096
        tol = 2 * sph.spacing()
        rng = np.random.default_rng(5)
        radii = rng.uniform(0.2, 3.0, 200)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        queries = radii[:, None] * dirs
        vals = ssdf(sph, queries, 1e-6).value
        err = np.abs(vals - (radii - 1.0)).max()
        assert err < tol, f"sphere SSDF error {err:.4f} vs tolerance {tol:.4f}"

        # box zero-crossing within one grid cell at the sharpest temperature
        # of the sweep {0.01, 0.25, 0.5, 10.0}
        box = box_aopc([1.0, 1.0, 3.0], 800)
        n = 81
        for eps1 in (0.01, 0.25, 0.5, 10.0):
            pts, vals = sample_sdf_grid(
                box, ([-1.5, -1.5, 0.0], [1.5, 1.5, 1.0]), (n, n, 2), eps1,
                slice_axis=2, slice_value=0.0,
            )
            assert np.isfinite(vals).all()
            if eps1 != 0.01:
                continue
            xs = np.linspace(-1.5, 1.5, n)
            cell = xs[1] - xs[0]
            grid = vals.reshape(n, n)
            checked = 0
            for j, y in enumerate(xs):
                if abs(y) > 0.4:
                    continue
                row = grid[:, j]
                for c in np.nonzero(np.diff(np.sign(row)))[0]:
                    x0 = xs[c] - row[c] * cell / (row[c + 1] - row[c])
                    assert abs(abs(x0) - 0.5) <= cell
                    checked += 1
            assert checked > 20


def _smoothness_scene():
    b1 = box_aopc([0.8, 0.6, 0.9], 60)
    b2 = box_aopc([1.0, 1.0, 0.5], 60)
    bodies = [Body("c1", b1, "free", 1.0, box_inertia(1.0, [0.8, 0.6, 0.9])),
              Body("c2", b2, "free", 2.0, box_inertia(2.0, [1.0, 1.0, 0.5]))]
    scene = Scene(bodies, [("c1", "c2")], params=ContactParams(k=2e3))
    base = make_state(scene, {"c1": Pose(np.array([0.05, 0.0, 0.65]), np.array([1.0, 0, 0, 0]))})
    return scene, base


def test_criterion_3_smoothness():
    with budget(3, "smoothness", 120):
        scene, base = _smoothness_scene()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            st = sample_nondegenerate_state(scene, rng, base, pos_scale=0.05, vel_scale=0.08)
            report = check_pipeline_gradients(scene, st, tol=1e-3)
            worst = max(worst, report.max_relative_error)
            assert report.passed, report.text()
        assert worst < 1e-3

        # Hessian diagonal of the soft separation distance vs second
        # differences of the value. The step must resolve the eps1-scale
        # features (both estimators carry h^2 * f'''' truncation), and the
        # error is normalized by the diagonal's magnitude: component-wise
        # ratios are meaningless at its structural zeros, where second
        # differences are pure cancellation noise.
        for _ in range(20):
            st = sample_nondegenerate_state(scene, rng, base, pos_scale=0.05, vel_scale=0.08)
            fn, theta = pipeline_functions(scene, st)["soft_separation_distance"]
            scalar = lambda x: fn(x)[0]
            hs = 5e-6 * (1.0 + np.abs(theta))
            h_impl = cs_hessian_diag(scalar, theta, delta=hs)
            h_fd = np.empty_like(theta)
            f0 = scalar(theta)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = hs[i]
                h_fd[i] = (scalar(theta + e) - 2 * f0 + scalar(theta - e)) / hs[i] ** 2
            err = np.abs(h_impl - h_fd).max() / max(1e-8, np.abs(h_impl).max(), np.abs(h_fd).max())
            assert err < 1e-2, f"Hessian diagonal mismatch {err:.3e}"


def test_criterion_4_force_profile():
    with budget(4, "force profile", 30):
        big = sphere_aopc(0.6, 216)
        small = sphere_aopc(0.25, 216)
        params = ContactParams(k=1e4, mu=0.5, v_d=0.1, v_s=1e-3, eps1=0.01, eps2=0.01, eps3=0.02)
        bodies = [Body("big", big, "free", 1.0, sphere_inertia(1.0, 0.6)),
                  Body("small", small, "free", 0.3, sphere_inertia(0.3, 0.25))]
        scene = Scene(bodies, [("big", "small")], gravity=np.zeros(3), params=params)
        ys = np.linspace(-1.5, 1.5, 241)
        F = np.empty_like(ys)
        G = np.empty_like(ys)
        hard = np.empty_like(ys)
        st0 = make_state(scene)
        for i, y in enumerate(ys):
            st = st0.copy()
            st.q[1, 1] = y
            F[i] = total_contact_force(scene, st)[7]

            def f(x, st=st):
                stc = st.copy()
                stc.q = st.q.astype(x.dtype)
                stc.q[1, 1] = x[0]
                return total_contact_force(scene, stc)[7]

            G[i] = cs_gradient(f, np.array([y]))[0]
            hard[i] = hard_pipeline_oracle(scene, st).separation

        # (a) no adjacent-sample jump above 5x the local secant estimate
        jumps = np.abs(np.diff(F))
        secant = np.abs(F[2:] - F[:-2]) / 2.0
        floor = 1e-9 * np.abs(F).max()
        local = np.maximum(np.maximum(secant[:-1], secant[1:]), floor)
        assert (jumps[1:-1] <= 5 * local).all(), "discontinuity-scale jump in the force profile"

        # (b) nonzero gradient at every out-of-contact sample
        out = hard > 0
        assert out.sum() > 50
        assert (np.abs(G[out]) > 0).all(), "a separated sample lost its gradient"

        # (c) near-zero force with a sign flip at the concentric sample
        i0 = int(np.argmin(np.abs(ys)))
        assert abs(F[i0]) < 1e-6 * np.abs(F).max()
        assert F[i0 - 3] * F[i0 + 3] < 0

        # (d) force at a distance: every out-of-contact sample feels a nonzero
        # force that pushes the small sphere away from the big one
        assert (np.sign(F[out]) == np.sign(ys[out])).all(), "a separated sample lost its repulsion"


def test_criterion_5_mechanics_invariants():
    with budget(5, "mechanics invariants", 120):
        rng = np.random.default_rng(3)

        # forward/inverse round trip at 100 random states
        s1 = sphere_aopc(0.5, 96)
        b2 = box_aopc([0.7, 0.5, 0.6], 96)
        bodies = [Body("a", s1, "free", 1.3, sphere_inertia(1.3, 0.5)),
                  Body("b", b2, "free", 0.8, box_inertia(0.8, [0.7, 0.5, 0.6]))]
        pair_scene = Scene(bodies, [("a", "b")])
        for _ in range(100):
            q = np.zeros((2, 7))
            q[:, :3] = rng.standard_normal((2, 3)) * 0.5
            q[:, 3:] = quat_normalize(rng.standard_normal((2, 4)))
            st = SceneState(0.0, q, rng.standard_normal(12))
            tau0 = rng.standard_normal(12)
            acc = forward_dynamics(pair_scene, st, tau0)
            tau1 = inverse_dynamics(pair_scene, st, acc)
            assert np.abs(tau1 - tau0).max() / max(1.0, np.abs(tau0).max()) < 1e-9

        # frictionless head-on collision conserves linear momentum (RK4,
        # dt = 1e-4,full approach-contact-separation event)
        ball = sphere_aopc(0.5, 150)
        mom_bodies = [Body("a", ball, "free", 1.0, sphere_inertia(1.0, 0.5)),
                      Body("b", ball, "free", 1.0, sphere_inertia(1.0, 0.5))]
        mom_scene = Scene(mom_bodies, [("a", "b")], gravity=np.zeros(3),
                          params=ContactParams(k=1e4, mu=0.0, v_d=1.0))
        st = make_state(mom_scene,
                        {"b": Pose(np.array([1.02, 0, 0]), np.array([1.0, 0, 0, 0]))},
                        {"a": [0.7, 0, 0, 0, 0, 0], "b": [-0.3, 0, 0, 0, 0, 0]})
        p0 = st.v[0] + st.v[6]
        res = rollout(mom_scene, st, 1e-4, 600, "rk4", record_separation=False)
        fin = res.states[-1]
        assert fin.v[0] < 0 < fin.v[6] or fin.q[1, 0] - fin.q[0, 0] > 1.0  # they rebounded
        p1 = fin.v[0] + fin.v[6]
        assert abs(p1 - p0) / abs(p0) < 1e-6

        # settling on kinematic ground: penetration within 20% of the
        # analytic balance, and energy (with the contact spring potential
        # taken from an independent quadrature of the static force curve)
        # non-increasing over every 100-step window after first impact
        ground = box_aopc([3, 3, 0.4], 120)
        drop_bodies = [Body("ball", ball, "free", 1.0, sphere_inertia(1.0, 0.5)),
                       Body("ground", ground, "kinematic",
                            motion=StaticMotion(Pose(np.array([0, 0, -0.2]), np.array([1.0, 0, 0, 0]))))]
        params = ContactParams(k=1e4)
        drop_scene = Scene(drop_bodies, [("ball", "ground")], params=params)
        st = make_state(drop_scene, {"ball": Pose(np.array([0, 0, 0.504]), np.array([1.0, 0, 0, 0]))})
        res = rollout(drop_scene, st, 1e-3, 700, "rk4", record_separation=True)
        dstar = brentq(lambda d: params.k * float(softplus(np.array(d), params.eps3)) - 9.81, 1e-9, 0.1)
        pen = 0.5 - res.states[-1].q[0, 2]
        assert abs(pen - dstar) <= 0.2 * dstar, f"settled at {pen:.2e}, balance {dstar:.2e}"

        zs = np.array([s.q[0, 2] for s in res.states])
        z_grid = np.linspace(zs.min() - 1e-4, zs.max() + 1e-4, 300)
        Fz = np.empty_like(z_grid)
        probe = make_state(drop_scene)
        for i, z in enumerate(z_grid):
            probe.q[0, :] = [0, 0, z, 1, 0, 0, 0]
            probe.v[:] = 0.0
            Fz[i] = total_contact_force(drop_scene, probe)[2]
        I_cum = cumulative_trapezoid(Fz, z_grid, initial=0.0)
        U = np.interp(zs, z_grid, I_cum[-1] - I_cum)
        E = []
        for s, u in zip(res.states, U):
            v = s.v
            ke = 0.5 * np.dot(v[:3], v[:3]) + 0.5 * np.dot(v[3:6], sphere_inertia(1.0, 0.5) @ v[3:6])
            E.append(ke + 9.81 * s.q[0, 2] + u)
        E = np.array(E)
        impact = int(np.argmax(res.min_separation < 0))
        gains = E[impact + 100:] - E[impact:-100]
        assert gains.max() < 1e-5, f"energy grew by {gains.max():.2e} over a window"


def test_criterion_6_contact_count_independence():
    with budget(6, "contact-count independence", 60):
        box = box_aopc([0.5, 0.5, 0.2], 96)
        bodies = [Body("lower", box, "free", 2.0, box_inertia(2.0, [0.5, 0.5, 0.2])),
                  Body("upper", box, "free", 2.0, box_inertia(2.0, [0.5, 0.5, 0.2]))]
        boxes = Scene(bodies, [("lower", "upper")], params=ContactParams(k=2e3))
        overlap = make_state(boxes, {"upper": Pose(np.array([0, 0, 0.15]), np.array([1.0, 0, 0, 0]))})
        cases = [("stacked boxes", boxes, overlap, 2e-3)]
        # The bundled simulation scenes. contact_count_timing pulls the free
        # bodies apart with separated_state, as `softcontact bench` does: most
        # of their penalty entries then sit in softplus's clamped tail.
        for name in ("sphere_pair", "sphere_drop", "push_t_1"):
            cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
            cases.append((name, cfg.scene, cfg.state, cfg.world.dt))
        for name, scene, st_contact, dt in cases:
            # A direct step runs serially; a one-step rollout takes the path
            # users run, with the scene's contact helper where a fork is
            # allowed. The variants alternate step by step and each adjacent
            # pair gives one ratio, so drift in machine speed cancels out of
            # the median.
            for path, pairs in (("step", 120), ("rollout", 60)):
                times, _ = contact_count_timing(scene, st_contact, dt, pairs, through_rollout=path == "rollout")
                ratio = float(np.median(times["separated"] / times["contact"]))
                assert 0.8 <= ratio <= 1.2, f"{name}, {path}: step-time ratio {ratio:.3f}"


def test_criterion_7_planar_push():
    with budget(7, "planar push", 180):
        cfg = load_config(os.path.join(CONFIG_DIR, "push_t_1.json"))
        finals = {}
        penetrations = {}
        for dt in (0.002, 0.016):
            n_steps = int(round(1.1 / dt))
            for integ in ("rk4", "euler"):
                res = rollout(cfg.scene, cfg.state, dt, n_steps, integ,
                              record_separation=(dt == 0.002))
                finals[(integ, dt)] = res.states[-1]
                if dt == 0.002:
                    penetrations[integ] = res.max_penetration

        # (a) finite, penetration-bounded rollouts at dt = 2 ms
        for integ in ("rk4", "euler"):
            fin = finals[(integ, 0.002)]
            assert np.isfinite(fin.q).all() and np.isfinite(fin.v).all()
            assert penetrations[integ] < 0.03, f"{integ}: penetration {penetrations[integ]:.3f}"

        # (b) the object moved along the push direction (+y) by > 1 cm
        assert finals[("rk4", 0.002)].q[0, 1] > 0.01

        # (c) integrator disagreement grows with the step size
        dev2 = np.linalg.norm(finals[("euler", 0.002)].q[0, :3] - finals[("rk4", 0.002)].q[0, :3])
        dev16 = np.linalg.norm(finals[("euler", 0.016)].q[0, :3] - finals[("rk4", 0.016)].q[0, :3])
        assert dev2 < dev16, f"2 ms deviation {dev2:.2e} not below 16 ms deviation {dev16:.2e}"


def test_criterion_8_soft_top_k():
    with budget(8, "soft top-K", 30):
        # against the sort oracle on 100 random distinct-entry vectors
        rng = np.random.default_rng(11)
        for _ in range(100):
            V = int(rng.integers(5, 26))
            K = int(rng.integers(1, V + 1))
            z = rng.permutation(np.linspace(0.0, 1.0, V) + rng.uniform(-0.1, 0.1, V) / V)
            z *= rng.uniform(0.1, 10.0)
            gamma = soft_top_k(z, K, 1e-3 * (z.max() - z.min()))
            oracle = np.argsort(z)[::-1][:K]
            assert np.abs(gamma - np.eye(V)[oracle]).max() < 1e-6

        # stacked boxes: the 8 selected contact points land on the true
        # patch corners (slight tilt splits the corner weights; selection
        # temperature small relative to those gaps)
        box = box_aopc([1, 1, 1], 6)
        zero12 = np.zeros(12)
        a = pose_aopc(box, Pose.identity(), zero12, 0, "lower")
        tilt = quat_normalize(quat_from_rotvec(np.array([0.06, 0.05, 0.0])))
        b = pose_aopc(box, Pose(np.array([0, 0, 0.96]), tilt), zero12, 6, "upper")
        fld = separation_field(a, b, 0.01, 0.1)
        z = vertex_weights(fld, a, b)
        order = np.argsort(z)[::-1][:8]
        expect = {i for i in range(8) if box.vertices[i][2] > 0}
        expect |= {8 + i for i in range(8) if box.vertices[i][2] < 0}
        assert set(order.tolist()) == expect, "hard oracle: winners are the patch corners"
        cps = contact_points(a, b, fld, 8, 1e-5 * (z.max() - z.min()))
        joint = np.vstack([a.vertices, b.vertices])
        spacing = box.spacing()
        for k in range(8):
            d = np.linalg.norm(cps.points[k] - joint[order[k]])
            assert d < spacing, f"contact point {k} is {d:.3f} m from its corner"

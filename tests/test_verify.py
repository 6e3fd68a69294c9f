import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from softcontact import collision, dynamics, verify
from softcontact.config import load_config
from softcontact.contact import ContactParams
from softcontact.dynamics import Body, Scene, SceneState, make_state, sphere_inertia, box_inertia
from softcontact.geometry import LocalAopc, Pose, box_aopc, sphere_aopc
from softcontact.ssdf import ssdf
from softcontact.verify import (
    GradCheckReport,
    check_pipeline_gradients,
    cs_gradient,
    cs_hessian_diag,
    fd_gradient,
    flatten_state,
    hard_pipeline_oracle,
    pipeline_functions,
    relative_error,
    sample_nondegenerate_state,
    unflatten_state,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_fd_gradient_quadratic():
    f = lambda x: np.dot(x, x)
    g = fd_gradient(f, np.array([1.0, 2.0]), 1e-6)
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_constant_and_vector_valued():
    g = fd_gradient(lambda x: 3.7, np.array([0.5, -1.0, 2.0]))
    np.testing.assert_allclose(g, 0.0, atol=1e-10)
    jac = fd_gradient(lambda x: np.array([x[0] * x[1], x[1] ** 2]), np.array([2.0, 3.0]), 1e-6)
    np.testing.assert_allclose(jac, [[3.0, 2.0], [0.0, 6.0]], atol=1e-7)


def test_derivative_checkers_take_a_2d_x():
    # Each perturbs x (2, 3) entry by entry in flat order: the gradients and
    # the Hessian diagonal of a scalar f come out flat, (6,).
    f = lambda x: np.sum(x ** 3)
    x = np.arange(1.0, 7.0).reshape(2, 3)
    for g in (fd_gradient(f, x), cs_gradient(f, x)):
        assert g.shape == (6,)
        np.testing.assert_allclose(g, 3.0 * x.ravel() ** 2, rtol=1e-7)
    h = cs_hessian_diag(f, x)
    assert h.shape == (6,)
    np.testing.assert_allclose(h, 6.0 * x.ravel(), rtol=1e-7)


def test_fd_gradient_rejects_nonfinite():
    def bad(x):
        return np.nan if x[0] > 1.0 else x[0]

    with pytest.raises(ValueError, match="coordinate 0"):
        fd_gradient(bad, np.array([1.0]), 1e-9)


@pytest.mark.parametrize("gradient", [fd_gradient, cs_hessian_diag])
@pytest.mark.parametrize("bad", [0.0, -1e-4, np.nan, np.inf])
def test_steps_must_be_positive_and_finite(gradient, bad):
    with pytest.raises(ValueError, match=rf"^step {bad!r} for coordinate 1 is not positive and finite$"):
        gradient(lambda x: np.sum(x * x), np.array([1.0, 2.0]), [1e-4, bad])


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gradient_columns_run_on_one_process_per_cpu_at_most(monkeypatch):
    # Column i of the gradient of sum(x) * pid is the pid of the process that
    # computed it. Process k of T takes columns k, k + T, ...; the caller is
    # process 0. No thread is started, and every child is reaped.
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread was started"))
    caller = os.getpid()
    for cpus, n in ((1, 5), (2, 5), (4, 3), (4, 9)):
        _cpus(monkeypatch, cpus)
        pids = np.rint(cs_gradient(lambda x: x.sum() * os.getpid(), np.arange(1.0, n + 1.0)))
        workers = min(n, cpus)
        assert len(set(pids)) <= workers
        assert all((pids[i] == caller) == (i % workers == 0) for i in range(n))
        _no_child_left()


def test_worker_error_reaches_the_caller_unchanged(monkeypatch):
    # Column 3 is a worker's on two CPUs. A serial loop would raise the
    # lowest failing column's error, and so do the threads.
    _cpus(monkeypatch, 2)
    before = threading.active_count()

    def nan_at(*coords):
        return lambda x: np.nan if any(x[i] != 1.0 for i in coords) else x.sum()

    with pytest.raises(ValueError, match="non-finite evaluation while perturbing coordinate 3$"):
        fd_gradient(nan_at(3), np.ones(6), 1e-6)
    with pytest.raises(ValueError, match="coordinate 2$"):
        fd_gradient(nan_at(5, 3, 2), np.ones(6), 1e-6)
    boom = KeyError("column 1")

    def raise_at_1(x):
        if x[1].imag:
            raise boom
        return x

    with pytest.raises(KeyError) as caught:
        cs_gradient(raise_at_1, np.ones(4))
    assert caught.value is boom
    assert threading.active_count() == before


def test_a_killed_worker_fails_the_call_and_is_reaped(monkeypatch):
    # On two CPUs the child takes columns 1, 3, 5 and dies at column 3
    # without a report: the call raises rather than return part of a
    # Jacobian.
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def f(x):
        if os.getpid() != caller and x[3].imag:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match=r"^the worker for columns \[1, 3, 5\] exited with status -9$"):
        cs_gradient(f, np.ones(6))
    _no_child_left()


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    # The caller is interrupted at its first column while the children
    # sleep in theirs: they are killed, not waited out, and none is left.
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def f(x):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(30.0)
        return x

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cs_gradient(f, np.ones(4))
    assert time.perf_counter() - start < 10.0
    _no_child_left()


def test_a_call_from_a_second_thread_runs_serially(monkeypatch):
    # Forking while another thread runs can deadlock the child, so such a
    # call computes every column in the calling process, with the same bits.
    _cpus(monkeypatch, 2)
    f = lambda x: np.sin(x) * np.cumsum(x)
    x = np.linspace(0.1, 2.0, 8)
    want = cs_gradient(f, x).tobytes(), fd_gradient(f, x).tobytes()
    got = []

    def second():
        pids = np.rint(cs_gradient(lambda y: y.sum() * os.getpid(), x))
        got.append((cs_gradient(f, x).tobytes(), fd_gradient(f, x).tobytes(), set(pids)))

    thread = threading.Thread(target=second)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive()
    assert got == [want + ({os.getpid()},)]


def test_gradient_columns_survive_frequent_thread_switches(monkeypatch):
    # More worker processes than cores, the caller switching threads every
    # microsecond: every column must still land in its own slot.
    f = lambda x: np.sin(x) * np.cumsum(x)
    x = np.linspace(0.1, 2.0, 64)
    _cpus(monkeypatch, 1)
    want = cs_gradient(f, x).tobytes(), fd_gradient(f, x).tobytes()
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert (cs_gradient(f, x).tobytes(), fd_gradient(f, x).tobytes()) == want
    finally:
        sys.setswitchinterval(interval)


def _serially(fn):
    """fn() with a second thread alive, so core._may_fork refuses and every
    derivative inside runs its serial loop."""
    done = threading.Event()
    t = threading.Thread(target=done.wait, args=(120,))
    t.start()
    try:
        return fn()
    finally:
        done.set()
        t.join(timeout=120)
        assert not t.is_alive()


def test_hessian_diagonal_entries_spread_over_processes_bit_for_bit(monkeypatch):
    # Entry i of the Hessian diagonal of sum(x^2) / 2 * pid is the pid of the
    # process that computed it: the caller and one child on two CPUs. The
    # diagonal of a nonlinear f is the serial loop's bit for bit.
    _cpus(monkeypatch, 2)
    f = lambda x: np.sum(np.sin(x) * np.cumsum(x))
    x = np.linspace(0.1, 2.0, 7)
    want = _serially(lambda: cs_hessian_diag(f, x))
    assert cs_hessian_diag(f, x).tobytes() == want.tobytes()
    pids = np.rint(cs_hessian_diag(lambda y: 0.5 * np.sum(y * y) * os.getpid(), x))
    assert set(pids[::2]) == {os.getpid()}
    assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]
    _no_child_left()


@pytest.mark.parametrize("derivative", [cs_gradient, cs_hessian_diag])
@pytest.mark.parametrize("h", [0.0, -1e-30, np.nan, np.inf])
def test_complex_step_h_must_be_positive_and_finite(derivative, h):
    with pytest.raises(ValueError, match=rf"^h must be positive and finite, got {h!r}$"):
        derivative(lambda x: np.sum(x * x), np.array([1.0, 2.0]), h=h)


def test_cs_gradient_exactness():
    f = lambda x: np.sin(x[0]) * np.exp(x[1])
    x = np.array([0.3, -0.7])
    g = cs_gradient(f, x)
    np.testing.assert_allclose(g, [np.cos(0.3) * np.exp(-0.7), np.sin(0.3) * np.exp(-0.7)], rtol=1e-15)


def test_cs_gradient_by_batches_takes_each_batch_from_one_evaluation(monkeypatch):
    # f maps a (K, 3) stack of states to (K, 2); each batch is one call (on
    # one CPU, so that every call is counted here), and the Jacobian is the
    # column-by-column one. Batches must partition x.
    _cpus(monkeypatch, 1)
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.stack([np.sin(x[..., 0]) * np.exp(x[..., 1]), x[..., 1] * x[..., 2] ** 2], axis=-1)

    x = np.array([0.3, -0.7, 1.1])
    got = cs_gradient(f, x, batches=[np.array([2]), np.array([0, 1])])
    assert sorted(calls) == [(1, 3), (2, 3)]
    np.testing.assert_allclose(got, cs_gradient(f, x), rtol=1e-15)
    for bad in ([np.array([0, 1])], [np.array([0, 1]), np.array([1, 2])]):
        with pytest.raises(ValueError, match="partition"):
            cs_gradient(f, x, batches=bad)


def test_ssdf_symmetric_point_gradient_is_zero():
    # two opposing planes: at the midpoint the hand-derived gradient vanishes
    cloud = LocalAopc(
        [[0, 0, 0.0], [0, 0, 1.0]],
        [[0, 0, 1.0], [0, 0, -1.0]],
        [[0.5, 0.5, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0], [0.5, -0.5, 0],
         [0.5, 0.5, 1], [-0.5, 0.5, 1], [-0.5, -0.5, 1], [0.5, -0.5, 1]],
        [[0, 1, 2, 3], [4, 5, 6, 7]],
    )
    f = lambda p: ssdf(cloud, p, 0.05).value
    g = fd_gradient(f, np.array([0.0, 0.0, 0.5]), 1e-6)
    np.testing.assert_allclose(g, 0.0, atol=1e-9)
    np.testing.assert_allclose(cs_gradient(f, np.array([0.0, 0.0, 0.5])), 0.0, atol=1e-12)


def box_pair_scene(k=2e3):
    b1 = box_aopc([0.8, 0.6, 0.9], 60)
    b2 = box_aopc([1.0, 1.0, 0.5], 60)
    bodies = [Body("c1", b1, "free", 1.0, box_inertia(1.0, [0.8, 0.6, 0.9])),
              Body("c2", b2, "free", 2.0, box_inertia(2.0, [1.0, 1.0, 0.5]))]
    return Scene(bodies, [("c1", "c2")], params=ContactParams(k=k))


def test_check_pipeline_gradients_smooth_region():
    scene = box_pair_scene()
    rng = np.random.default_rng(0)
    base = make_state(scene, {"c1": Pose(np.array([0.05, 0.0, 0.65]), np.array([1.0, 0, 0, 0]))})
    st = sample_nondegenerate_state(scene, rng, base, pos_scale=0.05, vel_scale=0.08)
    report = check_pipeline_gradients(scene, st)
    assert report.passed
    assert report.max_relative_error < 1e-3
    assert set(report.per_function) == {"soft_separation_distance", "total_contact_force", "forward_dynamics"}
    text = report.text()
    assert "PASS" in text
    csv = report.csv()
    assert csv.splitlines()[0] == "function,out_index,in_index,provided,fd,relative_error"


def test_kink_state_elevates_error():
    # a point-plane pair sliding exactly at v_n = 0 sits on the C1 joint of
    # the dissipation factor; central differences there see the second
    # derivative jump, so the mismatch rises above the smooth-region floor
    scene = box_pair_scene()
    rng = np.random.default_rng(1)
    base = make_state(scene, {"c1": Pose(np.array([0.0, 0.0, 0.68]), np.array([1.0, 0, 0, 0]))})
    smooth = sample_nondegenerate_state(scene, rng, base, pos_scale=0.02, vel_scale=0.08)
    r_smooth = check_pipeline_gradients(scene, smooth)

    kink = base.copy()
    kink.v[:] = 0.0
    kink.v[0] = 0.05  # pure tangential slide: v_n = 0 on the stack planes
    r_kink = check_pipeline_gradients(scene, kink)
    assert r_kink.max_relative_error > 10 * r_smooth.max_relative_error


def test_separated_scene_has_vanishing_force_but_nonzero_gradient():
    scene = box_pair_scene()
    st = make_state(scene, {"c1": Pose(np.array([0.0, 0.0, 0.85]), np.array([1.0, 0, 0, 0]))})
    from softcontact.dynamics import total_contact_force
    from softcontact.verify import flatten_state, pipeline_functions

    force = total_contact_force(scene, st)
    assert np.abs(force).max() < 1e-2  # separated: tail forces only
    fn, theta = pipeline_functions(scene, st)["total_contact_force"]
    g = cs_gradient(fn, theta)
    assert np.abs(g).max() > 0  # gradients live on even without contact


def test_sample_nondegenerate_state_avoids_kinks():
    scene = box_pair_scene()
    rng = np.random.default_rng(2)
    base = make_state(scene, {"c1": Pose(np.array([0.0, 0.0, 0.65]), np.array([1.0, 0, 0, 0]))})
    from softcontact.verify import _state_clear_of_kinks

    for _ in range(5):
        st = sample_nondegenerate_state(scene, rng, base, vel_scale=0.08)
        assert _state_clear_of_kinks(scene, st, 0.05)


def test_sampler_peak_allocation_is_one_query_block_plus_rows():
    # Two 864-point spheres near contact: a dense (Q, I) array of one
    # direction is 6 MiB. The kink test runs its queries in blocks from the
    # thread's arena, so the sampler's peak allocation, arena included (a
    # new thread's starts empty), is the kernel's block bound, a few arrays
    # of _CHUNK_ENTRIES float64 entries, plus rows of O(I + Q) entries.
    import threading
    import tracemalloc

    from softcontact.core import _CHUNK_ENTRIES

    ball = sphere_aopc(0.3, 864)
    scene = Scene([Body(name, ball, "free", 1.0, sphere_inertia(1.0, 0.3)) for name in "ab"], [("a", "b")],
                  gravity=np.zeros(3), params=ContactParams(eps1=1e-3, eps2=1e-2, eps3=1e-2))
    base = make_state(scene, {"b": Pose(np.array([0.0, 0.0, 0.58]), np.array([1.0, 0, 0, 0]))})
    peak = []

    def sample():
        tracemalloc.start()
        try:
            sample_nondegenerate_state(scene, np.random.default_rng(0), base, pos_scale=0.01, vel_scale=0.05)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    t = threading.Thread(target=sample)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and len(peak) == 1
    points = 2 * ball.num_points
    assert peak[0] <= 8 * 8 * _CHUNK_ENTRIES + 64 * 8 * points, peak[0]


@pytest.mark.parametrize("name, value", [("pos_scale", -1.0), ("pos_scale", np.inf), ("vel_scale", np.nan),
                                         ("margin", -1.0), ("margin", np.nan), ("max_tries", 2.5),
                                         ("max_tries", 0)])
def test_sampler_rejects_a_bad_argument_by_name(name, value):
    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    with pytest.raises(ValueError, match=name):
        sample_nondegenerate_state(cfg.scene, np.random.default_rng(0), cfg.state, **{name: value})


def test_hard_oracle_two_spheres():
    s = sphere_aopc(1.0, 216)
    bodies = [Body("a", s, "free", 1.0, sphere_inertia(1.0, 1.0)),
              Body("b", s, "free", 1.0, sphere_inertia(1.0, 1.0))]
    scene = Scene(bodies, [("a", "b")])
    st = make_state(scene, {"b": Pose(np.array([3.0, 0, 0]), np.array([1.0, 0, 0, 0]))})
    out = hard_pipeline_oracle(scene, st)
    assert abs(out.separation - 1.0) < s.spacing()
    assert out.force.shape == (12,)

    # soft pipeline at vanishing temperatures agrees with the hard oracle
    from softcontact.collision import separation_field, soft_separation_distance
    from softcontact.dynamics import pose_all

    world = pose_all(scene, st)
    fld = separation_field(world[0], world[1], 1e-9, 1e-9)
    assert abs(soft_separation_distance(fld) - out.separation) < 1e-6


def test_hard_oracle_tie_prefers_lowest_joint_index():
    # two identical single-plane clouds facing each other: both directional
    # lists hold the same minimum, so the winner is the first block entry
    def plane(center, normal):
        center = np.asarray(center, dtype=float)
        normal = np.asarray(normal, dtype=float)
        return LocalAopc([center], [normal],
                         [center + [0.5, 0.5, 0], center + [-0.5, 0.5, 0],
                          center + [-0.5, -0.5, 0], center + [0.5, -0.5, 0]],
                         [[0, 1, 2, 3]])

    pa = plane([0, 0, 0], [0, 0, 1.0])
    pb = plane([0, 0, 1.0], [0, 0, -1.0])
    bodies = [Body("a", pa, "kinematic"), Body("b", pb, "kinematic")]
    scene = Scene(bodies, [("a", "b")])
    st = make_state(scene)
    out = hard_pipeline_oracle(scene, st)
    np.testing.assert_allclose(out.separation, 1.0, atol=1e-12)
    pair_idx, owner, qi, ci = out.witness
    assert owner == 2 and qi == 0  # first entry of the b-against-a block


def test_relative_error_floor():
    assert relative_error(np.array(0.0), np.array(1e-12)) < 1e-3
    assert relative_error(np.array(2.0), np.array(1.0)) == 0.5


def test_check_pipeline_gradients_evaluates_contact_once_per_perturbation(monkeypatch):
    # One shared map per perturbed state: the 26 complex steps in 4 batches
    # (each sphere's 7 pose and 6 velocity coordinates), one evaluation
    # each, and 2 x 26 central differences on the two spheres; every pair is
    # evaluated inside those contact evaluations, and no separation field is
    # built. Counts made in
    # worker processes do not reach the caller, so the count runs on one
    # CPU; on two the report is the same.
    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    st = sample_nondegenerate_state(cfg.scene, np.random.default_rng(0), cfg.state, vel_scale=cfg.scene.params.v_d)
    calls = {"contact": 0, "inside": 0, "outside": 0, "field": 0, "depth": 0}
    contact_force = dynamics._contact_force
    pair_contact = dynamics._pair_contact

    def counted_contact(*args, **kwargs):
        calls["contact"] += 1
        calls["depth"] += 1
        try:
            return contact_force(*args, **kwargs)
        finally:
            calls["depth"] -= 1

    def counted_pair(*args, **kwargs):
        calls["inside" if calls["depth"] else "outside"] += 1
        return pair_contact(*args, **kwargs)

    def counted_field(*args, **kwargs):
        calls["field"] += 1
        return collision.separation_field(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_contact_force", counted_contact)
    monkeypatch.setattr(dynamics, "_pair_contact", counted_pair)
    monkeypatch.setattr(dynamics, "separation_field", counted_field)
    monkeypatch.setattr(verify, "separation_field", counted_field)
    _cpus(monkeypatch, 1)
    report = check_pipeline_gradients(cfg.scene, st)
    assert report.passed
    assert flatten_state(st).size == 26
    assert calls == {"contact": 56, "inside": 56, "outside": 0, "field": 0, "depth": 0}
    _cpus(monkeypatch, 2)
    assert check_pipeline_gradients(cfg.scene, st) == report


def _mixed_pair_scene():
    ball = sphere_aopc(0.1, 24)
    box = box_aopc([0.2, 0.2, 0.2], 54)
    bodies = [Body("ball1", ball, "free", 0.5, sphere_inertia(0.5, 0.1)),
              Body("box1", box, "free", 1.0, box_inertia(1.0, [0.2, 0.2, 0.2])),
              Body("ball2", ball, "free", 0.5, sphere_inertia(0.5, 0.1)),
              Body("box2", box, "kinematic")]
    scene = Scene(bodies, [("ball1", "box1"), ("ball1", "ball2"), ("ball2", "box2")],
                  params=ContactParams(k=2e3, v_s=0.02))
    rng = np.random.default_rng(3)
    poses = {name: Pose(np.array(t), np.array([1.0, 0, 0, 0]))
             for name, t in (("box1", [0.0, 0.0, -0.195]), ("ball2", [0.19, 0.01, 0.0]))}
    velocities = {name: 0.05 * rng.standard_normal(6) for name in ("ball1", "box1", "ball2")}
    return scene, make_state(scene, poses, velocities)


def test_shared_map_matches_the_three_pipeline_maps():
    # Pairs 0 and 2 share a shape and are stacked ahead of pair 1, so the
    # separations must be put back in pair order. The oracle takes each
    # pair's separation field on its own, from pose_all; pipeline_functions
    # restricts the shared map to each function's block.
    scene, st = _mixed_pair_scene()
    assert [pos.tolist() for pos, _ in scene._pair_chunks] == [[0, 2], [1]]
    theta = flatten_state(st)
    n_pose = 7 * len(scene.free_indices)

    def oracle(theta_pose):
        full = theta.astype(theta_pose.dtype)
        full[:n_pose] = theta_pose
        world = dynamics.pose_all(scene, unflatten_state(scene, st, full))
        eps = scene.params.eps1, scene.params.eps2
        return np.stack([collision.soft_separation_distance(collision.separation_field(world[ia], world[ib], *eps))
                         for ia, ib in scene.pair_indices])

    seps, force, vdot = dynamics._separation_force_acceleration(scene, st)
    want = oracle(theta[:n_pose])
    assert np.abs(seps - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(want < 0.05)  # all three pairs near contact
    np.testing.assert_array_equal(force, dynamics.total_contact_force(scene, st))
    np.testing.assert_array_equal(vdot, dynamics.forward_dynamics(scene, st))
    maps = pipeline_functions(scene, st)
    for name, got in (("soft_separation_distance", seps), ("total_contact_force", force), ("forward_dynamics", vdot)):
        fn, x = maps[name]
        np.testing.assert_array_equal(x, theta[: x.size])
        np.testing.assert_array_equal(fn(x), got)
    jac = cs_gradient(lambda th: dynamics._separation_force_acceleration(scene, unflatten_state(scene, st, th))[0], theta)
    jac_want = cs_gradient(oracle, theta[:n_pose])
    assert np.abs(jac[:, :n_pose] - jac_want).max() <= 1e-12 * np.abs(jac_want).max()
    assert not jac[:, n_pose:].any()  # separation does not depend on velocities


def test_reports_are_the_same_bits_on_one_cpu_and_on_two(monkeypatch):
    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    st = sample_nondegenerate_state(cfg.scene, np.random.default_rng(5), cfg.state, vel_scale=cfg.scene.params.v_d)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        jacs = []

        def recorded(gradient):
            def call(*args):
                jacs.append(gradient(*args))
                return jacs[-1]
            return call

        monkeypatch.setattr(verify, "cs_gradient", recorded(cs_gradient))
        monkeypatch.setattr(verify, "fd_gradient", recorded(fd_gradient))
        report = check_pipeline_gradients(cfg.scene, st)
        runs.append([j.tobytes() for j in jacs] + [report.text(), report.csv()])
    assert len(runs[0]) == 4 and runs[0] == runs[1]


@pytest.mark.parametrize("seed, sample", [(7, 12), (14, 17), (27, 8)])
def test_gradient_check_passes_where_isotropic_gyro_rounding_failed_it(seed, sample):
    # At these states the gyroscopic term w x (R I R^T w) of the spheres used
    # to leave a ~3e-17 rounding residue that central differences divided by
    # 2h, failing forward_dynamics at 1.0e-3 to 2.0e-3 against the 1e-8
    # floor of relative_error. The states are the CLI's: sample s of
    # `softcontact gradcheck --seed seed` on sphere_pair.
    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    rng = np.random.default_rng(seed)
    for _ in range(sample + 1):
        st = sample_nondegenerate_state(cfg.scene, rng, cfg.state, vel_scale=cfg.scene.params.v_d)
    report = check_pipeline_gradients(cfg.scene, st)
    assert report.passed
    assert report.per_function["forward_dynamics"] < 1e-5


@pytest.mark.parametrize("pairs", [0, -1, 2.5])
def test_contact_count_timing_rejects_a_bad_pair_count_by_name(pairs):
    from softcontact.verify import contact_count_timing

    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    with pytest.raises(ValueError, match=rf"^pairs must be a positive integer, got {pairs}$"):
        contact_count_timing(cfg.scene, cfg.state, cfg.world.dt, pairs)


@pytest.mark.parametrize("through_rollout", [False, True])
def test_contact_count_timing_alternates_the_two_variants(through_rollout):
    from softcontact.verify import contact_count_timing

    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    times, faults = contact_count_timing(cfg.scene, cfg.state, cfg.world.dt, 3, through_rollout=through_rollout)
    assert set(times) == set(faults) == {"contact", "separated"}
    assert all(t.shape == (3,) and (t > 0).all() for t in times.values())

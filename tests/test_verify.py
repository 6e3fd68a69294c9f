import os
import sys
import threading

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


def test_fd_gradient_rejects_nonfinite():
    def bad(x):
        return np.nan if x[0] > 1.0 else x[0]

    with pytest.raises(ValueError, match="coordinate 0"):
        fd_gradient(bad, np.array([1.0]), 1e-9)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_gradient_columns_run_on_one_thread_per_cpu_at_most(monkeypatch):
    # Thread k of T takes columns k, k + T, ...; the calling thread is thread
    # 0, and no worker is left running.
    caller = threading.get_ident()
    for cpus, n in ((1, 5), (2, 5), (4, 3), (4, 9)):
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        seen = {}

        def f(x):
            i = int(np.flatnonzero(x.imag)[0])
            seen[i] = (threading.get_ident(), threading.active_count())
            return x * x

        x = np.arange(1.0, n + 1.0)
        np.testing.assert_array_equal(cs_gradient(f, x), np.diag(2.0 * x))
        threads = min(n, cpus)
        assert sorted(seen) == list(range(n))
        assert max(count for _, count in seen.values()) <= before + threads - 1
        assert len({ident for ident, _ in seen.values()}) <= threads
        assert all((seen[i][0] == caller) == (i % threads == 0) for i in range(n))
        assert threading.active_count() == before


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


def test_gradient_columns_survive_frequent_thread_switches(monkeypatch):
    # More threads than cores, switching every microsecond: every column
    # must still land in its own slot.
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


def test_cs_gradient_exactness():
    f = lambda x: np.sin(x[0]) * np.exp(x[1])
    x = np.array([0.3, -0.7])
    g = cs_gradient(f, x)
    np.testing.assert_allclose(g, [np.cos(0.3) * np.exp(-0.7), np.sin(0.3) * np.exp(-0.7)], rtol=1e-15)


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
    # One shared map per perturbed state: 26 complex steps and 2 x 26 central
    # differences on the two spheres; every pair is evaluated inside those
    # contact evaluations, and no separation field is built. The columns run
    # on several threads, so the counts take a lock and the depth is per
    # thread.
    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    st = sample_nondegenerate_state(cfg.scene, np.random.default_rng(0), cfg.state, vel_scale=cfg.scene.params.v_d)
    calls = {"contact": 0, "inside": 0, "outside": 0, "field": 0}
    lock, local = threading.Lock(), threading.local()
    contact_force = dynamics._contact_force
    pair_contact = dynamics._pair_contact

    def count(key):
        with lock:
            calls[key] += 1

    def counted_contact(*args, **kwargs):
        count("contact")
        local.depth = getattr(local, "depth", 0) + 1
        try:
            return contact_force(*args, **kwargs)
        finally:
            local.depth -= 1

    def counted_pair(*args, **kwargs):
        count("inside" if getattr(local, "depth", 0) else "outside")
        return pair_contact(*args, **kwargs)

    def counted_field(*args, **kwargs):
        count("field")
        return collision.separation_field(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_contact_force", counted_contact)
    monkeypatch.setattr(dynamics, "_pair_contact", counted_pair)
    monkeypatch.setattr(dynamics, "separation_field", counted_field)
    monkeypatch.setattr(verify, "separation_field", counted_field)
    report = check_pipeline_gradients(cfg.scene, st)
    assert report.passed
    assert flatten_state(st).size == 26
    assert calls == {"contact": 78, "inside": 78, "outside": 0, "field": 0}


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
    # separations must be put back in pair order.
    scene, st = _mixed_pair_scene()
    assert [pos.tolist() for pos, _ in scene._pair_chunks] == [[0, 2], [1]]
    maps = pipeline_functions(scene, st)
    seps_fn, theta_pose = maps["soft_separation_distance"]
    seps, force, vdot = dynamics._separation_force_acceleration(scene, st)
    want = seps_fn(theta_pose)
    assert np.abs(seps - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(want < 0.05)  # all three pairs near contact
    np.testing.assert_array_equal(force, dynamics.total_contact_force(scene, st))
    np.testing.assert_array_equal(vdot, dynamics.forward_dynamics(scene, st))
    theta = flatten_state(st)
    jac = cs_gradient(lambda th: dynamics._separation_force_acceleration(scene, unflatten_state(scene, st, th))[0], theta)
    jac_want = cs_gradient(seps_fn, theta_pose)
    assert np.abs(jac[:, : theta_pose.size] - jac_want).max() <= 1e-12 * np.abs(jac_want).max()
    assert not jac[:, theta_pose.size :].any()  # separation does not depend on velocities


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

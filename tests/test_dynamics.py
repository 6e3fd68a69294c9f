import contextlib
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from softcontact.core import quat_normalize, quat_to_matrix, softplus
from softcontact.dynamics import (
    Body,
    DivergenceError,
    LinearMotion,
    Scene,
    SceneState,
    SplineMotion,
    StaticMotion,
    bias_force,
    box_inertia,
    composite_box_inertia,
    forward_dynamics,
    inverse_dynamics,
    make_state,
    mass_matrix,
    rollout,
    sphere_inertia,
    step,
    total_contact_force,
    trajectory_csv,
)
from softcontact.geometry import AopcError, Pose, box_aopc, cylinder_aopc, pose_aopc, sphere_aopc

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def free_sphere_scene(gravity=(0, 0, -9.81)):
    s = sphere_aopc(0.5, 54)
    body = Body("ball", s, "free", 1.0, sphere_inertia(1.0, 0.5))
    return Scene([body], [], gravity=np.asarray(gravity, dtype=float))


def test_body_validation():
    s = sphere_aopc(0.5, 24)
    with pytest.raises(ValueError, match="mass"):
        Body("x", s, "free", 0.0, np.eye(3))
    with pytest.raises(ValueError, match="positive definite"):
        Body("x", s, "free", 1.0, -np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        Body("x", s, "free", 1.0, np.eye(3) + np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ValueError, match="kind"):
        Body("x", s, "wobbly")
    kin = Body("x", s, "kinematic")
    assert isinstance(kin.motion, StaticMotion)


@pytest.mark.parametrize("mass, inertia, message", [
    (np.nan, np.eye(3), "finite mass"),
    (np.inf, np.eye(3), "finite mass"),
    (1.0, np.diag([1.0, 1.0, np.nan]), r"inertia contains a non-finite entry at index \(2, 2\)"),
    (1.0, np.diag([1.0, np.inf, 1.0]), r"inertia contains a non-finite entry at index \(1, 1\)"),
])
def test_body_rejects_non_finite_mass_and_inertia(mass, inertia, message):
    with pytest.raises(ValueError, match=rf"body x: .*{message}"):
        Body("x", sphere_aopc(0.5, 24), "free", mass, inertia)


_BALL = sphere_aopc(0.5, 24)


@given(st.integers(-1, 8), st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_body_names_any_one_non_finite_entry(flat_index, value, scale):
    # flat_index -1 is the mass, 0..8 an inertia entry.
    mass, inertia = scale, scale * np.eye(3)
    if flat_index < 0:
        mass, message = value, "free bodies need a finite mass > 0"
    else:
        i, j = divmod(flat_index, 3)
        inertia[i, j] = value
        message = rf"inertia contains a non-finite entry at index \({i}, {j}\)"
    with pytest.raises(ValueError, match=rf"^body x: {message}"):
        Body("x", _BALL, "free", mass, inertia)


def test_scene_pair_validation():
    s = sphere_aopc(0.5, 24)
    a = Body("a", s, "free", 1.0, sphere_inertia(1.0, 0.5))
    b = Body("b", s, "free", 1.0, sphere_inertia(1.0, 0.5))
    with pytest.raises(ValueError, match="unknown body"):
        Scene([a, b], [("a", "c")])
    with pytest.raises(ValueError, match="distinct"):
        Scene([a, b], [("a", "a")])
    with pytest.raises(ValueError, match="repeated"):
        Scene([a, b], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="unique"):
        Scene([a, a], [])


def test_mass_matrix_sphere_rotation_invariant():
    scene = free_sphere_scene()
    rng = np.random.default_rng(0)
    st = make_state(scene, {"ball": Pose(np.zeros(3), quat_normalize(rng.standard_normal(4)))})
    M = mass_matrix(scene, st)
    np.testing.assert_allclose(M, np.diag([1, 1, 1, 0.4 * 0.25, 0.4 * 0.25, 0.4 * 0.25]), atol=1e-12)


def test_mass_matrix_block_diagonal_and_rotated_box():
    s = sphere_aopc(0.5, 24)
    bx = box_aopc([0.4, 0.6, 0.8], 24)
    inertia = box_inertia(2.0, [0.4, 0.6, 0.8])
    bodies = [Body("a", s, "free", 1.0, sphere_inertia(1.0, 0.5)),
              Body("b", bx, "free", 2.0, inertia)]
    scene = Scene(bodies, [])
    rng = np.random.default_rng(1)
    q = quat_normalize(rng.standard_normal(4))
    st = make_state(scene, {"b": Pose(np.zeros(3), q)})
    M = mass_matrix(scene, st)
    assert M.shape == (12, 12)
    np.testing.assert_allclose(M[:6, 6:], 0.0, atol=0)
    eig = np.linalg.eigvalsh(M[9:12, 9:12])
    np.testing.assert_allclose(np.sort(eig), np.sort(np.diag(inertia)), rtol=1e-12)


def test_bias_force_gravity_and_gyro():
    scene = free_sphere_scene(gravity=(0, 0, -9.81))
    scene.bodies[0].mass = 2.0
    st = make_state(scene)
    c = bias_force(scene, st)
    np.testing.assert_allclose(c[:3], [0, 0, 19.62], atol=1e-12)
    np.testing.assert_allclose(c[3:], 0.0, atol=0)

    # omega on a principal axis: no gyroscopic torque
    bx = box_aopc([0.4, 0.6, 0.8], 24)
    scene2 = Scene([Body("b", bx, "free", 1.0, box_inertia(1.0, [0.4, 0.6, 0.8]))], [])
    st2 = make_state(scene2)
    st2.v[3:] = [0.0, 0.0, 3.0]
    c2 = bias_force(scene2, st2)
    np.testing.assert_allclose(c2[3:], 0.0, atol=1e-15)
    st2.v[3:] = [1.0, 2.0, 0.5]
    c3 = bias_force(scene2, st2)
    assert np.linalg.norm(c3[3:]) > 0


def test_isotropic_bodies_take_exactly_no_gyroscopic_torque():
    # For I_body = c Id, w x (R I_body R^T w) vanishes analytically; computed
    # as a difference of products it left a rounding residue of ~1e-17, which
    # central differences divide by their step.
    rng = np.random.default_rng(11)
    bodies = [Body("ball", sphere_aopc(0.25, 24), "free", 0.3, sphere_inertia(0.3, 0.25)),
              Body("cube", box_aopc([0.2, 0.2, 0.2], 24), "free", 1.0, box_inertia(1.0, [0.2, 0.2, 0.2]))]
    scene = Scene(bodies, [])
    for _ in range(20):
        st = make_state(scene)
        st.q[:, 3:] = quat_normalize(rng.standard_normal((2, 4)))
        st.v = 3.0 * rng.standard_normal(12)
        c = bias_force(scene, st).reshape(2, 6)
        assert not c[:, 3:].any()


def test_free_fall_and_gravity_compensation():
    scene = free_sphere_scene()
    st = make_state(scene, {"ball": Pose(np.array([0, 0, 5.0]), np.array([1.0, 0, 0, 0]))})
    acc = forward_dynamics(scene, st, np.zeros(6))
    np.testing.assert_allclose(acc, [0, 0, -9.81, 0, 0, 0], atol=1e-12)
    tau = inverse_dynamics(scene, st, np.zeros(6))
    np.testing.assert_allclose(tau, bias_force(scene, st), atol=1e-12)
    np.testing.assert_allclose(inverse_dynamics(scene, st, np.array([0, 0, -9.81, 0, 0, 0.0])), 0.0, atol=1e-12)


def test_forward_inverse_round_trip():
    rng = np.random.default_rng(3)
    s1 = sphere_aopc(0.5, 54)
    b2 = box_aopc([0.7, 0.5, 0.6], 54)
    bodies = [Body("a", s1, "free", 1.3, sphere_inertia(1.3, 0.5)),
              Body("b", b2, "free", 0.8, box_inertia(0.8, [0.7, 0.5, 0.6]))]
    scene = Scene(bodies, [("a", "b")])
    for _ in range(20):
        q = np.zeros((2, 7))
        q[:, :3] = rng.standard_normal((2, 3)) * 0.5
        q[:, 3:] = quat_normalize(rng.standard_normal((2, 4)))
        st = SceneState(0.0, q, rng.standard_normal(12))
        tau0 = rng.standard_normal(12)
        acc = forward_dynamics(scene, st, tau0)
        tau1 = inverse_dynamics(scene, st, acc)
        assert np.abs(tau1 - tau0).max() / max(1.0, np.abs(tau0).max()) < 1e-9


def test_empty_pairs_zero_contact():
    scene = free_sphere_scene()
    st = make_state(scene)
    np.testing.assert_array_equal(total_contact_force(scene, st), np.zeros(6))


def test_symmetric_sphere_collision_accelerations():
    s = sphere_aopc(0.5, 150)
    bodies = [Body("a", s, "free", 1.0, sphere_inertia(1.0, 0.5)),
              Body("b", s, "free", 1.0, sphere_inertia(1.0, 0.5))]
    scene = Scene(bodies, [("a", "b")], gravity=np.zeros(3))
    st = make_state(scene, {"a": Pose(np.array([0, 0, 0.0]), np.array([1.0, 0, 0, 0])),
                            "b": Pose(np.array([0.9, 0, 0.0]), np.array([1.0, 0, 0, 0]))})
    acc = forward_dynamics(scene, st, np.zeros(12))
    np.testing.assert_allclose(acc[:3], -acc[6:9], atol=1e-10)
    assert acc[0] < 0 < acc[6]


def test_spinning_top_matches_euler_equations():
    # independent oracle: body-frame Euler equations integrated by scipy
    inertia = np.diag([0.02, 0.05, 0.09])
    bx = box_aopc([0.3, 0.2, 0.1], 24)
    scene = Scene([Body("b", bx, "free", 1.2, inertia)], [], gravity=np.zeros(3))
    st = make_state(scene)
    st.v[3:] = [3.0, -1.0, 2.0]
    res = rollout(scene, st, 1e-3, 300, "rk4", record_separation=False)
    fin = res.states[-1]
    R = quat_to_matrix(fin.q[0, 3:])

    def euler_body(t, wb):
        return np.linalg.solve(inertia, np.cross(inertia @ wb, wb))

    sol = solve_ivp(euler_body, (0, 0.3), st.v[3:], rtol=1e-11, atol=1e-13)
    wb_ref = sol.y[:, -1]
    wb_ours = R.T @ fin.v[3:]
    assert np.abs(wb_ours - wb_ref).max() < 1e-5
    # world angular momentum conserved by the continuous dynamics
    L0 = inertia @ st.v[3:]
    Lf = R @ inertia @ wb_ours
    assert np.abs(Lf - L0).max() < 1e-6


def test_step_examples():
    scene = free_sphere_scene(gravity=(0, 0, 0))
    st = make_state(scene, {"ball": Pose(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0, 0, 0]))})
    out = step(scene, st, 0.25, "euler")
    np.testing.assert_array_equal(out.q, st.q)
    np.testing.assert_array_equal(out.v, st.v)
    assert out.time == 0.25

    scene_g = free_sphere_scene()
    st = make_state(scene_g, {"ball": Pose(np.array([0, 0, 10.0]), np.array([1.0, 0, 0, 0]))})
    dt = 0.01
    out = step(scene_g, st, dt, "euler")
    np.testing.assert_allclose(out.v[2], -9.81 * dt, atol=1e-15)

    # RK4 integrates the quadratic free-fall trajectory exactly
    n = 100
    cur = st
    for _ in range(n):
        cur = step(scene_g, cur, dt, "rk4")
    t = n * dt
    np.testing.assert_allclose(cur.q[0, 2], 10.0 - 0.5 * 9.81 * t**2, atol=1e-12)
    with pytest.raises(ValueError, match="integrator"):
        step(scene_g, st, dt, "leapfrog")
    for dt in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            step(scene_g, st, dt, "euler")


@pytest.mark.parametrize("poses, velocities, name", [
    ({"nosuch": Pose.identity()}, None, "nosuch"),
    (None, {"nosuch": np.zeros(6)}, "nosuch"),
    ({"ground": Pose.identity()}, None, "ground"),
])
def test_make_state_rejects_names_that_are_not_free_bodies(poses, velocities, name):
    scene, _ = _batching_scene()
    with pytest.raises(ValueError, match=f"^body '{name}' is not a free body of the scene$"):
        make_state(scene, poses, velocities)


@pytest.mark.parametrize("velocities, time, message", [
    ({"ball": [0, 0, np.nan, 0, 0, 0]}, 0.0, "state has a non-finite velocity coordinate vz of body ball"),
    ({"middle": [0, 0, 0, 0, np.inf, 0]}, 0.0, "state has a non-finite velocity coordinate wy of body middle"),
    ({"lower": [0.0] * 5}, 0.0, "velocity of body 'lower' must be 6 numbers, got 5"),
    (None, np.nan, "state has a non-finite time"),
    (None, -np.inf, "state has a non-finite time"),
])
def test_make_state_rejects_a_nonfinite_time_or_velocity(velocities, time, message):
    scene, _ = _batching_scene()
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_state(scene, None, velocities, time)


def test_kinematic_motions():
    lin = LinearMotion(Pose(np.zeros(3), np.array([1.0, 0, 0, 0])), [1.0, 0, 0], [0, 0, 0.5])
    p = lin.pose(2.0)
    np.testing.assert_allclose(p.translation, [2, 0, 0], atol=1e-15)
    np.testing.assert_allclose(lin.velocity(2.0), [1, 0, 0, 0, 0, 0.5], atol=1e-15)

    spline = SplineMotion([0.0, 1.0, 2.0], [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    np.testing.assert_allclose(spline.pose(0.0).translation, [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(spline.pose(2.0).translation, [1, 1, 0], atol=1e-12)
    np.testing.assert_allclose(spline.velocity(0.0)[:3], 0.0, atol=1e-12)  # clamped ends
    np.testing.assert_allclose(spline.velocity(5.0), 0.0, atol=0)  # held beyond range
    mid = spline.pose(0.5).translation
    assert 0 < mid[0] < 1

    with pytest.raises(ValueError, match="increasing"):
        SplineMotion([0.0, 0.0, 1.0], [[0, 0, 0], [1, 0, 0], [1, 1, 0]])


_START = Pose(np.zeros(3), np.array([1.0, 0, 0, 0]))
_WAYPOINTS = [[0, 0, 0], [1, 0, 0], [1, 1, 0]]


@pytest.mark.parametrize("make, message", [
    (lambda: LinearMotion(_START, [np.nan, 0, 0]), "LinearMotion linear_velocity contains a non-finite entry at index 0"),
    (lambda: LinearMotion(_START, [0, 0, 0], [np.nan, 0, 0]),
     "LinearMotion angular_velocity contains a non-finite entry at index 0"),
    (lambda: SplineMotion([0.0, np.nan, 2.0], _WAYPOINTS), "spline times contains a non-finite entry at index 1"),
    (lambda: SplineMotion([0.0, 1.0, 2.0], [[0, 0, 0], [1, np.nan, 0], [1, 1, 0]]),
     r"spline positions contains a non-finite entry at index \(1, 1\)"),
    (lambda: SplineMotion([0.0, 1.0, 2.0], _WAYPOINTS, [np.inf, 0, 0, 0]),
     "spline quaternion contains a non-finite entry at index 0"),
    (lambda: SplineMotion([0.0, 1.0, 2.0], _WAYPOINTS, [0, 0, 0, 0]), "spline quaternion must be nonzero"),
    (lambda: Scene([], [], gravity=[0, 0, np.nan]), "gravity contains a non-finite entry at index 2"),
    (lambda: LinearMotion(_START, [1.0, 0.0]), r"LinearMotion linear_velocity must be 3 numbers, got shape \(2,\)"),
    (lambda: LinearMotion(_START, [0, 0, 0], [[0.0, 0.0, 1.0]]),
     r"LinearMotion angular_velocity must be 3 numbers, got shape \(1, 3\)"),
    (lambda: StaticMotion(None), "StaticMotion pose must be a Pose, got None"),
], ids=["linear_velocity", "angular_velocity", "spline_time", "spline_position", "spline_quaternion_inf",
        "spline_quaternion_zero", "scene_gravity", "linear_velocity_shape", "angular_velocity_shape", "static_pose"])
def test_constructors_reject_nonfinite_input_by_name(make, message):
    # Each is rejected when built, not at the first pose(t) or step: a
    # 2-vector velocity would give velocity(t) 5 numbers, and _frames a
    # broadcast error naming no body.
    with pytest.raises(ValueError, match=rf"^{message}$"):
        make()


def test_kinematic_body_advances_in_rollout():
    s = sphere_aopc(0.3, 24)
    mover = Body("m", s, "kinematic", motion=LinearMotion(Pose(np.zeros(3), np.array([1.0, 0, 0, 0])), [0.5, 0, 0]))
    scene = Scene([mover], [])
    st = make_state(scene)
    res = rollout(scene, st, 0.1, 5, "rk4", record_separation=False)
    text = trajectory_csv(scene, res)
    last = text.strip().splitlines()[-1].split(",")
    assert last[1] == "m"
    np.testing.assert_allclose(float(last[2]), 0.25, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reported_with_coordinate():
    s = sphere_aopc(0.5, 54)
    ground = box_aopc([3, 3, 0.4], 54)
    bodies = [Body("ball", s, "free", 1.0, sphere_inertia(1.0, 0.5)),
              Body("ground", ground, "kinematic",
                   motion=StaticMotion(Pose(np.array([0, 0, -0.2]), np.array([1.0, 0, 0, 0]))))]
    from softcontact.contact import ContactParams

    scene = Scene(bodies, [("ball", "ground")], params=ContactParams(k=1e9, v_s=1e-6))
    st = make_state(scene, {"ball": Pose(np.array([0, 0, 0.3]), np.array([1.0, 0, 0, 0]))})
    with pytest.raises(DivergenceError, match="ball"):
        rollout(scene, st, 0.5, 50, "euler", record_separation=False)


def test_inertia_helpers():
    np.testing.assert_allclose(sphere_inertia(2.0, 0.5), 0.2 * np.eye(3), atol=1e-15)
    bi = box_inertia(12.0, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.diag(bi), [13.0, 10.0, 5.0], atol=1e-12)
    com, inertia = composite_box_inertia(1.0, [((1, 1, 1), (0, 0, 0.5)), ((1, 1, 1), (0, 0, -0.5))])
    np.testing.assert_allclose(com, 0.0, atol=1e-15)
    assert inertia[2, 2] < inertia[0, 0]  # mass spread along z grows Ixx


def test_equilibrium_penetration_force_balance():
    # at the analytic balance depth the vertical contact force equals gravity
    from softcontact.contact import ContactParams
    from scipy.optimize import brentq

    # resolution 150 gives an odd cubed-sphere grid (5 cells per edge), so a
    # patch center sits exactly at the pole and the single-point balance
    # analysis applies
    s = sphere_aopc(0.5, 150)
    assert abs(s.points[:, 2].min() + 0.5) < 1e-12
    ground = box_aopc([3, 3, 0.4], 150)
    params = ContactParams()
    bodies = [Body("ball", s, "free", 1.0, sphere_inertia(1.0, 0.5)),
              Body("ground", ground, "kinematic",
                   motion=StaticMotion(Pose(np.array([0, 0, -0.2]), np.array([1.0, 0, 0, 0]))))]
    scene = Scene(bodies, [("ball", "ground")], params=params)
    dstar = brentq(lambda d: params.k * float(softplus(np.array(d), params.eps3)) - 9.81, 1e-9, 0.1)
    st = make_state(scene, {"ball": Pose(np.array([0, 0, 0.5 - dstar]), np.array([1.0, 0, 0, 0]))})
    f = total_contact_force(scene, st)
    assert abs(f[2] - 9.81) / 9.81 < 0.1


@pytest.mark.parametrize("integrator, stages", [("rk4", 4), ("euler", 1)])
def test_rollout_reads_separation_off_the_first_stage(monkeypatch, integrator, stages):
    from softcontact import dynamics
    from softcontact.contact import ContactParams

    box = box_aopc([0.3, 0.3, 0.1], 24)
    ground = box_aopc([1.0, 1.0, 0.2], 54)
    inertia = box_inertia(1.0, [0.3, 0.3, 0.1])
    bodies = [Body("ground", ground, "kinematic", motion=StaticMotion(Pose(np.array([0, 0, -0.1]), np.array([1.0, 0, 0, 0])))),
              Body("lower", box, "free", 1.0, inertia), Body("upper", box, "free", 1.0, inertia)]
    scene = Scene(bodies, [("ground", "lower"), ("lower", "upper")], params=ContactParams(k=2e3, v_s=0.02))
    st = make_state(scene, {"lower": Pose(np.array([0, 0, 0.048]), np.array([1.0, 0, 0, 0])),
                            "upper": Pose(np.array([0.01, 0, 0.147]), np.array([1.0, 0, 0, 0]))},
                    {"upper": [0.05, 0, -0.1, 0, 0, 0.3]})
    calls = []
    pair_contact = dynamics._pair_contact
    monkeypatch.setattr(dynamics, "_pair_contact", lambda *a, **kw: calls.append(1) or pair_contact(*a, **kw))
    n = 3
    res = rollout(scene, st, 2e-3, n, integrator, record_separation=True)
    assert len(calls) == (stages * n + 1) * len(scene.pairs)
    expected = [dynamics._contact_force(scene, s)[1] for s in res.states]
    np.testing.assert_array_equal(res.min_separation, expected)
    assert res.min_separation.max() < 0  # both pairs in contact throughout
    calls.clear()
    res_off = rollout(scene, st, 2e-3, n, integrator, record_separation=False)
    assert len(calls) == stages * n * len(scene.pairs)
    assert np.isnan(res_off.min_separation).all() and res_off.min_separation.shape == (n + 1,)
    # Penetration is reported only where it was measured.
    assert res.max_penetration == -res.min_separation.min() > 0
    assert np.isnan(res_off.max_penetration)
    np.testing.assert_array_equal(res_off.states[-1].q, res.states[-1].q)


def _batching_scene():
    # Two groups of same-shape pairs: four 54 x 54 pairs (two chunks of two)
    # and two 24 x 54 pairs (one stack). The kinematic ground is in three
    # pairs, lower is a in one pair and b in another, and middle is b in
    # three.
    from softcontact.contact import ContactParams

    box = box_aopc([0.2, 0.2, 0.2], 54)
    inertia = box_inertia(1.0, [0.2, 0.2, 0.2])
    ground = Body("ground", box_aopc([0.6, 0.6, 0.6], 54), "kinematic",
                  motion=LinearMotion(Pose(np.array([0.05, 0.05, -0.3]), np.array([1.0, 0, 0, 0])), [0.02, 0, 0], [0, 0, 0.1]))
    bodies = [Body("lower", box, "free", 1.0, inertia), ground, Body("middle", box, "free", 1.0, inertia),
              Body("upper", box, "free", 1.0, inertia), Body("ball", sphere_aopc(0.1, 24), "free", 0.5, sphere_inertia(0.5, 0.1))]
    pairs = [("ground", "lower"), ("ground", "middle"), ("lower", "middle"), ("upper", "middle"),
             ("ball", "ground"), ("ball", "lower")]
    scene = Scene(bodies, pairs, params=ContactParams(k=2e3, v_s=0.02))
    rng = np.random.default_rng(8)
    poses = {name: Pose(np.array(t), quat_normalize(np.array([1.0, 0, 0, 0]) + 0.02 * rng.standard_normal(4)))
             for name, t in (("lower", [0, 0, 0.098]), ("middle", [0.195, 0, 0.097]),
                             ("upper", [0.2, 0.01, 0.293]), ("ball", [-0.05, 0.195, 0.097]))}
    velocities = {name: 0.05 * rng.standard_normal(6) for name in poses}
    return scene, make_state(scene, poses, velocities)


def _pair_by_pair(scene, state):
    from softcontact.collision import separation_field
    from softcontact.contact import ssdf_ssdf_force
    from softcontact.dynamics import pose_all

    world = pose_all(scene, state)
    fields = [separation_field(world[ia], world[ib], scene.params.eps1, scene.params.eps2) for ia, ib in scene.pair_indices]
    force = sum(ssdf_ssdf_force(world[ia], world[ib], f, scene.params) for (ia, ib), f in zip(scene.pair_indices, fields))
    return force, min(float(np.min(f.values.real)) for f in fields)


def test_stacked_pairs_match_pair_by_pair_forces(monkeypatch):
    from softcontact import dynamics
    from softcontact.verify import cs_gradient, flatten_state, unflatten_state

    # A chunk bound of two 54 x 54 pairs splits that group into two chunks.
    monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 2 * 54 * 54)
    scene, st = _batching_scene()
    assert [len(pos) for pos, _ in scene._pair_chunks] == [2, 2, 2]
    got, sep = dynamics._contact_force(scene, st)
    want, want_sep = _pair_by_pair(scene, st)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert sep == want_sep < 0
    theta = flatten_state(st)
    g_got = cs_gradient(lambda t: dynamics._contact_force(scene, unflatten_state(scene, st, t))[0], theta)
    g_want = cs_gradient(lambda t: _pair_by_pair(scene, unflatten_state(scene, st, t))[0], theta)
    assert np.abs(g_got - g_want).max() <= 1e-12 * np.abs(g_want).max()


def _group_posing_scene():
    # Two free cubes of different sizes and a kinematic one share the
    # 24-point group, so each row must keep its own cloud; a 54-point ball is
    # a group of its own. "small" is b in the first pair and a in the second.
    from softcontact.contact import ContactParams

    small, large = box_aopc([0.2, 0.2, 0.2], 24), box_aopc([0.3, 0.3, 0.3], 24)
    assert small.num_points == large.num_points and not np.array_equal(small.points, large.points)
    slider = Body("slider", box_aopc([0.25, 0.25, 0.25], 24), "kinematic",
                  motion=LinearMotion(Pose(np.array([0.0, 0.0, -0.25]), np.array([1.0, 0, 0, 0])), [0.03, 0, 0], [0, 0, 0.2]))
    bodies = [Body("large", large, "free", 2.0, box_inertia(2.0, [0.3] * 3)), slider,
              Body("small", small, "free", 1.0, box_inertia(1.0, [0.2] * 3)),
              Body("ball", sphere_aopc(0.1, 54), "free", 0.5, sphere_inertia(0.5, 0.1))]
    scene = Scene(bodies, [("slider", "small"), ("small", "large"), ("ball", "large"), ("ball", "slider")],
                  params=ContactParams(k=2e3, v_s=0.02))
    rng = np.random.default_rng(10)
    poses = {name: Pose(np.array(t), quat_normalize(np.array([1.0, 0, 0, 0]) + 0.03 * rng.standard_normal(4)))
             for name, t in (("small", [0.0, 0.0, -0.03]), ("large", [0.245, 0.01, 0.0]), ("ball", [0.1, 0.3, 0.05]))}
    velocities = {name: 0.05 * rng.standard_normal(6) for name in poses}
    return scene, make_state(scene, poses, velocities, time=0.3)


def test_group_posing_matches_pose_all_bit_for_bit():
    from softcontact import dynamics
    from softcontact.verify import flatten_state, unflatten_state

    scene, st = _group_posing_scene()
    assert sorted(len(group[0]) for group in scene._groups) == [1, 3]
    theta = flatten_state(st).astype(complex)
    theta[11] += 1e-30j  # qx of "small"
    theta[-2] += 1e-30j  # an angular velocity of "ball"
    for state in (st, unflatten_state(scene, st, theta)):
        world = dynamics.pose_all(scene, state)
        posed = dynamics._pose_groups(scene, state)
        for (idx, *_), stack in zip(scene._groups, posed):
            for r, i in enumerate(idx):
                w = world[i]
                for got, want in ((stack.points[r], w.points), (stack.normals[r], w.normals),
                                  (stack.tangents[:, r], w.tangents), (stack.arms[:, r], w.arms),
                                  (stack.velocities[r], w.velocities),
                                  (stack.origin[r], w.origin), (stack.dof_start[r], w.dof_start)):
                    np.testing.assert_array_equal(got, want)


def test_contact_force_poses_by_group_only(monkeypatch):
    from softcontact import dynamics, geometry

    scene, st = _group_posing_scene()
    want, want_sep = _pair_by_pair(scene, st)

    def refuse(*args, **kwargs):
        raise AssertionError("the contact path posed a body on its own")

    for mod, name in ((dynamics, "pose_all"), (dynamics, "pose_aopc"), (geometry, "pose_aopc")):
        monkeypatch.setattr(mod, name, refuse)
    got, sep = dynamics._contact_force(scene, st)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert sep == want_sep < 0
    assert np.abs(got).max() > 1.0


@pytest.mark.parametrize("array, index, message", [
    ("q", (1, 2), "pose coordinate tz of body middle"),
    ("q", (2, 4), "pose coordinate qx of body upper"),
    ("v", 3, "velocity coordinate wx of body lower"),
    ("v", 23, "velocity coordinate wz of body ball"),
])
@pytest.mark.parametrize("imaginary", [False, True])
def test_nonfinite_state_names_body_and_coordinate(array, index, message, imaginary):
    import warnings

    scene, st = _batching_scene()
    if imaginary:
        st = SceneState(st.time, st.q.astype(complex), st.v.astype(complex))
    getattr(st, array)[index] = complex(0.1, np.nan) if imaginary else np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: forward_dynamics(scene, st), lambda: inverse_dynamics(scene, st, np.zeros(scene.n)),
                     lambda: total_contact_force(scene, st)):
            with pytest.raises(ValueError, match=f"^state has a non-finite {message}$"):
                call()


@pytest.mark.parametrize("name", ["tau", "vdot"])
def test_nonfinite_dynamics_input_names_body_and_coordinate(name):
    scene, st = _batching_scene()
    x = np.zeros(scene.n)
    x[8] = np.nan
    call = forward_dynamics if name == "tau" else inverse_dynamics
    with pytest.raises(ValueError, match=f"^{name} has a non-finite coordinate vz of body middle$"):
        call(scene, st, x)


def test_nonfinite_controls_name_time_body_and_coordinate():
    scene, st = _batching_scene()
    # The controls turn NaN at the last stage of the first RK4 step.
    scene.controls = lambda t: np.where(np.arange(scene.n) == 21, np.nan if t >= 2e-3 else 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^controls at t=0\.002 returned a non-finite coordinate wx of body ball$"):
        rollout(scene, st, 2e-3, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: box_aopc([np.nan, 0.1, 0.1], 24), AopcError, r"box size must be 3 positive finite extents, got \[nan, 0\.1, 0\.1\]"),
    (lambda: cylinder_aopc(0.1, np.inf, 64), AopcError, "cylinder height must be positive and finite, got inf"),
    (lambda: sphere_aopc(np.nan, 54), AopcError, "sphere radius must be positive and finite, got nan"),
    (lambda: rollout(*_batching_scene(), 2e-3, 2.5), ValueError, r"n_steps must be an integer, got 2\.5"),
], ids=["box_size", "cylinder_height", "sphere_radius", "rollout_n_steps"])
def test_bad_inputs_name_their_parameter(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_rollout_rejects_a_negative_step_count():
    scene, st = _batching_scene()
    with pytest.raises(ValueError, match="n_steps must be nonnegative, got -2"):
        rollout(scene, st, 2e-3, -2)
    assert len(rollout(scene, st, 2e-3, 0).states) == 1


def test_rollout_refuses_steps_whose_states_cannot_fit_in_memory():
    # 10^15 kept states of 16 boxes hold far more than physical memory: the
    # call is refused at once, before any step or helper.
    scene, st = _batching_scene()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^n_steps 1000000000000000 would keep .* bytes of physical memory$"):
        rollout(scene, st, 2e-3, 10**15)
    assert time.perf_counter() - start < 5.0
    assert scene._helper is None


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_every_bundled_duration_fits_in_memory(name):
    # The step count simulate takes for each bundled config passes the check.
    from softcontact.config import load_config
    from softcontact.dynamics import _check_n_steps

    cfg = load_config(os.path.join(CONFIG_DIR, name))
    _check_n_steps(int(cfg.world.duration / cfg.world.dt * (1.0 + 1e-9)), cfg.state)


def _config_state(name, complex_v=False):
    from softcontact.config import load_config

    cfg = load_config(os.path.join(CONFIG_DIR, name))
    st = cfg.state.copy()
    if complex_v:
        st.v = st.v.astype(complex)
        st.v[1] += 1e-30j
    return cfg.scene, st


@pytest.mark.parametrize("name, complex_v", [("stacked_boxes.json", False), ("sphere_pair.json", True)])
def test_warm_contact_force_allocates_no_pair_sized_array(name, complex_v):
    # After one call has sized this thread's scratch, the (P, Q, I) arrays
    # of a contact evaluation come from it: the traced peak stays below one
    # direction's (Q, I) array.
    from softcontact import dynamics

    scene, st = _config_state(name, complex_v)
    (ia, ib), = scene.pair_indices
    qi_bytes = scene.bodies[ia].aopc.num_points * scene.bodies[ib].aopc.num_points * st.v.itemsize
    dynamics._contact_force(scene, st)
    tracemalloc.start()
    try:
        dynamics._contact_force(scene, st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < qi_bytes


def _in_new_thread(fn):
    """fn() run in a thread of its own, so with an empty scratch."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and len(out) == 1
    return out[0]


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_contact_scratch_reuse_keeps_results_bit_for_bit():
    # One 144 x 144 chunk and three chunks of 54 x 54 and 24 x 54 pairs,
    # real and complex-step, interleaved so every evaluation finds buffers
    # and cached views the one before left in a different shape or dtype.
    from softcontact import dynamics
    from softcontact.collision import separation_field
    from softcontact.ssdf import ssdf

    cases = []
    for scene, st in (_config_state("stacked_boxes.json"), _batching_scene()):
        cs = st.copy()
        cs.v = cs.v.astype(complex)
        cs.v[2] += 1e-30j
        cases += [(scene, st), (scene, cs)]
    scene, st = cases[2]
    world = dynamics.pose_all(scene, st)
    ia, ib = scene.pair_indices[0]
    kept = separation_field(world[ia], world[ib], scene.params.eps1, scene.params.eps2)
    b_in_a, a_in_b = ssdf(world[ia], world[ib].points, scene.params.eps1), ssdf(world[ib], world[ia].points, scene.params.eps1)
    kept_arrays = (kept.values, kept.distribution, b_in_a.weights, b_in_a.plane_distances,
                   a_in_b.weights, a_in_b.plane_distances)
    snapshot = [a.copy() for a in kept_arrays]
    first = [_in_new_thread(lambda c=c: dynamics._contact_force(*c, per_pair=True)) for c in cases]
    for k in (0, 3, 1, 2, 2, 0, 3, 1):
        scene, st = cases[k]
        got = dynamics._contact_force(scene, st, per_pair=True)
        _assert_same_bits(got, first[k])
        want, want_sep = _pair_by_pair(scene, st)
        assert np.abs(got[0] - want).max() <= 1e-12 * np.abs(want).max()
        assert got[1] == want_sep
    for a, b in zip(kept_arrays, snapshot):
        _assert_same_bits((a,), (b,))


def test_threads_share_one_scene_with_their_own_scratch():
    # More threads than cores, each at its own state of one shared Scene,
    # with frequent switches: a scratch shared between threads would mix
    # their (P, Q, I) arrays.
    from softcontact import dynamics

    scene, base = _config_state("stacked_boxes.json")
    states = []
    for k in range(4):
        st = base.copy()
        st.q[1, 0] += 0.01 * k
        st.v[2] -= 0.1 * k
        if k % 2:
            st.v = st.v.astype(complex)
            st.v[0] += 1e-30j
        states.append(st)
    serial = [dynamics._contact_force(scene, st, per_pair=True) for st in states]
    results = [[] for _ in states]

    def work(k):
        for _ in range(4):
            results[k].append(dynamics._contact_force(scene, states[k], per_pair=True))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, want in zip(results, serial):
        assert len(runs) == 4
        for got in runs:
            _assert_same_bits(got, want)


def test_contact_scratch_holds_one_block_whatever_the_cloud_size():
    # Two 216-point spheres, then two 864-point ones, with a complex-step v:
    # the arena holds one query block's arrays either way, and only the
    # per-query and per-plane rows, O(Q + I), grow with the clouds.
    from softcontact import core, dynamics
    from softcontact.contact import ContactParams

    def arena_bytes(resolution):
        ball = sphere_aopc(0.3, resolution)
        scene = Scene([Body(name, ball, "free", 1.0, sphere_inertia(1.0, 0.3)) for name in "ab"], [("a", "b")],
                      gravity=np.zeros(3), params=ContactParams(eps1=1e-3, eps2=1e-2, eps3=1e-2))
        st = make_state(scene, {"b": Pose(np.array([0.0, 0.0, 0.58]), np.array([1.0, 0, 0, 0]))})
        st.v = st.v.astype(complex)
        st.v[1] += 1e-30j

        def warm():
            dynamics._contact_force(scene, st)
            dynamics._contact_force(scene, st)
            return core._ARENA.scratch._size

        return _in_new_thread(warm)

    small, large = arena_bytes(216), arena_bytes(864)
    assert abs(large - small) <= dynamics._CHUNK_ENTRIES * np.dtype(complex).itemsize


def test_complex_step_arena_is_no_larger_than_the_real_one():
    # Query blocks are bounded in bytes, so a complex-step evaluation takes
    # half the rows per block and its arena outgrows the real one only by
    # the per-query and per-plane rows: here no more than 32 complex entries
    # per point of either cloud.
    from softcontact import core, dynamics

    scene, st = _config_state("sphere_pair.json")
    cs = st.copy()
    cs.q, cs.v = cs.q.astype(complex), cs.v.astype(complex)
    cs.q[1, 0] += 1e-30j

    def warm(state):
        def run():
            dynamics._contact_force(scene, state, per_pair=True)
            dynamics._contact_force(scene, state, per_pair=True)
            return core._ARENA.scratch._size
        return _in_new_thread(run)

    points = sum(b.aopc.num_points for b in scene.bodies)
    assert warm(cs) <= warm(st) + 32 * np.dtype(complex).itemsize * points


def _complex_query_sums(cloud, points, velocities, params, out=None):
    # contact._query_sums in complex arithmetic throughout, as the kernel
    # computed a complex step before it carried tangents as real arrays:
    # one block of every query, complex matmuls, np.exp, complex division,
    # and the first-order softplus and dissipation_factor. Planes are on
    # axis -2 here.
    from softcontact.contact import _plane_matrices, dissipation_factor
    from softcontact.core import Scratch
    from softcontact.ssdf import _query_rows

    geo = np.result_type(cloud.points, cloud.normals, points)
    dtype = np.result_type(geo, cloud.arms, cloud.velocities, velocities)
    S, F, M = _plane_matrices(cloud, params, geo, dtype, Scratch())
    L = np.swapaxes(S, -1, -2) @ _query_rows(points)[..., None, :, :]
    logits, nphi = L[..., 0, :, :], L[..., 1, :, :]
    e = np.exp(logits - np.max(logits.real, axis=-2, keepdims=True))
    w = e / np.sum(e, axis=-2, keepdims=True)
    X = np.swapaxes(F, -1, -2) @ _query_rows(velocities, -1.0)[..., None, :, :]
    x, a, b = X[..., 0, :, :], X[..., 1, :, :], X[..., 2, :, :]
    W = w * softplus(nphi, params.eps3, check=False) * dissipation_factor(x)
    r = W / np.sqrt(1.0 + a * a + b * b)
    gt = params.k * np.sum(M @ np.stack([W, a * r, b * r], axis=-3), axis=-3)
    return -np.sum(w * nphi, axis=-2), np.swapaxes(gt, -1, -2)


def _complex_step(st, part, seed):
    # st with a 1e-30j step along a random direction of q or of v.
    cs = st.copy()
    x = getattr(cs, part).astype(complex)
    x += 1e-30j * np.random.default_rng(seed).standard_normal(x.shape)
    setattr(cs, part, x)
    return cs


@pytest.mark.parametrize("name", ["sphere_pair", "stacked_boxes", "push_t_1", "batching"])
@pytest.mark.parametrize("part", ["q", "v"])
def test_complex_step_contact_matches_all_complex_arithmetic(monkeypatch, name, part):
    # The kernel runs a complex step as real parts with real tangents beside
    # them; its per-pair result must be the all-complex arithmetic's to
    # 1e-12 of each output's largest magnitude, real and imaginary parts
    # alike. The configs' states get velocities, so that the dissipation
    # factor and the friction vary; the batching scene has them, stacked
    # chunks and one-row sides.
    from softcontact import contact, dynamics

    if name == "batching":
        scene, st = _batching_scene()
    else:
        scene, st = _config_state(name + ".json")
        st.v = 0.05 * np.random.default_rng(2).standard_normal(st.v.shape)
    cs = _complex_step(st, part, 3)
    got = dynamics._contact_force(scene, cs, per_pair=True)
    monkeypatch.setattr(contact, "_query_sums", _complex_query_sums)
    want = dynamics._contact_force(scene, cs, per_pair=True)
    assert np.max(np.abs(want[0].imag)) > 0
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype
        for gp, wp in ((g.real, w.real), (g.imag, w.imag)):
            assert np.max(np.abs(gp - wp)) <= 1e-12 * np.max(np.abs(wp))


def test_complex_step_query_blocks_take_only_real_arrays(monkeypatch):
    # Every array a complex-step _query_sums takes from the arena inside its
    # query blocks (two levels below its entry) is real, for a step in q and
    # one in v: the tangent rides in real arrays.
    from softcontact import contact, core, dynamics

    scene, st = _config_state("sphere_pair.json")
    taken = []
    empty = core.Scratch.empty

    def recording(self, shape, dtype=float):
        taken.append((len(self._marks), np.dtype(dtype)))
        return empty(self, shape, dtype)

    monkeypatch.setattr(core.Scratch, "empty", recording)
    for part in ("q", "v"):
        (_, _, a, b), = dynamics._pair_walk(scene, _complex_step(st, part, 5))

        def run():
            taken.clear()
            value, gt = contact._query_sums(a, b.points, b.velocities, scene.params)
            return value.dtype, gt.dtype, [dtype for depth, dtype in taken if depth >= 2]

        value_dtype, gt_dtype, in_blocks = _in_new_thread(run)
        assert gt_dtype == complex and value_dtype == (complex if part == "q" else float)
        assert in_blocks and all(dtype.kind == "f" for dtype in in_blocks)


def test_consecutive_chunk_rows_are_cut_as_views():
    # stacked_boxes' one pair takes rows 0 and 1 of one posed group: _rows
    # cuts them as views, so a warm evaluation copies no posed array.
    from softcontact import dynamics

    scene, st = _config_state("stacked_boxes.json")
    posed = dynamics._pose_groups(scene, st)
    (side_a, side_b), = scene._chunk_sides
    for g, rows in (side_a, side_b):
        assert isinstance(rows, slice)
        cut = dynamics._rows(posed[g], rows)
        for name in ("points", "normals", "tangents", "arms", "velocities"):
            assert np.shares_memory(getattr(cut, name), getattr(posed[g], name))


def _clear_of_kinks_pair_by_pair(scene, state, margin):
    # The sampler's rule pair by pair from pose_all: an entry counts when its
    # query's separation weight (the eps2 softmax of both directions' SSDF
    # values) times its softmin weight over the planes exceeds 1e-8.
    from softcontact import dynamics
    from softcontact.core import softmax
    from softcontact.ssdf import ssdf

    world, params = dynamics.pose_all(scene, state), scene.params
    for ia, ib in scene.pair_indices:
        a, b = world[ia], world[ib]
        r_ba, r_ab = ssdf(a, b.points, params.eps1), ssdf(b, a.points, params.eps1)
        coeff = softmax(-np.concatenate([r_ba.value, r_ab.value]), params.eps2)
        for cloud, qs, c, w in ((a, b, coeff[:b.num_points], r_ba.weights), (b, a, coeff[b.num_points:], r_ab.weights)):
            x = (qs.velocities @ cloud.normals.T - np.sum(cloud.velocities * cloud.normals, axis=-1)) / params.v_d
            if np.any((c[:, None] * w > 1e-8) & ((np.abs(x) < margin) | (np.abs(x - 2.0) < margin))):
                return False
    return True


def test_kink_test_on_the_pair_walk_matches_the_pair_by_pair_rule(monkeypatch):
    # 240 states perturbed as sample_nondegenerate_state perturbs them, over
    # four scenes: a kinematic body (push_t_1 and the batching scene),
    # stacked sides, and with two 54 x 54 pairs per chunk one-row sides for
    # the ground, middle and ball. At margins 0.05 and 0.002 in turn, the
    # stacked test of each chunk decides as the pair-by-pair rule does, and
    # both decisions occur in every scene.
    from softcontact import dynamics
    from softcontact.verify import _state_clear_of_kinks

    scenes = [_config_state(name) for name in ("sphere_pair.json", "stacked_boxes.json", "push_t_1.json")]
    monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 2 * 54 * 54)
    scenes.append(_batching_scene())
    rng = np.random.default_rng(21)
    for scene, base in scenes:
        decisions = set()
        for margin in (0.05, 0.002) * 30:
            q = base.q.copy()
            q[:, :3] += 0.1 * rng.standard_normal(q[:, :3].shape)
            q[:, 3:] = quat_normalize(q[:, 3:] + 0.2 * rng.standard_normal(q[:, 3:].shape))
            st = SceneState(base.time, q, base.v + scene.params.v_d * rng.standard_normal(scene.n))
            got = _state_clear_of_kinks(scene, st, margin)
            assert got == _clear_of_kinks_pair_by_pair(scene, st, margin)
            decisions.add(got)
        assert decisions == {True, False}


def test_kink_test_matches_the_pair_by_pair_rule_across_query_blocks(monkeypatch):
    # The same states and decisions with the kink test's query blocks cut
    # to 600 entries: every direction of every scene spans several blocks
    # of 2 to 12 queries (two 54 x 54 pairs take 5 a block), so the values
    # and peaks that meet in the softmax come from many blocks.
    import importlib

    monkeypatch.setattr(importlib.import_module("softcontact.ssdf"), "_CHUNK_ENTRIES", 600)
    test_kink_test_on_the_pair_walk_matches_the_pair_by_pair_rule(monkeypatch)


def test_repeated_chunk_sides_are_cut_once_as_broadcast_views(monkeypatch):
    # With two 54 x 54 pairs per chunk, the kinematic ground is side a of
    # the first chunk on both rows, middle side b of the second and ball
    # side a of the 24 x 54 stack. Each such side is a one-row slice view of
    # its posed group, which the kernel broadcasts against the other side's
    # two rows, and the forces and separations match pair by pair.
    from softcontact import dynamics
    from softcontact.collision import separation_field, soft_separation_distance

    monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 2 * 54 * 54)
    scene, st = _batching_scene()
    posed = dynamics._pose_groups(scene, st)
    repeated = [(scene.bodies[chunk[0, side]].name, g, rows)
                for (_, chunk), sides in zip(scene._pair_chunks, scene._chunk_sides)
                for side, (g, rows) in enumerate(sides) if len(set(chunk[:, side])) == 1 < len(chunk)]
    assert [name for name, *_ in repeated] == ["ground", "middle", "ball"]
    for _, g, rows in repeated:
        assert isinstance(rows, slice) and rows.stop - rows.start == 1
        cut = dynamics._rows(posed[g], rows)
        for name in ("points", "normals", "tangents", "arms", "velocities"):
            x = getattr(cut, name)
            assert np.shares_memory(x, getattr(posed[g], name)) and x.shape[-3] == 1
    force, min_sep, seps = dynamics._contact_force(scene, st, per_pair=True)
    want, want_sep = _pair_by_pair(scene, st)
    assert np.abs(force - want).max() <= 1e-12 * np.abs(want).max()
    assert min_sep == want_sep
    world = dynamics.pose_all(scene, st)
    for (ia, ib), sep in zip(scene.pair_indices, seps):
        fld = separation_field(world[ia], world[ib], scene.params.eps1, scene.params.eps2)
        assert sep == soft_separation_distance(fld)


def test_contact_that_is_not_finite_names_the_pair():
    # upper's x = 1e200 is finite, so the state check passes, but the posed
    # |p|^2 overflows and the pair's contact sums are not finite. The named
    # error is all that surfaces: no numpy warning comes before it.
    scene, st = _config_state("stacked_boxes.json")
    st.q[scene.free_indices.index(scene.body_index("upper")), 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^contact between lower and upper is not finite$"):
            forward_dynamics(scene, st)


def test_warm_contact_force_takes_no_cross_product(monkeypatch):
    # The moment arms are posed from the body frame and point velocities
    # come from one matmul: a contact evaluation calls no np.cross.
    from softcontact import dynamics

    scene, st = _config_state("stacked_boxes.json")
    want = dynamics._contact_force(scene, st)

    def refuse(*args, **kwargs):
        raise AssertionError("the contact path took a cross product")

    monkeypatch.setattr(np, "cross", refuse)
    got = dynamics._contact_force(scene, st)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_sdf_grid_leaves_no_more_arena_than_a_contact_evaluation():
    # sample_sdf_grid walks the lattice in chunks of _CHUNK_ENTRIES entries,
    # so on the box_slice body (800 points) the thread's arena stays within
    # a warm stacked_boxes contact evaluation's.
    from softcontact import core, dynamics
    from softcontact.config import load_config
    from softcontact.ssdf import sample_sdf_grid

    box = load_config(os.path.join(CONFIG_DIR, "box_slice.json")).scene.bodies[0].aopc
    scene, st = _config_state("stacked_boxes.json")

    def grid():
        sample_sdf_grid(box, (-np.ones(3), np.ones(3)), (21, 21, 21), 0.01)
        return core._ARENA.scratch._size

    def contact():
        dynamics._contact_force(scene, st)
        dynamics._contact_force(scene, st)
        return core._ARENA.scratch._size

    assert 0 < _in_new_thread(grid) <= _in_new_thread(contact)


def _arena_held(arena):
    """(top, open blocks) of a Scratch: (0, 0) when nothing is taken."""
    return arena._top, len(arena._marks)


def test_kernel_error_inside_pair_contact_leaves_the_arena_empty():
    # A complex-step q whose imaginary part is 1e-6 makes softmax's step
    # check raise deep inside _pair_contact's nested blocks. A complex-step
    # v cannot: velocities reach only the dissipation factor and friction,
    # which take no step check.
    from softcontact import core, dynamics

    scene, st = _config_state("sphere_pair.json", complex_v=True)
    bad = st.copy()
    bad.q = bad.q.astype(complex)
    bad.q[1, 0] += 1e-6j
    want = _in_new_thread(lambda: dynamics._contact_force(scene, st, per_pair=True))

    def run():
        dynamics._contact_force(scene, st)
        error = None
        try:
            dynamics._contact_force(scene, bad)
        except ValueError as e:
            error = str(e)
        held = _arena_held(core._ARENA.scratch)
        return error, held, dynamics._contact_force(scene, st, per_pair=True)

    error, held, got = _in_new_thread(run)
    assert error is not None and error.startswith("complex-step perturbation")
    assert held == (0, 0)
    _assert_same_bits(got, want)


def test_calls_outside_contact_leave_the_arena_empty():
    from softcontact import core, dynamics
    from softcontact.collision import separation_field
    from softcontact.contact import point_plane_force, point_ssdf_force
    from softcontact.ssdf import ssdf

    scene, st = _config_state("stacked_boxes.json")
    params = scene.params
    a, b = dynamics.pose_all(scene, st)
    unit = np.array([1.0, 0, 0, 0])
    calls = {
        "ssdf": lambda: ssdf(a, b.points, params.eps1),
        "separation_field": lambda: separation_field(a, b, params.eps1, params.eps2),
        "point_plane_force": lambda: point_plane_force(b.points, b.velocities, a.points[0], a.normals[0], params),
        "point_ssdf_force": lambda: point_ssdf_force(a, b.points[0], b.velocities[0], np.zeros((3, scene.n)), params),
        "Pose": lambda: Pose(np.zeros(3), unit),
        "rejected Pose": lambda: Pose(np.array([0.0, np.nan, 0.0]), unit),
    }

    def run():
        held = {}
        for name, call in calls.items():
            try:
                call()
            except ValueError:
                pass
            held[name] = _arena_held(core._ARENA.scratch)
        return held

    assert _in_new_thread(run) == {name: (0, 0) for name in calls}


def test_arena_view_cache_stops_growing():
    # Views are cached by (offset, shape, dtype): once an operation has met
    # its shapes, repeating it adds none.
    from softcontact import core
    from softcontact.config import load_config
    from softcontact.verify import check_pipeline_gradients, sample_nondegenerate_state

    cfg = load_config(os.path.join(CONFIG_DIR, "sphere_pair.json"))
    rng = np.random.default_rng(0)
    states = [sample_nondegenerate_state(cfg.scene, rng, cfg.state, vel_scale=cfg.scene.params.v_d) for _ in range(4)]

    def run():
        counts = []
        for st in states:
            check_pipeline_gradients(cfg.scene, st)
            counts.append(len(core._ARENA.scratch._views))
        return counts

    counts = _in_new_thread(run)
    assert counts[1:] == [counts[1]] * 3


# ---------------------------------------------------------------------------
# The rollout's contact helper process

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2,
                                reason="a contact helper needs os.fork and 2 CPUs")


def _serially(fn):
    """fn() with a second thread alive, so core._may_fork refuses and every
    rollout inside takes the serial path."""
    done = threading.Event()
    t = threading.Thread(target=done.wait, args=(120,))
    t.start()
    try:
        return fn()
    finally:
        done.set()
        t.join(timeout=120)
        assert not t.is_alive()


def _assert_same_rollouts(got, want):
    assert len(got.states) == len(want.states)
    for g, w in zip(got.states, want.states):
        assert g.time == w.time and np.array_equal(g.q, w.q) and np.array_equal(g.v, w.v)
    assert np.array_equal(got.min_separation, want.min_separation)


def _helper_scene(name):
    return _batching_scene() if name == "batching" else _config_state(name + ".json")


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this thread if the block runs for longer."""
    def expire(*args):
        raise TimeoutError(f"took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _gone(pid, timeout=60.0):
    """Whether pid is reaped or a zombie within timeout seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rpartition(")")[2].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


@needs_fork
@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("name, n_steps", [("stacked_boxes", 3), ("batching", 4), ("push_t_1", 6)])
def test_rollout_on_the_helper_matches_the_serial_path_bit_for_bit(name, n_steps, integrator):
    # stacked_boxes: one 144 x 144 chunk; the batching scene: index-array
    # sides, a one-row side and a kinematic body; push_t_1: spline motion and
    # controls.
    scene, st = _helper_scene(name)
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, n_steps, integrator)
    assert scene._helper is not None and scene._helper.stop.alive
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, n_steps, integrator)))


@needs_fork
def test_helper_takes_the_params_of_each_rollout():
    from softcontact.contact import ContactParams

    scene, st = _batching_scene()
    first = rollout(scene, st, 2e-3, 3)
    pid = scene._helper.pid
    scene.params = ContactParams(k=5e3, mu=0.3, v_s=0.01)
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, 3)
    assert scene._helper.pid == pid
    assert not np.array_equal(got.states[-1].v, first.states[-1].v)
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 3)))


@needs_fork
@pytest.mark.parametrize("name", ["push_t_1", "batching"])
def test_helper_rollouts_follow_a_replaced_motion_and_controls(name):
    # The helper was forked with the old motion: push_t_1's finger then
    # moves 3 cm off its start at 0.2 m/s along y, the batching scene's
    # ground stands still; then the controls change. Each next rollout on
    # the helper is the serial path's bit for bit.
    scene, st = _helper_scene(name)
    rollout(scene, st, 2e-3, 1)
    pid = scene._helper.pid
    body = scene.bodies[scene.body_index("finger" if name == "push_t_1" else "ground")]
    start = body.motion.pose(0.0)
    moved = (LinearMotion(Pose(start.translation + np.array([0.03, 0.0, 0.0]), start.quaternion), [0.0, 0.2, 0.0])
             if name == "push_t_1" else StaticMotion(start))
    for obj, attr, value in ((body, "motion", moved), (scene, "controls", lambda t: np.full(scene.n, 0.3))):
        setattr(obj, attr, value)
        with _time_limit(120):
            got = rollout(scene, st, 2e-3, 5)
        assert scene._helper.pid == pid
        _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 5)))


@needs_fork
@pytest.mark.parametrize("coordinate, value, message", [
    (0, 1e200, "^contact between upper and middle is not finite$"),
    (2, np.nan, "^state has a non-finite pose coordinate tz of body upper$"),
])
def test_helper_raises_the_serial_error_and_stays_in_step(coordinate, value, message):
    # upper's x = 1e200 overflows its posed |p|^2 in both directions of its
    # pair; a NaN is rejected before any chunk. Either way the helper's
    # replies for the failed evaluation are read, so the next rollout on the
    # same scene still pairs each chunk with its own reply.
    scene, st = _batching_scene()
    bad = st.copy()
    bad.q[scene.free_indices.index(scene.body_index("upper")), coordinate] = value
    errors = []
    for run in (lambda f: f(), _serially):
        with pytest.raises(ValueError, match=message) as err, _time_limit(120):
            run(lambda: rollout(scene, bad, 2e-3, 2))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert scene._helper.stop.alive
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, 2)
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 2)))


def test_an_overflowing_stacked_body_warns_nothing_before_its_error():
    # upper's x = 1e200 overflows inside the stacked chunk's matmul, which
    # must stay quiet: the error names the pair.
    scene, st = _batching_scene()
    bad = st.copy()
    bad.q[scene.free_indices.index(scene.body_index("upper")), 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^contact between upper and middle is not finite$"):
            step(scene, bad, 2e-3)


@pytest.mark.parametrize("dt, integrator", [(-1.0, "rk4"), (2e-3, "midpoint")])
def test_rollout_rejects_its_arguments_before_forking_a_helper(dt, integrator):
    scene, st = _batching_scene()
    with pytest.raises(ValueError, match="^(dt must be positive|unknown integrator)"):
        rollout(scene, st, dt, 2, integrator)
    assert scene._helper is None


@needs_fork
def test_helper_rollouts_pickle_nothing(monkeypatch):
    import pickle

    def refuse(*args, **kwargs):
        raise AssertionError("pickle was called")

    for name in ("dump", "dumps", "load", "loads"):
        monkeypatch.setattr(pickle, name, refuse)
    scene, st = _batching_scene()
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, 3)
    assert scene._helper is not None and scene._helper.stop.alive
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 3)))


@needs_fork
@pytest.mark.parametrize("part", [None, "q", "v"])
def test_the_owner_computes_one_direction_of_each_chunk(monkeypatch, part):
    # 2 RK4 steps and the final record are 9 evaluations. On a real state
    # each makes one _query_sums call per chunk in this process (a serial
    # evaluation, through contact, makes two); a complex step in q or v is
    # not carried to the helper, so it runs serially with two. Either way
    # the rollouts are the serial path's bit for bit.
    from softcontact import contact, dynamics

    scene, st = _batching_scene()
    if part:
        x = getattr(st, part).astype(complex)
        x.flat[1] += 1e-20j
        setattr(st, part, x)
    rollout(scene, st, 2e-3, 1)  # forks the helper before the count
    calls, real = [], contact._query_sums

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(contact, "_query_sums", counted)
    monkeypatch.setattr(dynamics, "_query_sums", counted)
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, 2)
    assert len(calls) == 9 * len(scene._pair_chunks) * (1 if part is None else 2)
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 2)))


@needs_fork
def test_a_helper_rollout_takes_no_more_arena_than_a_serial_step(monkeypatch):
    # One pair per chunk: the owner's own sums of every chunk are kept
    # outside the arena, so after a serial step its buffer does not grow,
    # and what allocates after the rollout meets the same malloc state.
    from softcontact import core, dynamics

    monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(core._ARENA, "scratch", core.Scratch())
    scene, st = _batching_scene()
    step(scene, st, 2e-3)
    size = core._ARENA.scratch._size
    with _time_limit(120):
        rollout(scene, st, 2e-3, 2)
    assert scene._helper is not None and len(scene._pair_chunks) == 6
    assert core._ARENA.scratch._size == size


@needs_fork
def test_a_dead_helper_is_reported_reaped_and_replaced():
    scene, st = _batching_scene()
    rollout(scene, st, 2e-3, 1)
    pid = scene._helper.pid
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=rf"^contact helper process {pid} exited"), _time_limit(60):
        rollout(scene, st, 2e-3, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    with _time_limit(120):
        got = rollout(scene, st, 2e-3, 2)
    assert scene._helper.pid != pid
    _assert_same_rollouts(got, _serially(lambda: rollout(scene, st, 2e-3, 2)))


@needs_fork
def test_gradient_column_workers_leave_an_inherited_helper_alone():
    # Each column of the checked map runs a 2-step rollout on a scene whose
    # helper is live. The caller's column uses it; a forked worker must not
    # (its replies would go to whichever process reads first), nor may it
    # start a helper of its own.
    from softcontact import dynamics
    from softcontact.verify import cs_gradient

    scene, st = _batching_scene()
    rollout(scene, st, 2e-3, 1)
    owner, pid = os.getpid(), scene._helper.pid

    def final_velocity(x):
        s = st.copy()
        s.q = s.q.astype(x.dtype)
        s.q[0, :2] = x
        if os.getpid() != owner:
            assert dynamics._rollout_helper(scene) is None
        return rollout(scene, s, 2e-3, 2).states[-1].v

    with _time_limit(120):
        got = cs_gradient(final_velocity, st.q[0, :2])
    want = _serially(lambda: cs_gradient(final_velocity, st.q[0, :2]))
    assert np.array_equal(got, want)
    assert scene._helper.pid == pid and scene._helper.stop.alive
    with _time_limit(120):
        again = rollout(scene, st, 2e-3, 2)
    _assert_same_rollouts(again, _serially(lambda: rollout(scene, st, 2e-3, 2)))


@needs_fork
def test_collecting_the_scene_reaps_its_helper():
    import gc

    scene, st = _batching_scene()
    rollout(scene, st, 2e-3, 1)
    pid = scene._helper.pid
    del scene
    gc.collect()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _gone(pid, 0)


@needs_fork
@pytest.mark.parametrize("ending", ["exit", "SIGKILL"])
def test_no_helper_outlives_its_owner(ending):
    # A normal exit stops the helper through its finalizer; an owner killed
    # outright leaves the helper to exit on EOF by itself.
    import subprocess

    script = f"""
import os, signal, sys
sys.path.insert(0, {os.path.join(os.path.dirname(__file__), "..", "src")!r})
from softcontact.config import load_config
from softcontact.dynamics import rollout
cfg = load_config({os.path.join(CONFIG_DIR, "sphere_pair.json")!r})
rollout(cfg.scene, cfg.state, cfg.world.dt, 1)
print(cfg.scene._helper.pid, flush=True)
if {ending == "SIGKILL"}:
    os.kill(os.getpid(), signal.SIGKILL)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == (0 if ending == "exit" else -signal.SIGKILL), proc.stderr
    assert _gone(int(proc.stdout.split()[0]))


def _checked_state(name):
    # A sampled state of a config, as the gradient check draws them, or the
    # batching scene's own.
    from softcontact import verify

    if name == "batching":
        return _batching_scene()
    scene, st = _config_state(name + ".json")
    return scene, verify.sample_nondegenerate_state(scene, np.random.default_rng(4), st, vel_scale=scene.params.v_d)


@pytest.mark.parametrize("name", ["sphere_pair", "stacked_boxes", "push_t_1", "batching"])
def test_batched_complex_step_jacobian_matches_the_column_by_column_one(monkeypatch, name):
    # check_pipeline_gradients takes its complex-step columns in batches, one
    # contact evaluation each; with every column evaluated on its own
    # instead, the Jacobian agrees to 1e-12 of each block's largest entry,
    # and the report passes or fails alike at the same worst coordinate.
    from softcontact import verify

    scene, st = _checked_state(name)
    batched = verify.check_pipeline_gradients(scene, st)
    cs_gradient = verify.cs_gradient
    monkeypatch.setattr(verify, "cs_gradient", lambda f, x, h, batches: cs_gradient(f, x, h))
    single = verify.check_pipeline_gradients(scene, st)
    assert (batched.passed, batched.worst_coordinate) == (single.passed, single.worst_coordinate)
    for fn in batched.per_function:
        got, want = (np.array([row[3] for row in report.rows if row[0] == fn]) for report in (batched, single))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _batch(scene, st, cols, steps):
    # The (K, n) complex-step states of verify._cs_batch, direction k
    # stepping coordinate cols[k] by steps[k].
    from softcontact import verify

    theta = verify.flatten_state(st)
    x = np.repeat(theta[None].astype(complex), len(cols), axis=0)
    x[np.arange(len(cols)), cols] += 1j * np.asarray(steps)
    return verify.unflatten_state(scene, st, x)


def test_a_nan_in_one_tangent_of_a_batch_reaches_the_finiteness_checks():
    # In the state it names the body; in a posed cloud, past that check, it
    # reaches the kernel's sums.
    from softcontact import contact, dynamics

    scene, st = _config_state("sphere_pair.json")
    steps = np.full(7, 1e-30)
    steps[3] = np.nan
    with pytest.raises(ValueError, match="non-finite pose coordinate qw of body small"):
        dynamics._contact_force(scene, _batch(scene, st, np.arange(7, 14), steps))
    (_, _, a, b), = dynamics._pair_walk(scene, _batch(scene, st, np.arange(7, 14), np.full(7, 1e-30)))
    pts = b.points.copy()
    pts.imag[3] = np.nan
    with pytest.raises(contact.NonFiniteContact):
        contact._query_sums(a, pts, b.velocities, scene.params)
    contact._query_sums(a, b.points, b.velocities, scene.params)


@pytest.mark.parametrize("k", [0, 4, 6])
def test_a_step_at_the_bound_in_any_one_direction_of_a_batch_raises(k):
    from softcontact import dynamics

    scene, st = _config_state("sphere_pair.json")
    steps = np.full(7, 1e-30)
    dynamics._contact_force(scene, _batch(scene, st, np.arange(7), steps))
    steps[k] = 1e-6
    with pytest.raises(ValueError, match="complex-step perturbation"):
        dynamics._contact_force(scene, _batch(scene, st, np.arange(7), steps))


def _ball_cube_flat_scene():
    # A sphere and a cube (isotropic inertias) and a 0.5 x 0.5 x 0.2 box
    # (not), each pair near enough to touch at the sampled poses.
    from softcontact.contact import ContactParams

    bodies = [Body("ball", sphere_aopc(0.1, 24), "free", 0.5, sphere_inertia(0.5, 0.1)),
              Body("cube", box_aopc([0.2, 0.2, 0.2], 24), "free", 1.0, box_inertia(1.0, [0.2, 0.2, 0.2])),
              Body("flat", box_aopc([0.5, 0.5, 0.2], 24), "free", 2.0, box_inertia(2.0, [0.5, 0.5, 0.2]))]
    return Scene(bodies, [("ball", "cube"), ("cube", "flat"), ("ball", "flat")], params=ContactParams(k=2e3, v_s=0.02))


def _sampled_state(scene, rng):
    # The ball beside the cube, both overlapping the flat box below.
    st = make_state(scene)
    st.q[:, :3] = [[0.0, 0.0, 0.0], [0.17, 0.0, 0.0], [0.05, 0.0, -0.17]] + 0.01 * rng.standard_normal((3, 3))
    st.q[:, 3:] = quat_normalize(rng.standard_normal(st.q[:, 3:].shape))
    st.v[:] = rng.standard_normal(scene.n)
    return st


def _solved_dynamics(scene, st, tau):
    # forward_dynamics as the parent computed it: rhs = tau - bias + contact,
    # divided by the mass and solved against R I_body R^T per free body.
    rhs = (tau - bias_force(scene, st) + total_contact_force(scene, st)).reshape(-1, 6)
    M = mass_matrix(scene, st).reshape(len(scene.free_indices), 6, len(scene.free_indices), 6)
    k = np.arange(len(scene.free_indices))
    angular = np.linalg.solve(M[k, 3:, k, 3:], rhs[:, 3:, None])[..., 0]
    return np.concatenate([rhs[:, :3] / M[k, 0, k, 0][:, None], angular], axis=1).reshape(-1)


def test_forward_dynamics_matches_the_solve_real_and_as_a_complex_step_batch():
    # The angular solve is rhs / I_00 + R E R^T rhs with E = I_body^-1 -
    # Id / I_00: the inverse of R I_body R^T for a rotation R.
    scene = _ball_cube_flat_scene()
    rng = np.random.default_rng(29)
    for _ in range(8):
        st = _sampled_state(scene, rng)
        tau = rng.standard_normal(scene.n)
        got, want = forward_dynamics(scene, st, tau), _solved_dynamics(scene, st, tau)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(total_contact_force(scene, st)).max() > 1e-3  # contact takes part
        # Each direction of a batch against the solve of its own complex
        # state. A tangent is measured against its own size plus the step
        # times the value's: where the rotation is the only dependence (an
        # isotropic body's quaternion), the solve's tangent is the rounding
        # residue of R R^T = Id, which the E form does not have.
        h, cols = 1e-30, np.arange(0, 7 * 3 + scene.n, 5)
        batch = _batch(scene, st, cols, np.full(cols.size, h))
        got = forward_dynamics(scene, batch, tau)
        for k in range(cols.size):
            want = _solved_dynamics(scene, SceneState(st.time, batch.q[k], batch.v[k]), tau)
            assert np.abs(got[k].real - want.real).max() <= 1e-13 * np.abs(want.real).max()
            size = np.abs(want.imag).max() + h * np.abs(want.real).max()
            assert np.abs(got[k].imag - want.imag).max() <= 1e-13 * size


def test_isotropic_bodies_accelerate_by_rhs_over_i00_bit_for_bit():
    scene = _ball_cube_flat_scene()
    i00 = scene._inertia[:2, 0, 0]
    rng = np.random.default_rng(30)
    for _ in range(10):
        st = _sampled_state(scene, rng)
        tau = rng.standard_normal(scene.n)
        rhs = (tau - bias_force(scene, st) + total_contact_force(scene, st)).reshape(-1, 6)
        got = forward_dynamics(scene, st, tau).reshape(-1, 6)
        np.testing.assert_array_equal(got[:2, 3:], rhs[:2, 3:] / i00[:, None])


def test_one_evaluation_builds_each_rotation_once(monkeypatch):
    # One quat_to_matrix call poses every body, kinematic ones too, and
    # gives the dynamics its free bodies' rotations.
    from softcontact import dynamics

    shapes = []
    build = dynamics.quat_to_matrix
    monkeypatch.setattr(dynamics, "quat_to_matrix", lambda q: shapes.append(q.shape) or build(q))
    scene, st = _group_posing_scene()
    for call in (lambda: forward_dynamics(scene, st), lambda: inverse_dynamics(scene, st, np.zeros(scene.n)),
                 lambda: step(scene, st, 1e-3, "euler")):
        shapes.clear()
        call()
        assert shapes == [(len(scene.bodies), 4)]


def test_a_mass_set_after_the_scene_is_built_reaches_forward_dynamics():
    scene = free_sphere_scene(gravity=(0, 0, 0))
    st = make_state(scene)
    tau = np.array([1.0, 0, 0, 0, 0, 0])
    assert forward_dynamics(scene, st, tau)[0] == 1.0
    scene.bodies[0].mass = 4.0
    assert forward_dynamics(scene, st, tau)[0] == 0.25


@pytest.mark.parametrize("call, message", [
    (lambda scene, st: mass_matrix(scene, _with(st, "q", (1, 2))), "state has a non-finite pose coordinate tz of body middle"),
    (lambda scene, st: bias_force(scene, _with(st, "v", 6)), "state has a non-finite velocity coordinate vx of body middle"),
    (lambda scene, st: pose_aopc(box_aopc([0.2, 0.2, 0.2], 24), Pose.identity(), _with(st, "v", 2).v, 0),
     r"gen_velocity contains a non-finite entry at index 2"),
    (lambda scene, st: pose_aopc(box_aopc([0.2, 0.2, 0.2], 24), Pose.identity(), st.v, None, "k", [0, np.inf, 0, 0, 0, 0]),
     r"prescribed_velocity contains a non-finite entry at index 1"),
    (lambda scene, st: box_inertia(np.nan, [0.2, 0.2, 0.2]), "mass must be positive and finite, got nan"),
    (lambda scene, st: box_inertia(1.0, [0.2, np.inf, 0.2]), r"box size must be positive and finite, got \[0\.2, inf, 0\.2\]"),
    (lambda scene, st: sphere_inertia(-1.0, 0.1), r"mass must be positive and finite, got -1\.0"),
    (lambda scene, st: sphere_inertia(1.0, np.nan), "radius must be positive and finite, got nan"),
    (lambda scene, st: composite_box_inertia(np.nan, [((1, 1, 1), (0, 0, 0))]), "mass must be positive and finite, got nan"),
])
def test_non_finite_inputs_of_the_dynamics_helpers_raise_naming_them(call, message):
    scene, st = _batching_scene()
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(scene, st)


def _with(st, array, index):
    """A copy of st with a NaN at index of its q or v."""
    out = st.copy()
    getattr(out, array)[index] = np.nan
    return out

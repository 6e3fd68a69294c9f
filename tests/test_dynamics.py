import numpy as np
import pytest
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
from softcontact.geometry import Pose, box_aopc, sphere_aopc


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
    with pytest.raises(ValueError, match="dt"):
        step(scene_g, st, 0.0, "euler")


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
    pair_force = dynamics.ssdf_ssdf_force
    monkeypatch.setattr(dynamics, "ssdf_ssdf_force", lambda *args: calls.append(1) or pair_force(*args))
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
    np.testing.assert_array_equal(res_off.states[-1].q, res.states[-1].q)

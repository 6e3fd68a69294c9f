from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softcontact.collision import separation_field
from softcontact.contact import (
    ContactParams,
    dissipation_factor,
    point_plane_force,
    point_ssdf_force,
    ssdf_ssdf_force,
)
from softcontact.core import quat_normalize, softplus
from softcontact.geometry import Pose, WorldAopc, box_aopc, pose_aopc, sphere_aopc
from softcontact.ssdf import ssdf
from softcontact.verify import cs_gradient, fd_gradient


def posed(aopc, translation=(0, 0, 0), quaternion=(1, 0, 0, 0), dof=0, n=12, name="b",
          velocity=None, kinematic=False):
    pose = Pose(np.asarray(translation, dtype=float), quat_normalize(np.asarray(quaternion, dtype=float)))
    v = np.zeros(n)
    if velocity is not None and not kinematic:
        v[dof : dof + 6] = velocity
    return pose_aopc(aopc, pose, v, None if kinematic else dof, name,
                     prescribed_velocity=velocity if kinematic else None)


def dense_jacobian(w):
    """Oracle (I, 3, n) point Jacobian of a posed body: [I3 | -skew(p - t)]
    in its 6-column block, zero for a kinematic body."""
    J = np.zeros((w.num_points, 3, w.num_dofs), dtype=w.points.dtype)
    s = int(w.dof_start)
    if s >= 0:
        J[:, :, s : s + 3] = np.eye(3)
        # -skew(r) has rows r x e_j.
        J[:, :, s + 3 : s + 6] = np.cross((w.points - w.origin)[:, None, :], np.eye(3))
    return J


def test_params_validation():
    with pytest.raises(ValueError):
        ContactParams(k=0.0)
    with pytest.raises(ValueError):
        ContactParams(mu=-0.1)
    with pytest.raises(ValueError):
        ContactParams(v_d=0.0)
    with pytest.raises(ValueError):
        ContactParams(eps2=-1e-3)
    ContactParams()  # defaults are valid


@pytest.mark.parametrize("field", ["k", "mu", "v_d", "v_s"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        ContactParams(**{field: value})


@given(st.sampled_from(["k", "mu", "v_d", "v_s", "eps1", "eps2", "eps3"]), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_params_name_any_one_non_finite_field(field, value, other):
    # One field non-finite, the others at drawn valid values.
    fields = {name: other for name in ("k", "mu", "v_d", "v_s", "eps1", "eps2", "eps3")}
    fields[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must be (finite|a positive finite real), got -?(nan|inf)$"):
        ContactParams(**fields)


def _dissipation_factor_boolean(x):
    # The boolean-product form dissipation_factor replaced, kept as reference.
    x = np.asarray(x)
    xr = x.real
    neg = xr <= 0.0
    return neg * (1.0 - x) + ((~neg) & (xr <= 2.0)) * ((x - 2.0) ** 2 / 4.0)


def test_dissipation_factor_matches_boolean_form_bit_for_bit():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 3991), [0.0, -0.0, 2.0, 1.0, -1.0, 5e-324, 2.0 + 4e-16, 1e150, -1e150]])
    for xs in (x, x.reshape(-1, 16), x[::-1], np.array(0.0), np.array(2.0)):
        got, want = dissipation_factor(xs), _dissipation_factor_boolean(xs)
        assert got.dtype == want.dtype and got.shape == np.shape(want)
        np.testing.assert_array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))
    # An exactly zero imaginary part may differ in the sign of that zero only.
    np.testing.assert_array_equal(dissipation_factor(x + 0j), _dissipation_factor_boolean(x + 0j))
    for nan in (np.nan, complex(np.nan, 1e-30), complex(0.5, np.nan)):
        xs = np.array([0.5, nan, -1.0, 3.0])
        got = dissipation_factor(xs)
        assert np.isnan(got[1]) and np.isnan(_dissipation_factor_boolean(xs)[1])
        np.testing.assert_array_equal(np.delete(got, 1), np.delete(_dissipation_factor_boolean(xs), 1))


def test_complex_step_dissipation_factor_takes_the_real_factor_and_its_slope():
    # The real part is the real factor bit for bit, also at x = 2, where the
    # complex form leaked -b^2 / 4 = -2.5e-61 into it. The imaginary part is
    # b (clip(x, 0, 2) - 2) / 2, the complex form's in value: only the sign
    # of a zero may differ.
    rng = np.random.default_rng(4)
    x = np.concatenate([np.linspace(-3.0, 5.0, 200001), [0.0, -0.0, 2.0 + 4e-16, 5e-324, 1e150, -1e150]])
    real = dissipation_factor(x)
    for b in (1e-30, -1e-30, 1e-20 * rng.standard_normal(x.size)):
        got = dissipation_factor(x + 1j * b)
        assert got.real.tobytes() == real.tobytes()
        np.testing.assert_array_equal(got.imag, _dissipation_factor_boolean(x + 1j * b).imag)
    got = dissipation_factor(np.array([2.0 + 1e-30j, 2.0 - 1e-30j, 0.0 + 1e-30j]))
    assert got.real.tolist() == [0.0, 0.0, 1.0] and got.imag.tolist() == [0.0, 0.0, -1e-30]


def test_dissipation_branches():
    assert dissipation_factor(np.array(2.0)) == 0.0
    assert dissipation_factor(np.array(5.0)) == 0.0
    assert dissipation_factor(np.array(0.0)) == 1.0
    assert dissipation_factor(np.array(-1.0)) == 2.0
    assert dissipation_factor(np.array(1.0)) == 0.25
    # continuity and first-derivative agreement at the joints
    h = 1e-7
    for x0, d0, dp in ((0.0, 1.0, -1.0), (2.0, 0.0, 0.0)):
        left = float(dissipation_factor(np.array(x0 - h)))
        right = float(dissipation_factor(np.array(x0 + h)))
        assert abs(left - d0) < 2 * h and abs(right - d0) < 2 * h
        dl = (d0 - float(dissipation_factor(np.array(x0 - h)))) / h
        dr = (float(dissipation_factor(np.array(x0 + h))) - d0) / h
        assert abs(dl - dp) < 1e-6 and abs(dr - dp) < 1e-6


def test_zero_force_at_branch_boundary():
    params = ContactParams()
    # v_n = 2 v_d exactly: d(2) = 0 so the whole force vanishes
    lam = point_plane_force(
        np.array([0.0, 0.0, -0.01]),
        np.array([0.3, 0.0, 2.0 * params.v_d]),
        np.zeros(3),
        np.array([0.0, 0.0, 1.0]),
        params,
    )
    np.testing.assert_allclose(lam, 0.0, atol=1e-30)


def test_frictionless_force_is_normal():
    params = ContactParams(mu=0.0)
    n = np.array([0.0, 0.0, 1.0])
    lam = point_plane_force(np.array([0, 0, -0.02]), np.array([0.4, -0.2, -0.05]), np.zeros(3), n, params)
    assert abs(lam[0]) == 0.0 and abs(lam[1]) == 0.0
    assert lam[2] > 0


def test_softplus_tail_force_at_distance():
    params = ContactParams()
    phi = 10 * params.eps3
    lam = point_plane_force(np.array([0, 0, phi]), np.zeros(3), np.zeros(3), np.array([0, 0, 1.0]), params)
    expected = params.k * params.eps3 * np.log1p(np.exp(-10.0))
    assert 0 < lam[2] < 2 * params.k * params.eps3 * np.exp(-10.0)
    np.testing.assert_allclose(lam[2], expected, rtol=1e-12)


def test_normal_force_nonnegative_friction_cone():
    rng = np.random.default_rng(0)
    params = ContactParams(mu=0.7)
    for _ in range(200):
        p = rng.standard_normal(3)
        v = rng.standard_normal(3) * rng.uniform(0.001, 3)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        plane_p = rng.standard_normal(3)
        lam = point_plane_force(p, v, plane_p, n, params)
        lam_n = np.dot(lam, n)
        lam_t = lam - lam_n * n
        assert lam_n >= 0
        assert np.linalg.norm(lam_t) <= params.mu * lam_n + 1e-12
        v_t = v - np.dot(v, n) * n
        assert np.dot(lam_t, v_t) <= 1e-15


def test_friction_approaches_cone_boundary():
    params = ContactParams(mu=0.5, v_s=1e-3)
    n = np.array([0.0, 0.0, 1.0])
    lam = point_plane_force(np.array([0, 0, -0.01]), np.array([5.0, 0, 0]), np.zeros(3), n, params)
    lam_n = lam[2]
    ratio = abs(lam[0]) / (params.mu * lam_n)
    assert 0.999 < ratio <= 1.0


def test_point_ssdf_single_plane_exact():
    from softcontact.geometry import LocalAopc

    cloud = LocalAopc([[0.0, 0, 0]], [[0, 0, 1.0]],
                      [[0.5, 0.5, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0], [0.5, -0.5, 0]],
                      [[0, 1, 2, 3]])
    w = posed(cloud, dof=0, name="plane")
    params = ContactParams()
    p = np.array([0.1, -0.2, -0.004])
    v = np.array([0.01, 0.03, -0.02])
    J = np.zeros((3, 12))
    J[:, 6:9] = np.eye(3)
    out = point_ssdf_force(w, p, v, J, params)
    lam = point_plane_force(p, v - w.velocities[0], w.points[0], w.normals[0], params)
    expected = (J - dense_jacobian(w)[0]).T @ lam
    np.testing.assert_allclose(out, expected, atol=1e-18)


def test_static_penetrating_point_pushed_out():
    # point penetrating a static plane by delta: the point's body feels
    # +k*softplus(delta) along the plane normal
    from softcontact.geometry import LocalAopc

    cloud = LocalAopc([[0.0, 0, 0]], [[0, 0, 1.0]],
                      [[0.5, 0.5, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0], [0.5, -0.5, 0]],
                      [[0, 1, 2, 3]])
    w = posed(cloud, kinematic=True, name="plane", n=6)
    params = ContactParams()
    delta = 0.002
    J = np.zeros((3, 6))
    J[:, 0:3] = np.eye(3)
    out = point_ssdf_force(w, np.array([0.0, 0.0, -delta]), np.zeros(3), J, params)
    expected_z = params.k * float(softplus(np.array(delta), params.eps3))
    np.testing.assert_allclose(out[:3], [0, 0, expected_z], rtol=1e-12, atol=1e-15)
    assert out[2] > 0  # pushes the point along +n, out of the plane


def test_far_bodies_tail_bound():
    s = sphere_aopc(0.4, 96)
    params = ContactParams()
    a = posed(s, name="a")
    b = posed(s, (0, 0, 5.0), dof=6, name="b")
    fld = separation_field(a, b, params.eps1, params.eps2)
    out = ssdf_ssdf_force(a, b, fld, params)
    # gap is ~4.2 m, eps3 1e-3: force is utterly negligible but finite
    assert np.isfinite(out).all()
    assert np.linalg.norm(out) < 1e-12


def test_symmetric_sphere_overlap_action_reaction():
    s = sphere_aopc(0.5, 216)
    params = ContactParams()
    a = posed(s, name="a")
    b = posed(s, (0, 0, 0.9), dof=6, name="b")
    fld = separation_field(a, b, params.eps1, params.eps2)
    out = ssdf_ssdf_force(a, b, fld, params)
    np.testing.assert_allclose(out[:3] + out[6:9], 0.0, atol=1e-12)
    assert out[2] < 0 < out[8]  # pushed apart along z


def test_box_resting_on_kinematic_ground():
    box = box_aopc([0.4, 0.4, 0.2], 96)
    ground = box_aopc([2.0, 2.0, 0.2], 96)
    params = ContactParams()
    delta = 5e-4
    g = posed(ground, (0, 0, -0.1), kinematic=True, name="ground", n=6)
    bx = posed(box, (0, 0, 0.1 - delta), dof=0, n=6, name="box")
    fld = separation_field(g, bx, params.eps1, params.eps2)
    out = ssdf_ssdf_force(g, bx, fld, params)
    expected = params.k * float(softplus(np.array(delta), params.eps3))
    np.testing.assert_allclose(out[2], expected, rtol=0.02)
    np.testing.assert_allclose(out[:2], 0.0, atol=1e-10)


def test_momentum_neutrality():
    rng = np.random.default_rng(1)
    s1 = sphere_aopc(0.5, 150)
    s2 = box_aopc([0.7, 0.9, 0.8], 150)
    params = ContactParams(k=1e3)
    for _ in range(5):
        a = posed(s1, rng.standard_normal(3) * 0.1, name="a",
                  velocity=rng.standard_normal(6) * 0.05)
        b = posed(s2, np.array([0.8, 0, 0]) + rng.standard_normal(3) * 0.1,
                  rng.standard_normal(4), dof=6, name="b",
                  velocity=rng.standard_normal(6) * 0.05)
        fld = separation_field(a, b, params.eps1, params.eps2)
        out = ssdf_ssdf_force(a, b, fld, params)
        assert np.abs(out[:3] + out[6:9]).max() < 1e-10


def test_field_length_mismatch_rejected():
    s = sphere_aopc(0.4, 54)
    s2 = sphere_aopc(0.4, 150)
    params = ContactParams()
    a = posed(s, name="a")
    b = posed(s, (1.5, 0, 0), dof=6, name="b")
    fld = separation_field(a, b, params.eps1, params.eps2)
    c = posed(s2, (1.5, 0, 0), dof=6, name="c")
    with pytest.raises(ValueError, match="length"):
        ssdf_ssdf_force(a, c, fld, params)
    stale = separation_field(a, b, 0.5, 0.5)
    with pytest.raises(ValueError, match="temperatures"):
        ssdf_ssdf_force(a, b, stale, params)


def test_force_gradient_matches_finite_differences():
    # d(force)/d(pose, velocity) via complex step vs central differences at
    # states clear of the dissipation kinks
    rng = np.random.default_rng(2)
    box1 = box_aopc([0.6, 0.5, 0.7], 54)
    box2 = box_aopc([0.8, 0.8, 0.4], 54)
    params = ContactParams(k=2e3)
    checked = 0
    while checked < 10:
        t = np.array([0.0, 0.05, 0.52]) + 0.03 * rng.standard_normal(3)
        q = quat_normalize(np.array([1.0, 0, 0, 0]) + 0.05 * rng.standard_normal(4))
        vel = 0.08 * rng.standard_normal(6)

        def f(theta):
            tq = theta[:3]
            qq = theta[3:7] / np.sqrt(np.sum(theta[3:7] * theta[3:7]))
            vfull = np.zeros(12, dtype=theta.dtype)
            vfull[6:] = theta[7:]
            a = pose_aopc(box1, Pose(np.zeros(3), np.array([1.0, 0, 0, 0])), vfull, 0, "a")
            b = pose_aopc(box2, Pose(tq, qq), vfull, 6, "b")
            fld = separation_field(a, b, params.eps1, params.eps2)
            return ssdf_ssdf_force(a, b, fld, params)

        theta = np.concatenate([t, q, vel])
        checked += 1
        g_cs = cs_gradient(f, theta)
        g_fd = fd_gradient(f, theta, 1e-6 * (1 + np.abs(theta)))
        scale = max(1e-8, np.abs(g_fd).max())
        assert np.abs(g_cs - g_fd).max() / scale < 1e-3


def _broadcast_pair_force(a, b, fld, params, weights=None):
    """Reference pair force: point_plane_force on explicit (Q, I, 3)
    broadcasts, weighted by the field's distribution and each direction's
    softmin weights over the planes, ssdf's unless given (b in a, a in b)."""
    if weights is None:
        weights = [ssdf(cloud, qs.points, params.eps1).weights for cloud, qs in ((a, b), (b, a))]
    Ib = b.num_points
    out = 0.0
    for cloud, qs, coeff, w in ((a, b, fld.distribution[:Ib], weights[0]),
                                (b, a, fld.distribution[Ib:], weights[1])):
        lam = point_plane_force(qs.points[:, None, :], qs.velocities[:, None, :] - cloud.velocities[None, :, :],
                                cloud.points[None, :, :], cloud.normals[None, :, :], params)
        wl = (coeff[:, None] * w)[..., None] * lam
        out = out + np.einsum("qkn,qk->n", dense_jacobian(qs), wl.sum(axis=1)) - np.einsum("ikn,ik->n", dense_jacobian(cloud), wl.sum(axis=0))
    return out


@pytest.mark.parametrize("slip, approach", [
    (0.3, 0.0), (1.0, 0.05), (1.0, 1.0), (1.0, 3.0), (1e-3, 3.0), (40.0, 0.1)])
def test_pair_force_matches_broadcast_oracle(slip, approach):
    # b rests tilted on a, sliding at `slip` * v_s in the plane of the
    # contact faces while approaching along -z at `approach` m/s, so the
    # face-face entries have tangential speed at or below v_s next to a fast
    # normal one; the other faces see the approach as tangential motion.
    rng = np.random.default_rng(int(10 * slip + approach))
    box1 = box_aopc([0.6, 0.5, 0.4], 54)
    box2 = sphere_aopc(0.3, 96)
    params = ContactParams(k=2e3, v_s=1e-3)
    q = quat_normalize(np.array([1.0, 0.01, -0.02, 0.005]))
    direction = rng.standard_normal(2)
    vel = np.concatenate([slip * params.v_s * direction / np.linalg.norm(direction), [-approach],
                          0.2 * params.v_s * rng.standard_normal(3)])
    theta = np.concatenate([[0.01, -0.02, 0.49], q, vel])

    def pair(theta, force):
        vfull = np.zeros(12, dtype=theta.dtype)
        vfull[6:] = theta[7:]
        a = pose_aopc(box1, Pose(np.zeros(3), np.array([1.0, 0, 0, 0])), vfull, 0, "a")
        b = pose_aopc(box2, Pose(theta[:3], theta[3:7]), vfull, 6, "b")
        fld = separation_field(a, b, params.eps1, params.eps2)
        return force(a, b, fld, params)

    got = pair(theta, ssdf_ssdf_force)
    want = pair(theta, _broadcast_pair_force)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    g_got = cs_gradient(lambda t: pair(t, ssdf_ssdf_force), theta)
    g_want = cs_gradient(lambda t: pair(t, _broadcast_pair_force), theta)
    assert np.abs(g_got - g_want).max() <= 1e-12 * np.abs(g_want).max()


def test_plane_matrices_hold_scaled_velocities_axes_and_arms():
    # Per plane i and axis e = n, t1, t2 (scale s = v_d, v_s, v_s and weight
    # c = 1, -mu, -mu): the force matrix row is [e, v_i . e] / s and the
    # moment matrix row c [e, (p - t) x e]; the SSDF matrix gives the logits
    # and the negated plane distances against [q, 1]. For one body, a stack,
    # and a one-row stack, as dynamics._rows cuts a body on every row.
    from softcontact import contact
    from softcontact.core import _ARENA

    params = ContactParams(k=3.7e3, mu=0.37, v_d=0.07, v_s=0.013, eps1=2e-4)
    box = box_aopc([0.3, 0.2, 0.25], 54)
    world = [posed(box, t, np.array([1.0, 0.1, -0.2, 0.3]) * (k + 1), dof=6 * k, n=12, name=str(k),
                   velocity=np.array([0.1, -0.2, 0.05, 1.5, -0.7, 2.0]) * (k - 0.5))
             for k, t in enumerate(([0.3, -0.1, 0.8], [0.0, 0.2, 0.5]))]
    q = np.array([[0.1, -0.2, 0.7], [0.3, 0.0, 0.6]])
    for cloud, one in ((world[0], world[0]), (_stack(world, [0, 1, 1]), _stack(world, [0, 1, 1])),
                       (_stack(world, [1]), _stack(world, [1]))):
        with _ARENA.scratch as arena:
            S, F, M = (x.copy() for x in contact._plane_matrices(cloud, params, float, float, arena))
        lead = one.points.shape[:-2]
        I = box.num_points
        assert S.shape == lead + (2, 4, I) and F.shape == lead + (3, 4, I) and M.shape == lead + (3, 6, I)
        S, F, M = (np.swapaxes(x, -1, -2) for x in (S, F, M))
        axes = np.stack([one.normals, one.tangents[0], one.tangents[1]], axis=-3)
        scale = np.array([params.v_d, params.v_s, params.v_s])[:, None, None]
        weight = np.array([1.0, -params.mu, -params.mu])[:, None, None]
        np.testing.assert_array_equal(F[..., :3], axes / scale)
        want = np.sum(one.velocities[..., None, :, :] * axes, axis=-1) / scale[..., 0]
        assert np.abs(F[..., 3] - want).max() <= 1e-15 * np.abs(want).max()
        np.testing.assert_array_equal(M[..., :3], axes * weight)
        np.testing.assert_array_equal(M[..., 3:], np.stack(list(one.arms), axis=-3) * weight)
        m = S @ np.concatenate([q, np.ones((2, 1))], axis=-1).T
        d = one.points[..., :, None, :] - q
        want = (np.sum(q * q, axis=-1) - np.sum(d * d, axis=-1)) / params.eps1
        assert np.abs(m[..., 0, :, :] - want).max() <= 1e-11 * np.abs(want).max()
        np.testing.assert_allclose(m[..., 1, :, :], np.sum(one.normals[..., None, :] * d, axis=-1), rtol=0, atol=1e-15)


def _stack(world, idx):
    """The posed bodies idx as one stack with a leading pair axis."""
    ws = [world[i] for i in idx]
    return WorldAopc(**{name: np.stack([getattr(w, name) for w in ws], axis=int(name in ("tangents", "arms")))
                        for name in ("points", "normals", "tangents", "arms", "velocities", "origin", "dof_start")},
                     num_dofs=ws[0].num_dofs)


def test_stacked_pair_force_matches_dense_jacobian_oracle():
    # One stack of three pairs: a kinematic body in two of them, and body 1
    # as b in the first pair and a in the last, so its wrenches add up.
    rng = np.random.default_rng(6)
    box = box_aopc([0.3, 0.3, 0.3], 54)
    params = ContactParams(k=2e3, v_s=0.02)
    world = [posed(box, (0, 0, 0), kinematic=True, velocity=np.array([0.01, 0, 0, 0, 0, 0.2]), n=18, name="k")]
    for k, t in enumerate(([0.01, 0, 0.29], [0.28, 0.02, 0.01], [0.3, -0.01, 0.3])):
        world.append(posed(box, t, np.array([1.0, 0, 0, 0]) + 0.05 * rng.standard_normal(4), dof=6 * k, n=18,
                           name=str(k), velocity=0.1 * rng.standard_normal(6)))
    pairs = np.array([(0, 1), (0, 2), (1, 3)])
    a, b = _stack(world, pairs[:, 0]), _stack(world, pairs[:, 1])
    fld = separation_field(a, b, params.eps1, params.eps2)
    got = ssdf_ssdf_force(a, b, fld, params)
    want = 0.0
    for ia, ib in pairs:
        single = separation_field(world[ia], world[ib], params.eps1, params.eps2)
        want = want + _broadcast_pair_force(world[ia], world[ib], single, params)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(want[:6]).max() > 1.0


def test_query_blocks_match_the_broadcast_oracle(monkeypatch):
    # A stack of two pairs cut into blocks of 5 query rows (2 in the other
    # direction), the last block ragged: the separation values are
    # separation_field's bit for bit and the force the broadcast oracle's.
    from softcontact import contact

    rng = np.random.default_rng(4)
    box, ball = box_aopc([0.3, 0.3, 0.3], 54), sphere_aopc(0.2, 96)
    params = ContactParams(k=2e3, v_s=0.02)
    world = [posed(box, kinematic=True, velocity=np.array([0.01, 0, 0, 0, 0, 0.2]), n=12, name="k"),
             posed(ball, (0.02, 0.0, 0.33), dof=0, n=12, name="0", velocity=0.1 * rng.standard_normal(6)),
             posed(ball, (0.33, 0.01, 0.0), dof=6, n=12, name="1", velocity=0.1 * rng.standard_normal(6))]
    a, b = _stack(world, [0, 0]), _stack(world, [1, 2])
    monkeypatch.setattr(contact, "_CHUNK_ENTRIES", 2 * 5 * 54)
    force, values, coeff = contact._pair_contact(a, b, params)
    fld = separation_field(a, b, params.eps1, params.eps2)
    assert values.tobytes() == fld.values.tobytes() and coeff.tobytes() == fld.distribution.tobytes()
    want = 0.0
    for ib in (1, 2):
        single = separation_field(world[0], world[ib], params.eps1, params.eps2)
        want = want + _broadcast_pair_force(world[0], world[ib], single, params)
    assert np.abs(force - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(want).max() > 1.0


def test_default_query_blocks_leave_no_lone_query():
    # A 54-point box against 607 queries: the default bound holds 606 rows,
    # so core._blocks cuts 304 + 303, not 606 + 1, whose lone query's
    # matrix-vector product rounded differently from ssdf's one block. The
    # kernel's values and the SSDF readers' walk (ssdf._ssdf_blocks) are
    # ssdf's bit for bit; a 606 + 1 cut gives 3 of these 8 draws a lone
    # query that differs in the last bit.
    import importlib

    from softcontact import contact

    ssdf_module = importlib.import_module("softcontact.ssdf")  # the package binds ssdf to the function
    cloud, params = posed(box_aopc([0.3, 0.3, 0.3], 54)), ContactParams(eps1=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(8):
        queries = rng.uniform(-0.3, 0.3, (607, 3))
        want = ssdf(cloud, queries, params.eps1).value
        blocks = list(ssdf_module._ssdf_blocks(cloud, queries, params.eps1))
        assert [sl.stop - sl.start for sl, *_ in blocks] == [304, 303]
        assert np.concatenate([value for _, value, _, _ in blocks]).tobytes() == want.tobytes()
        value, _ = contact._query_sums(cloud, queries, np.zeros((607, 3)), params)
        assert value.tobytes() == want.tobytes()


def _written_out_field(a, b, params):
    """The separation field of a pair from the ContactParams temperatures
    as given: softmin weights softmax(-|q - p_i|^2 / eps1), the plane
    distances and the softmax of the values over eps2, in plain numpy, so
    that no constant the contact kernel folds is shared with it."""
    def softmax(x, eps):
        e = np.exp((x - np.max(x.real, axis=-1, keepdims=True)) / eps)
        return e / np.sum(e, axis=-1, keepdims=True)

    weights, values = [], []
    for cloud, qs in ((a, b), (b, a)):
        d = qs.points[:, None, :] - cloud.points[None, :, :]
        w = softmax(-np.sum(d * d, axis=-1), params.eps1)
        weights.append(w)
        values.append(np.sum(w * np.sum(cloud.normals[None] * d, axis=-1), axis=-1))
    values = np.concatenate(values)
    return SimpleNamespace(distribution=softmax(-values, params.eps2), weights=weights)


def test_folded_constants_match_the_broadcast_oracle(monkeypatch):
    # All seven contact constants away from their defaults and from each
    # other, on a box-pile stack: eight 24-point boxes against one 126-point
    # kinematic ground on every row (a one-row side), cut into ragged query
    # blocks. The force and its complex-step gradient in the boxes' shared
    # position and velocity offsets match point_plane_force on explicit
    # broadcasts with a written-out field, within 1e-12.
    from softcontact import contact

    params = ContactParams(k=3.7e3, mu=0.37, v_d=0.07, v_s=0.013, eps1=2e-4, eps2=2e-3, eps3=1.5e-3)
    rng = np.random.default_rng(9)
    box, ground = box_aopc([0.2, 0.2, 0.2], 24), box_aopc([1.6, 1.6, 0.2], 96)
    assert (box.num_points, ground.num_points) == (24, 126)
    P = 8
    origins = np.column_stack([rng.uniform(-0.6, 0.6, (P, 2)), np.full(P, 0.3 - 0.003)])
    quats = [quat_normalize(np.array([1.0, 0, 0, 0]) + 0.03 * rng.standard_normal(4)) for _ in range(P)]
    vels = np.concatenate([0.02 * rng.standard_normal((P, 3)), 0.3 * rng.standard_normal((P, 3))], axis=1)
    ground_twist = np.array([0.01, -0.005, 0.0, 0.0, 0.0, 0.1])
    monkeypatch.setattr(contact, "_CHUNK_ENTRIES", P * 5 * 126)

    def bodies(theta):
        v = (vels + theta[3:]).reshape(-1)
        boxes = [pose_aopc(box, Pose(origins[k] + theta[:3], quats[k]), v, 6 * k, str(k)) for k in range(P)]
        g = pose_aopc(ground, Pose(np.array([0.0, 0.0, 0.1]), np.array([1.0, 0, 0, 0])), v, None, "ground",
                      prescribed_velocity=ground_twist)
        return g, boxes

    def kernel(theta):
        g, boxes = bodies(theta)
        return contact._pair_contact(_stack([g], [0]), _stack(boxes, range(P)), params)[0]

    def oracle(theta):
        g, boxes = bodies(theta)
        fields = [_written_out_field(g, bk, params) for bk in boxes]
        return sum(_broadcast_pair_force(g, bk, f, params, f.weights) for bk, f in zip(boxes, fields))

    theta = np.zeros(9)
    got, want = kernel(theta), oracle(theta)
    assert np.abs(want).max() > 1.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Columns 0-2 step q, columns 3-8 step v.
    g_got, g_want = cs_gradient(kernel, theta), cs_gradient(oracle, theta)
    for cols in (slice(0, 3), slice(3, 9)):
        assert np.abs(g_got[:, cols] - g_want[:, cols]).max() <= 1e-12 * np.abs(g_want[:, cols]).max()

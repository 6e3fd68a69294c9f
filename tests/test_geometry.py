import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softcontact.core import quat_from_rotvec, quat_multiply, quat_normalize
from softcontact.geometry import (
    AopcError,
    LocalAopc,
    Pose,
    box_aopc,
    box_sdf,
    composite_box_aopc,
    cylinder_aopc,
    export_aopc,
    import_aopc,
    pose_aopc,
    sphere_aopc,
    transform_aopc,
)


def random_pose(rng):
    return Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))


def dense_jacobian(points, translation, dof_start, n):
    """Oracle (I, 3, n) point Jacobian: [I3 | -skew(p - t)] in the 6-column
    block at dof_start, zero for a kinematic body (dof_start None)."""
    J = np.zeros((points.shape[0], 3, n), dtype=points.dtype)
    if dof_start is not None:
        J[:, :, dof_start : dof_start + 3] = np.eye(3)
        # -skew(r) has rows r x e_j.
        J[:, :, dof_start + 3 : dof_start + 6] = np.cross((points - translation)[:, None, :], np.eye(3))
    return J


def test_unit_cube_minimal_resolution():
    cube = box_aopc([1, 1, 1], 6)
    assert cube.num_points == 6
    assert cube.num_vertices == 8
    # face centers at +-0.5 along one axis, normals the matching axis vectors
    for p, n in zip(cube.points, cube.normals):
        assert np.abs(n).sum() == 1.0
        np.testing.assert_allclose(p, 0.5 * n, atol=1e-15)
    assert sorted(np.abs(cube.vertices).ravel().tolist()) == [0.5] * 24


def test_box_resolution_scales():
    b = box_aopc([2.0, 1.0, 0.5], 300)
    assert b.num_points >= 300
    # every point sits on the surface
    assert np.abs(box_sdf(b.points, [2.0, 1.0, 0.5], [0, 0, 0])).max() < 1e-12


def test_sphere_points_and_normals_analytic():
    s = sphere_aopc(0.7, 500)
    r = np.linalg.norm(s.points, axis=1)
    np.testing.assert_allclose(r, 0.7, atol=1e-12)
    np.testing.assert_allclose(s.normals, s.points / 0.7, atol=1e-12)
    assert s.num_points >= 500


def test_sphere_isotropy():
    for res in (150, 600):
        s = sphere_aopc(1.0, res)
        p = s.points
        d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        nn = np.sqrt(d2.min(axis=1))
        assert nn.max() / nn.min() < 2.5


def test_cylinder_normals():
    c = cylinder_aopc(0.4, 1.2, 200)
    nn = np.linalg.norm(c.normals, axis=1)
    np.testing.assert_allclose(nn, 1.0, atol=1e-12)
    lateral = np.abs(c.normals[:, 2]) < 0.5
    # lateral normals are radial in the xy plane
    radial = c.points[lateral, :2] / np.linalg.norm(c.points[lateral, :2], axis=1, keepdims=True)
    np.testing.assert_allclose(c.normals[lateral, :2], radial, atol=1e-12)
    caps = ~lateral
    assert np.abs(np.abs(c.points[caps, 2]) - 0.6).max() < 1e-12


def test_composite_tee_no_interior_points():
    # two boxes overlapping by 1 cm; buried junction faces must be removed
    members = [
        (np.array([0.2, 0.05, 0.05]), np.array([0.0, 0.0, 0.0])),
        (np.array([0.05, 0.15, 0.05]), np.array([0.0, -0.09, 0.0])),
    ]
    tee = composite_box_aopc(members, 400)
    union_sdf = np.minimum(
        box_sdf(tee.points, members[0][0], members[0][1]),
        box_sdf(tee.points, members[1][0], members[1][1]),
    )
    assert union_sdf.min() > -1e-9
    # some faces of each member were removed at the junction
    both = composite_box_aopc(members, 400)
    lone = box_aopc(members[0][0], 200).num_points + box_aopc(members[1][0], 200).num_points
    assert both.num_points < lone


def test_composite_fully_overlapping_rejected():
    members = [
        (np.array([1.0, 1.0, 1.0]), np.zeros(3)),
        (np.array([0.2, 0.2, 0.2]), np.zeros(3)),
    ]
    with pytest.raises(AopcError, match="inside"):
        composite_box_aopc(members, 100)


def test_generator_input_validation():
    with pytest.raises(AopcError):
        box_aopc([1, -1, 1], 50)
    with pytest.raises(AopcError):
        sphere_aopc(1.0, 5)
    with pytest.raises(AopcError):
        cylinder_aopc(0.0, 1.0, 50)


def test_import_export_round_trip_bit_exact():
    for aopc in (box_aopc([1, 0.5, 0.25], 60), sphere_aopc(0.9, 100)):
        text = export_aopc(aopc)
        back = import_aopc(text)
        assert (back.points == aopc.points).all()
        assert (back.normals == aopc.normals).all()
        assert (back.vertices == aopc.vertices).all()
        assert (back.faces == aopc.faces).all()
        assert back.name == aopc.name


def test_import_errors_name_the_line():
    good = export_aopc(box_aopc([1, 1, 1], 6))
    lines = good.splitlines()
    # face referencing vertex index V (== num_vertices) is out of range
    bad = lines[:]
    bad[-1] = "f 0 1 2 8"
    with pytest.raises(AopcError, match=r"line 21.*out of range"):
        import_aopc("\n".join(bad))
    bad = lines[:]
    bad[3] = "p 0 0 0.5 0 0 0"
    with pytest.raises(AopcError, match=r"line 4: zero normal"):
        import_aopc("\n".join(bad))
    with pytest.raises(AopcError, match="header"):
        import_aopc("nope 1 2 3\n")
    bad = lines[:]
    bad[2] = "p 1 2 3 nan_oops 0 1"
    with pytest.raises(AopcError, match="line 3"):
        import_aopc("\n".join(bad))


def test_import_renormalizes_with_warning():
    text = "aopc t 1 4\np 0 0 0 0 0 1.001\nv 1 0 0\nv 0 1 0\nv -1 0 0\nv 0 -1 0\nf 0 1 2 3\n"
    with pytest.warns(UserWarning, match="renormal"):
        a = import_aopc(text)
    np.testing.assert_allclose(np.linalg.norm(a.normals[0]), 1.0, atol=1e-15)


def test_import_allows_comments():
    text = export_aopc(box_aopc([1, 1, 1], 6))
    lines = text.splitlines()
    lines[0] += "  # trailing comment"
    commented = "# header comment\n" + "\n".join(lines) + "\n"
    a = import_aopc(commented)
    assert a.num_points == 6


def test_local_aopc_validation():
    pts = np.zeros((1, 3))
    nrm = np.array([[0.0, 0.0, 2.0]])
    verts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0.0]])
    faces = np.array([[0, 1, 2, 3]])
    with pytest.raises(AopcError, match="norm"):
        LocalAopc(pts, nrm, verts, faces)
    with pytest.raises(AopcError, match="no face"):
        LocalAopc(pts, nrm / 2.0, np.vstack([verts, [5, 5, 5]]), faces)
    with pytest.raises(AopcError, match="out of range"):
        LocalAopc(pts, nrm / 2.0, verts, np.array([[0, 1, 2, 4]]))


@pytest.mark.parametrize("field, index", [("points", (3, 1)), ("normals", (2, 0)), ("vertices", (5, 2))])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_local_aopc_rejects_non_finite_entries(field, index, value):
    cube = box_aopc([1, 1, 1], 6)
    arrays = {"points": cube.points.copy(), "normals": cube.normals.copy(), "vertices": cube.vertices.copy()}
    arrays[field][index] = value
    with pytest.raises(AopcError, match=rf"{field} contains a non-finite entry at index \({index[0]}, {index[1]}\)"):
        LocalAopc(arrays["points"], arrays["normals"], arrays["vertices"], cube.faces)


@pytest.mark.parametrize("field, index", [("translation", 0), ("translation", 2), ("quaternion", 0), ("quaternion", 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_pose_rejects_non_finite_entries(field, index, value):
    arrays = {"translation": np.zeros(3, dtype=complex), "quaternion": np.array([1.0, 0, 0, 0], dtype=complex)}
    arrays[field][index] = value
    if isinstance(value, float):
        arrays = {k: a.real.copy() for k, a in arrays.items()}
    with pytest.raises(ValueError, match=rf"Pose {field} contains a non-finite entry at index {index}\b"):
        Pose(arrays["translation"], arrays["quaternion"])


_CUBE = box_aopc([1, 1, 1], 6)


@given(st.sampled_from(["points", "normals", "vertices"]), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=60, deadline=None)
def test_local_aopc_names_any_one_non_finite_entry(field, data, value):
    arrays = {"points": _CUBE.points.copy(), "normals": _CUBE.normals.copy(), "vertices": _CUBE.vertices.copy()}
    i = data.draw(st.integers(0, arrays[field].shape[0] - 1))
    j = data.draw(st.integers(0, 2))
    arrays[field][i, j] = value
    with pytest.raises(AopcError, match=rf"^{field} contains a non-finite entry at index \({i}, {j}\)$"):
        LocalAopc(arrays["points"], arrays["normals"], arrays["vertices"], _CUBE.faces)


_FINITE = st.floats(-1e6, 1e6)


@given(st.sampled_from([("translation", 3), ("quaternion", 4)]), st.data(), st.booleans(),
       st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=60, deadline=None)
def test_pose_names_any_one_non_finite_entry(field_size, data, in_imag, value):
    field, size = field_size
    arrays = {"translation": np.array(data.draw(st.lists(_FINITE, min_size=3, max_size=3))),
              "quaternion": np.array(data.draw(st.lists(_FINITE, min_size=4, max_size=4)))}
    index = data.draw(st.integers(0, size - 1))
    if in_imag:  # a complex-step input with a non-finite imaginary part
        arrays = {k: a + 0j for k, a in arrays.items()}
        arrays[field][index] += complex(0.0, value)
    else:
        arrays[field][index] = value
    with pytest.raises(ValueError, match=rf"^Pose {field} contains a non-finite entry at index {index}$"):
        Pose(arrays["translation"], arrays["quaternion"])


def test_pose_accepts_complex_step_input():
    q = quat_normalize(np.array([0.9, 0.1, -0.3, 0.2])) + 1e-20j * np.array([0.0, 1.0, 0.0, 0.0])
    pose = Pose(np.array([0.1, -0.2, 0.3]) + 1e-20j, q)
    assert pose.translation.imag[0] == 1e-20 and pose.quaternion.imag[1] == 1e-20


def test_pose_identity_and_translation_velocity():
    cube = box_aopc([1, 1, 1], 6)
    w = pose_aopc(cube, Pose.identity(), np.zeros(6), 0, "c")
    np.testing.assert_array_equal(w.points, cube.points)
    np.testing.assert_array_equal(w.normals, cube.normals)
    np.testing.assert_allclose(w.velocities, 0.0)

    v = np.zeros(6)
    v[:3] = [1.0, 0.0, 0.0]
    w = pose_aopc(cube, Pose.identity(), v, 0, "c")
    np.testing.assert_allclose(w.velocities, np.broadcast_to([1.0, 0, 0], (6, 3)), atol=1e-15)


def test_pose_angular_velocity_cross_product():
    # single-plate cloud: one point at (1, 0, 0), spin about z
    plate = LocalAopc(
        [[1.0, 0, 0]], [[0, 0, 1.0]],
        [[1.5, 0.5, 0], [0.5, 0.5, 0], [0.5, -0.5, 0], [1.5, -0.5, 0]],
        [[0, 1, 2, 3]],
    )
    v = np.zeros(6)
    v[3:] = [0.0, 0.0, 1.0]
    w = pose_aopc(plate, Pose.identity(), v, 0, "p")
    np.testing.assert_allclose(w.velocities[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_velocity_equals_jacobian_times_v():
    # v + w x (p - t) and J v round differently, so this is not bit-exact.
    rng = np.random.default_rng(5)
    aopc = sphere_aopc(0.5, 100)
    for _ in range(10):
        v = rng.standard_normal(12)
        pose = random_pose(rng)
        w = pose_aopc(aopc, pose, v, 6, "b")
        J = dense_jacobian(w.points, pose.translation, 6, 12)
        expected = np.einsum("ikn,n->ik", J, v)
        assert np.abs(w.velocities - expected).max() <= 1e-15 * np.abs(expected).max()
        f = rng.standard_normal(w.points.shape)
        np.testing.assert_allclose(w.generalized_force(f), np.einsum("ikn,ik->n", J, f), rtol=1e-12, atol=1e-12)


def test_posed_arms_are_the_world_moment_arms():
    # Posing rotates the body-frame arms x x e, as R (x x e) = (R x) x (R e):
    # they match (p - t) x e of the posed axes to rounding, the real part and
    # the complex-step one alike. 5e-15 is a few roundings of the reference.
    rng = np.random.default_rng(8)
    aopc = box_aopc([0.6, 0.8, 0.4], 48)
    for _ in range(10):
        pose = random_pose(rng)
        for quat in (pose.quaternion, pose.quaternion + 1e-30j * rng.standard_normal(4)):
            w = pose_aopc(aopc, Pose(pose.translation, quat), np.zeros(6), 0, "b")
            want = np.cross(w.points - w.origin, np.concatenate([w.normals[None], w.tangents]))
            assert w.arms.shape == (3, aopc.num_points, 3)
            for part in (np.real, np.imag):
                assert np.abs(part(w.arms) - part(want)).max() <= 5e-15 * np.abs(part(want)).max()
        assert np.abs(w.arms.imag).max() > 0


def test_kinematic_bodies_have_zero_jacobians():
    aopc = box_aopc([0.4, 0.4, 0.4], 24)
    w = pose_aopc(aopc, Pose.identity(), np.zeros(6), None, "k",
                  prescribed_velocity=np.array([0.5, 0, 0, 0, 0, 2.0]))
    f = np.random.default_rng(3).standard_normal(w.points.shape)
    J = dense_jacobian(w.points, np.zeros(3), None, 6)
    np.testing.assert_array_equal(w.generalized_force(f), np.einsum("ikn,ik->n", J, f))
    expected = np.array([0.5, 0, 0]) + np.cross([0, 0, 2.0], w.points)
    np.testing.assert_allclose(w.velocities, expected, atol=1e-15)


def test_rigid_distance_preservation():
    rng = np.random.default_rng(11)
    aopc = cylinder_aopc(0.3, 0.8, 120)
    d0 = np.linalg.norm(aopc.points[:, None] - aopc.points[None, :], axis=-1)
    for _ in range(5):
        w = pose_aopc(aopc, random_pose(rng), np.zeros(6), 0, "c")
        d1 = np.linalg.norm(w.points[:, None] - w.points[None, :], axis=-1)
        assert np.abs(d1 - d0).max() < 1e-9


def test_jacobian_consistency_finite_difference():
    # finite-difference point motion along 100 random generalized velocities
    rng = np.random.default_rng(2)
    aopc = box_aopc([0.6, 0.8, 0.4], 48)
    pose = random_pose(rng)
    h = 1e-6
    for _ in range(100):
        v = rng.standard_normal(6)
        w = pose_aopc(aopc, pose, v, 0, "b")
        expected = np.einsum("ikn,n->ik", dense_jacobian(w.points, pose.translation, 0, 6), v)

        def moved(sign):
            dq = quat_from_rotvec(sign * h * v[3:])
            p2 = Pose(pose.translation + sign * h * v[:3],
                      quat_normalize(quat_multiply(dq, pose.quaternion)))
            return pose_aopc(aopc, p2, v, 0, "b").points

        fd = (moved(+1.0) - moved(-1.0)) / (2 * h)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(fd - expected).max() / scale < 1e-4
        assert np.abs(fd - w.velocities).max() / scale < 1e-4


def test_transform_aopc_matches_pose():
    rng = np.random.default_rng(9)
    aopc = sphere_aopc(0.4, 60)
    pose = random_pose(rng)
    t = transform_aopc(aopc, pose)
    w = pose_aopc(aopc, pose, np.zeros(6), 0, "s")
    np.testing.assert_allclose(t.points, w.points, atol=1e-12)
    np.testing.assert_allclose(t.normals, w.normals, atol=1e-12)

import dataclasses

import numpy as np
import pytest

from softcontact.collision import (
    ContactPointSet,
    collision_report_csv,
    contact_points,
    separation_field,
    soft_separation_distance,
    soft_top_k,
    vertex_weights,
)
from softcontact.core import quat_from_rotvec, quat_normalize
from softcontact.geometry import Pose, box_aopc, composite_box_aopc, pose_aopc, sphere_aopc
from softcontact.ssdf import hard_sdf
from softcontact.verify import cs_gradient, fd_gradient, relative_error


def posed(aopc, translation=(0, 0, 0), quaternion=(1, 0, 0, 0), dof=0, n=12, name="b"):
    pose = Pose(np.asarray(translation, dtype=float), quat_normalize(np.asarray(quaternion, dtype=float)))
    return pose_aopc(aopc, pose, np.zeros(n), dof, name)


def hard_min_separation(a, b):
    va, _ = hard_sdf(a, b.points)
    vb, _ = hard_sdf(b, a.points)
    return min(va.min(), vb.min())


def test_separated_boxes_gap():
    box = box_aopc([1, 1, 1], 150)
    a = posed(box, name="a")
    b = posed(box, (0, 0, 2.0), dof=6, name="b")
    fld = separation_field(a, b, 1e-6, 1e-6)
    assert abs(fld.values.min() - 1.0) < box.spacing()
    assert abs(fld.distribution.sum() - 1.0) < 1e-12
    # concatenation order: b's points first, then a's
    rows = [r.split(",")[:2] for r in collision_report_csv(fld, a, b, 1.0, 1.0).splitlines()[1:-1]]
    assert rows == [["2", str(j)] for j in range(box.num_points)] + [["1", str(j)] for j in range(box.num_points)]


def test_report_csv_takes_the_split_from_the_bodies():
    # The field keeps no directional SSDFs, so the report splits its entries
    # at the b the caller passes: b's 54 points, then a's 24.
    a = posed(box_aopc([1, 1, 1], 24), name="a")
    b = posed(sphere_aopc(0.4, 54), (0, 0, 2.0), dof=6, name="b")
    fld = separation_field(a, b, 1e-4, 1e-3)
    rows = [r.split(",")[:2] for r in collision_report_csv(fld, a, b, 1.0, 1.0).splitlines()[1:-1]]
    assert rows == [["2", str(j)] for j in range(b.num_points)] + [["1", str(j)] for j in range(a.num_points)]
    with pytest.raises(ValueError, match="does not match AOPC pair"):
        collision_report_csv(fld, a, a, 1.0, 1.0)


def test_separation_field_over_several_query_blocks_is_the_one_block_field(monkeypatch):
    # A box of 54 points against a sphere of 96, alone and as a stack of two
    # pairs: blocks of 400 entries (7 or 4 queries, the last ragged; 3 or 2
    # in the stack) give the values and distribution of one block per
    # direction bit for bit. No block holds a single query, whose
    # matrix-vector product may round differently in the last bit.
    import importlib

    box, ball = box_aopc([0.3, 0.3, 0.3], 54), sphere_aopc(0.2, 96)
    a = posed(box, (0.0, 0.0, 0.0), (1.0, 0.1, 0.0, 0.05), name="a")
    b = posed(ball, (0.02, 0.01, 0.33), dof=6, name="b")
    c = posed(ball, (0.33, 0.01, 0.02), dof=6, name="c")
    stack = [dataclasses.replace(a, points=np.stack([a.points] * 2), normals=np.stack([a.normals] * 2)),
             dataclasses.replace(b, points=np.stack([b.points, c.points]), normals=np.stack([b.normals, c.normals]))]
    fields = [separation_field(x, y, 1e-4, 1e-3) for x, y in ((a, b), stack)]
    monkeypatch.setattr(importlib.import_module("softcontact.ssdf"), "_CHUNK_ENTRIES", 400)
    for (x, y), want in zip(((a, b), stack), fields):
        got = separation_field(x, y, 1e-4, 1e-3)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.distribution.tobytes() == want.distribution.tobytes()
    assert fields[1].values.shape == (2, 150)


def test_swap_is_a_block_permutation():
    s1 = sphere_aopc(0.5, 96)
    s2 = box_aopc([0.7, 0.7, 0.7], 96)
    a = posed(s1, name="a")
    b = posed(s2, (0.8, 0.1, 0), dof=6, name="b")
    f_ab = separation_field(a, b, 1e-4, 1e-3)
    f_ba = separation_field(b, a, 1e-4, 1e-3)
    Ib = s2.num_points
    np.testing.assert_array_equal(f_ba.values, np.concatenate([f_ab.values[Ib:], f_ab.values[:Ib]]))
    np.testing.assert_allclose(
        f_ba.distribution, np.concatenate([f_ab.distribution[Ib:], f_ab.distribution[:Ib]]), atol=1e-15
    )


def test_overlapping_spheres_depth():
    s = sphere_aopc(1.0, 600)
    a = posed(s, name="a")
    b = posed(s, (0, 0, 1.5), dof=6, name="b")
    fld = separation_field(a, b, 1e-6, 1e-6)
    assert abs(fld.values.min() + 0.5) < s.spacing()


def test_soft_separation_limits():
    s = sphere_aopc(0.6, 150)
    a = posed(s, name="a")
    b = posed(s, (1.7, 0, 0), dof=6, name="b")
    fld = separation_field(a, b, 1e-9, 1e-9 * 1.0)
    assert abs(soft_separation_distance(fld) - fld.values.min()) < 1e-9

    # all values equal: any distribution returns that value
    fld_eq = separation_field(a, b, 1e-9, 1e-9)
    v0 = fld_eq.values.min()
    assert soft_separation_distance(fld_eq) <= fld_eq.values.max()
    assert soft_separation_distance(fld_eq) >= v0


def test_soft_separation_symmetry():
    s1 = sphere_aopc(0.5, 120)
    s2 = sphere_aopc(0.8, 120)
    a = posed(s1, name="a")
    b = posed(s2, (1.1, 0.2, -0.1), dof=6, name="b")
    d_ab = soft_separation_distance(separation_field(a, b, 1e-4, 1e-3))
    d_ba = soft_separation_distance(separation_field(b, a, 1e-4, 1e-3))
    assert abs(d_ab - d_ba) < 1e-12


def test_soft_separation_between_min_and_max():
    rng = np.random.default_rng(0)
    s = box_aopc([0.5, 0.9, 0.7], 60)
    for _ in range(10):
        a = posed(s, rng.standard_normal(3) * 0.4, rng.standard_normal(4), name="a")
        b = posed(s, rng.standard_normal(3) * 0.4, rng.standard_normal(4), dof=6, name="b")
        fld = separation_field(a, b, 1e-3, rng.uniform(1e-4, 0.1))
        d = soft_separation_distance(fld)
        assert fld.values.min() - 1e-12 <= d <= fld.values.max() + 1e-12


def test_oracle_convergence_random_poses():
    rng = np.random.default_rng(7)
    sph = sphere_aopc(0.7, 220)
    box = box_aopc([1.0, 0.8, 0.6], 220)
    for _ in range(20):
        a = posed(sph, rng.standard_normal(3) * 0.3, name="a")
        b = posed(box, rng.standard_normal(3) * 0.3 + np.array([1.2, 0, 0]), rng.standard_normal(4), dof=6, name="b")
        fld = separation_field(a, b, 1e-9, 1e-9)
        soft = soft_separation_distance(fld)
        hard = hard_min_separation(a, b)
        assert abs(soft - hard) < 1e-6


def test_vertex_weights_one_hot_face():
    box = box_aopc([1, 1, 1], 6)
    a = posed(box, name="a")
    b = posed(box, (0, 0, 3.0), dof=6, name="b")
    fld = separation_field(a, b, 1e-4, 1e-3)
    # force a one-hot distribution on field entry 0 (a face of b)
    dist = np.zeros(len(fld))
    dist[0] = 1.0
    fld_hot = dataclasses.replace(fld, distribution=dist)
    z = vertex_weights(fld_hot, a, b)
    hot_face = b.faces[0]
    expected = np.zeros(a.num_vertices + b.num_vertices)
    expected[a.num_vertices + hot_face] = 1.0
    np.testing.assert_array_equal(z, expected)
    assert abs(z.sum() - 4.0) < 1e-10


def test_vertex_weights_uniform_distribution_counts_degree():
    box = box_aopc([1, 1, 1], 6)
    a = posed(box, name="a")
    b = posed(box, (0, 0, 3.0), dof=6, name="b")
    fld = separation_field(a, b, 1e-4, 1e-3)
    F = len(fld)
    dist = np.full(F, 1.0 / F)
    fld_u = dataclasses.replace(fld, distribution=dist)
    z = vertex_weights(fld_u, a, b)
    # every cube vertex belongs to 3 of the 6 faces
    np.testing.assert_allclose(z, 3.0 / F, atol=1e-15)
    assert abs(z.sum() - 4.0) < 1e-10


def test_vertex_weights_sum_is_four():
    rng = np.random.default_rng(1)
    s1 = sphere_aopc(0.5, 100)
    s2 = box_aopc([0.8, 0.6, 0.7], 80)
    a = posed(s1, name="a")
    b = posed(s2, (0.9, 0, 0), dof=6, name="b")
    fld = separation_field(a, b, 1e-4, 1e-3)
    z = vertex_weights(fld, a, b)
    assert abs(z.sum() - 4.0) < 1e-10


def test_soft_top_k_examples():
    g = soft_top_k(np.array([10.0, 0.0, 0.0]), 1, 1e-3)
    np.testing.assert_allclose(g, [[1.0, 0.0, 0.0]], atol=1e-12)

    g = soft_top_k(np.array([3.0, 2.0, 1.0]), 2, 1e-3)
    np.testing.assert_allclose(g[0], [1, 0, 0], atol=1e-9)
    np.testing.assert_allclose(g[1], [0, 1, 0], atol=1e-9)

    g = soft_top_k(np.full(5, 2.5), 1, 1e-3)
    np.testing.assert_allclose(g, np.full((1, 5), 0.2), atol=1e-15)


def test_soft_top_k_rows_are_stochastic_and_validated():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(9)
    g = soft_top_k(z, 4, 0.05)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-10)
    with pytest.raises(ValueError):
        soft_top_k(z, 10, 0.05)
    with pytest.raises(ValueError):
        soft_top_k(z, 0, 0.05)


def test_soft_top_k_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        V = int(rng.integers(5, 26))
        K = int(rng.integers(1, V + 1))
        z = rng.permutation(np.linspace(0, 1, V) + rng.uniform(-0.1, 0.1, V) / V)
        g = soft_top_k(z, K, 1e-3 * (z.max() - z.min()))
        oracle = np.argsort(z)[::-1][:K]
        assert np.abs(g - np.eye(V)[oracle]).max() < 1e-6


def test_contact_points_convex_combination():
    box = box_aopc([1, 1, 1], 6)
    a = posed(box, name="a")
    b = posed(box, (0, 0, 0.95), dof=6, name="b")
    fld = separation_field(a, b, 1e-3, 0.05)
    cps = contact_points(a, b, fld, 4, 1e-2)
    assert isinstance(cps, ContactPointSet)
    joint = np.vstack([a.vertices, b.vertices])
    lo, hi = joint.min(axis=0) - 1e-9, joint.max(axis=0) + 1e-9
    assert (cps.points >= lo).all() and (cps.points <= hi).all()
    np.testing.assert_allclose(cps.selection.sum(axis=1), 1.0, atol=1e-10)

    # uniform selection rows put every contact point at the joint centroid
    uniform = np.full((3, joint.shape[0]), 1.0 / joint.shape[0]) @ joint
    np.testing.assert_allclose(uniform, np.broadcast_to(joint.mean(axis=0), (3, 3)), atol=1e-12)


def test_stacked_tilted_boxes_select_patch_corners():
    box = box_aopc([1, 1, 1], 6)
    a = posed(box, name="lower")
    tilt = quat_from_rotvec(np.array([0.06, 0.05, 0.0]))
    b = posed(box, (0, 0, 0.96), tilt, dof=6, name="upper")
    fld = separation_field(a, b, 0.01, 0.1)
    z = vertex_weights(fld, a, b)
    order = np.argsort(z)[::-1][:8]
    # the 8 winners are the touching-face corner vertices of the two boxes
    expect = {i for i in range(8) if box.vertices[i][2] > 0}
    expect |= {8 + i for i in range(8) if box.vertices[i][2] < 0}
    assert set(order.tolist()) == expect
    cps = contact_points(a, b, fld, 8, 1e-5 * (z.max() - z.min()))
    joint = np.vstack([a.vertices, b.vertices])
    for k in range(8):
        assert np.linalg.norm(cps.points[k] - joint[order[k]]) < 1e-6


def test_pose_gradient_of_soft_separation():
    # smoothness of the separation distance with respect to body pose
    box = box_aopc([0.8, 0.6, 0.9], 60)
    sph = sphere_aopc(0.5, 60)
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = np.array([1.0, 0, 0]) + 0.1 * rng.standard_normal(3)
        q = quat_normalize(np.array([1.0, 0, 0, 0]) + 0.1 * rng.standard_normal(4))

        def f(theta):
            b = pose_aopc(sph, Pose(theta[:3], theta[3:] / np.sqrt(np.sum(theta[3:] * theta[3:]))),
                          np.zeros(12), 6, "b")
            a = pose_aopc(box, Pose.identity(), np.zeros(12), 0, "a")
            return soft_separation_distance(separation_field(a, b, 1e-3, 1e-2))

        theta = np.concatenate([t, q])
        g_cs = cs_gradient(f, theta)
        g_fd = fd_gradient(f, theta, 1e-6)
        assert relative_error(g_cs, g_fd).max() < 1e-4


def test_multimodal_distribution_two_contact_regions():
    # U-shape: two prongs bridged on top, both prongs penetrating a slab
    members = [
        ((0.1, 0.1, 0.3), (-0.3, 0.0, 0.15)),
        ((0.1, 0.1, 0.3), (0.3, 0.0, 0.15)),
        ((0.7, 0.1, 0.1), (0.0, 0.0, 0.35)),
    ]
    u_shape = composite_box_aopc(members, 500)
    slab = box_aopc([1.4, 0.6, 0.2], 200)
    eps2 = 0.02
    a = posed(slab, (0, 0, -0.1 + 0.01), name="slab")  # prongs sink 1 cm
    b = posed(u_shape, dof=6, name="u")
    fld = separation_field(a, b, 1e-4, eps2)
    world_q = np.vstack([b.points, a.points])  # query point per field entry is
    # b's points then a's points, matching the field order
    x_of_entry = np.concatenate([b.points[:, 0], a.points[:, 0]])
    left = fld.distribution[x_of_entry < -0.15].sum()
    right = fld.distribution[x_of_entry > 0.15].sum()
    assert left > 0.05 and right > 0.05


def test_eps_validation_and_report_csv():
    s = sphere_aopc(0.4, 54)
    a = posed(s, name="a")
    b = posed(s, (1.0, 0, 0), dof=6, name="b")
    with pytest.raises(ValueError):
        separation_field(a, b, 0.0, 1e-3)
    with pytest.raises(ValueError):
        separation_field(a, b, 1e-3, -1.0)
    fld = separation_field(a, b, 1e-4, 1e-3)
    text = collision_report_csv(fld, a, b, 0.25, 0.24)
    lines = text.strip().splitlines()
    assert lines[0] == "surface,face,phi,weight"
    assert len(lines) == len(fld) + 2
    assert lines[-1].startswith("# soft_separation_m=")

import warnings

import numpy as np
import pytest

from softcontact.core import quat_normalize
from softcontact.geometry import LocalAopc, Pose, box_aopc, sphere_aopc, transform_aopc
from softcontact.ssdf import (
    AnisotropicGaussianBasis,
    IsotropicGaussianBasis,
    grid_to_csv,
    hard_sdf,
    sample_sdf_grid,
    ssdf,
    ssdf_general,
)
from softcontact.verify import cs_gradient, fd_gradient, relative_error


def plate(center, normal, half=0.5):
    """Single-quad cloud: one point with one plane."""
    center = np.asarray(center, dtype=float)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    # local in-plane frame
    a = np.array([1.0, 0, 0]) if abs(normal[0]) < 0.9 else np.array([0, 1.0, 0])
    u = np.cross(normal, a); u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    verts = [center + half * (su * u + sv * v) for su, sv in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    return LocalAopc([center], [normal], verts, [[0, 1, 2, 3]])


def two_plates():
    # plane 1 through origin facing +z, plane 2 through (0,0,1) facing -z
    p1 = plate([0, 0, 0], [0, 0, 1])
    p2 = plate([0, 0, 1], [0, 0, -1])
    return LocalAopc(
        np.vstack([p1.points, p2.points]),
        np.vstack([p1.normals, p2.normals]),
        np.vstack([p1.vertices, p2.vertices]),
        np.vstack([p1.faces, p2.faces + 4]),
    )


def test_single_point_weight_is_one():
    a = plate([0, 0, 0], [0, 0, 1])
    r = ssdf(a, np.array([0.0, 0.0, 0.3]), 0.123)
    assert r.weights.shape == (1,)
    assert r.weights[0] == 1.0
    np.testing.assert_allclose(r.value, 0.3, atol=1e-15)


def test_two_plane_symmetric_query():
    a = two_plates()
    r = ssdf(a, np.array([0.0, 0.0, 0.5]), 0.2)
    np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(r.value, 0.5, atol=1e-15)


def test_sphere_exterior_query_matches_analytic():
    s = sphere_aopc(1.0, 4096)
    r = ssdf(s, np.array([0.0, 0.0, 3.0]), 1e-6)
    assert abs(r.value - 2.0) < 2 * s.spacing()


def test_hard_sdf_examples():
    a = two_plates()
    val, idx = hard_sdf(a, np.array([0.0, 0.0, 0.4]))
    assert idx == 0  # first plane is nearest
    np.testing.assert_allclose(val, 0.4, atol=1e-15)

    # equidistant tie goes to the lowest index
    val, idx = hard_sdf(a, np.array([0.0, 0.0, 0.5]))
    assert idx == 0

    cube = box_aopc([1, 1, 1], 6)
    val, idx = hard_sdf(cube, np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(val, 4.5, atol=1e-12)


def test_batch_and_single_queries_agree():
    s = sphere_aopc(0.8, 150)
    rng = np.random.default_rng(0)
    qs = rng.standard_normal((7, 3)) * 2
    batch = ssdf(s, qs, 1e-3)
    for i, q in enumerate(qs):
        one = ssdf(s, q, 1e-3)
        # BLAS kernels reassociate differently for different shapes, so only
        # near-ulp agreement is guaranteed
        np.testing.assert_allclose(one.value, batch.value[i], rtol=1e-12)
        np.testing.assert_allclose(one.weights, batch.weights[i], rtol=1e-9, atol=0)


def test_ssdf_general_isotropic_equals_plain():
    s = sphere_aopc(0.6, 200)
    rng = np.random.default_rng(1)
    qs = rng.standard_normal((20, 3))
    eps1 = 3e-3
    plain = ssdf(s, qs, eps1)
    gen = ssdf_general(s, qs, IsotropicGaussianBasis(eps1))
    np.testing.assert_allclose(gen.value, plain.value, atol=1e-12)

    aniso = ssdf_general(s, qs, AnisotropicGaussianBasis(np.eye(3) / eps1))
    np.testing.assert_allclose(aniso.value, plain.value, atol=1e-12)


def test_ssdf_general_single_point_collapses():
    a = plate([0.2, -0.1, 0.0], [0, 1, 0])
    q = np.array([0.2, 0.7, 0.0])
    for basis in (IsotropicGaussianBasis(0.05), AnisotropicGaussianBasis(np.diag([1.0, 4.0, 9.0]))):
        r = ssdf_general(a, q, basis)
        np.testing.assert_allclose(r.value, 0.8, atol=1e-12)


def test_ssdf_general_rejects_bad_precision():
    s = sphere_aopc(0.5, 100)
    with pytest.raises(ValueError, match="positive definite"):
        ssdf_general(s, np.zeros(3), AnisotropicGaussianBasis(np.diag([1.0, -1.0, 1.0])))
    with pytest.raises(ValueError, match="bandwidth"):
        ssdf_general(s, np.zeros(3), IsotropicGaussianBasis(-0.1))


def test_rigid_invariance():
    rng = np.random.default_rng(3)
    s = box_aopc([0.8, 0.5, 0.3], 100)
    for _ in range(5):
        pose = Pose(rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
        moved = transform_aopc(s, pose)
        q = rng.standard_normal(3)
        from softcontact.core import quat_to_matrix

        q_moved = quat_to_matrix(pose.quaternion) @ q + pose.translation
        v0 = ssdf(s, q, 1e-3).value
        v1 = ssdf(moved, q_moved, 1e-3).value
        assert abs(v0 - v1) < 1e-9


def test_oracle_convergence_tiny_temperature():
    rng = np.random.default_rng(4)
    s = sphere_aopc(1.0, 300)
    for _ in range(30):
        q = rng.standard_normal(3) * 1.5
        d = np.sort(np.sum((q - s.points) ** 2, axis=1))
        if d[1] - d[0] < 1e-3:  # skip near-Voronoi-boundary queries
            continue
        eps1 = 1e-9 * np.median(np.sum((q - s.points) ** 2, axis=1))
        hard_val, _ = hard_sdf(s, q)
        assert abs(ssdf(s, q, eps1).value - hard_val) < 1e-9


def test_smoothness_wrt_query():
    # gradient and Hessian diagonal of the value vs finite differences
    rng = np.random.default_rng(5)
    s = sphere_aopc(0.7, 120)
    eps1 = 5e-3
    checked = 0
    while checked < 100:
        q = rng.standard_normal(3)
        d = np.sort(np.sum((q - s.points) ** 2, axis=1))
        if d[1] - d[0] < 1e-2:
            continue
        checked += 1
        f = lambda x: ssdf(s, x, eps1).value
        g_cs = cs_gradient(f, q)
        g_fd = fd_gradient(f, q, 1e-5)
        # normalize by the gradient scale: components can be structural zeros
        assert np.abs(g_cs - g_fd).max() / max(1e-8, np.abs(g_fd).max()) < 1e-4
    # Hessian diagonal at a few points
    for _ in range(10):
        q = rng.standard_normal(3)
        f = lambda x: ssdf(s, x, eps1).value
        for i in range(3):
            e = np.zeros(3); e[i] = 1e-4
            h_cs = (cs_gradient(f, q + e)[i] - cs_gradient(f, q - e)[i]) / 2e-4
            h_fd = (f(q + e) - 2 * f(q) + f(q - e)) / 1e-8
            assert abs(h_cs - h_fd) <= 1e-3 * max(1.0, abs(h_cs))


def test_value_within_plane_distance_hull():
    rng = np.random.default_rng(6)
    s = box_aopc([1, 1, 1], 60)
    from softcontact.ssdf import plane_distances

    qs = rng.standard_normal((50, 3)) * 2
    r = ssdf(s, qs, rng.uniform(1e-4, 1.0))
    sd = plane_distances(s, qs)
    assert (r.value <= sd.max(axis=1) + 1e-12).all()
    assert (r.value >= sd.min(axis=1) - 1e-12).all()


def test_grid_symmetry():
    cube = box_aopc([1, 1, 1], 6)
    pts, vals = sample_sdf_grid(cube, ([-1, -1, -1], [1, 1, 1]), (5, 5, 5), 0.1)
    grid = vals.reshape(5, 5, 5)
    np.testing.assert_allclose(grid, grid[::-1, :, :], atol=1e-9)
    np.testing.assert_allclose(grid, grid[:, :, ::-1], atol=1e-9)


def test_grid_matches_hard_oracle_away_from_ties():
    box = box_aopc([1.0, 0.8, 0.6], 150)
    eps1 = 1e-6
    pts, vals = sample_sdf_grid(box, ([-1.2, -1.1, -0.9], [1.2, 1.1, 0.9]), (13, 11, 9), eps1)
    hard_vals, _ = hard_sdf(box, pts)
    d = np.sort(
        np.sum((pts[:, None, :] - box.points[None, :, :]) ** 2, axis=-1), axis=1
    )
    keep = d[:, 1] - d[:, 0] >= 10 * eps1
    # the symmetric lattice puts many nodes exactly on Voronoi boundaries;
    # those are the ones the exclusion rule is for
    assert keep.sum() > 0.5 * len(pts)
    assert np.abs(vals[keep] - hard_vals[keep]).max() < 1e-6


def test_grid_slice_and_validation():
    cube = box_aopc([1, 1, 1], 6)
    pts, vals = sample_sdf_grid(cube, ([-1, -1, -1], [1, 1, 1]), (4, 4, 9), 0.1, slice_axis=2, slice_value=0.25)
    assert pts.shape == (16, 3)
    assert (pts[:, 2] == 0.25).all()
    with pytest.raises(ValueError, match="bounds"):
        sample_sdf_grid(cube, ([1, -1, -1], [-1, 1, 1]), (4, 4, 4), 0.1)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="slice_value must be finite"):
            sample_sdf_grid(cube, ([-1, -1, -1], [1, 1, 1]), (4, 4, 9), 0.1, slice_axis=2, slice_value=value)
    with pytest.raises(ValueError, match="resolution"):
        sample_sdf_grid(cube, ([-1, -1, -1], [1, 1, 1]), (1, 4, 4), 0.1)
    # Non-finite bounds are refused before any lattice or softmax work, with
    # no RuntimeWarning on the way.
    for lo, hi in (([np.nan, -1, -1], [1, 1, 1]), ([-1, -1, -1], [1, np.inf, 1]), ([-1, -1, -np.inf], [1, 1, 1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bounds must be finite"):
                sample_sdf_grid(cube, (lo, hi), (4, 4, 4), 0.1, slice_axis=2)


def test_grid_csv_format():
    cube = box_aopc([1, 1, 1], 6)
    pts, vals = sample_sdf_grid(cube, ([-1, -1, -1], [1, 1, 1]), (2, 2, 2), 0.1)
    text = grid_to_csv(pts, vals)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,z,phi"
    assert len(lines) == 9
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == [-1.0, -1.0, -1.0]


@pytest.mark.parametrize("query, index", [
    ([np.nan, 0.0, 0.0], "0"),
    ([[0.1, 0.0, 0.0], [0.0, np.inf, 0.0]], r"\(1, 1\)"),
    ([[0.1, 0.0, 0.0], [0.0, 0.0, complex(-np.inf, 1e-30)]], r"\(1, 2\)"),
])
def test_a_nonfinite_query_is_rejected_by_index(query, index):
    # Raised before any arithmetic, so no RuntimeWarning comes first. A NaN
    # in a complex-step tangent is not rejected: it propagates to its query.
    box = box_aopc([0.4, 0.3, 0.2], 24)
    query = np.array(query)
    calls = [lambda: ssdf(box, query, 1e-3)]
    if not np.iscomplexobj(query):
        calls += [lambda: hard_sdf(box, query), lambda: ssdf_general(box, query, IsotropicGaussianBasis(1e-3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=f"^query contains a non-finite entry at index {index}$"):
                call()
        got = ssdf(box, np.array([[0.1, 0.0, 0.3], [0.0, 0.05, complex(0.3, np.nan)]]), 1e-3)
    assert np.isfinite(got.value.real).all() and np.isnan(got.value.imag[1])


def test_out_arguments_write_in_place_and_match_fresh_results():
    # squared_distances, plane_distances, softmax and softplus given out=
    # write their result there (x itself allowed for softmax and softplus)
    # and return the same bits as a call that allocates.
    from softcontact.core import softmax, softplus
    from softcontact.ssdf import plane_distances, squared_distances

    cube = transform_aopc(box_aopc([0.4, 0.3, 0.2], 24), Pose(np.array([0.01, 0.02, 0.0]), quat_normalize(np.array([1.0, 0.1, 0.0, 0.05]))))
    q = np.random.default_rng(3).uniform(-0.3, 0.3, (7, 3))
    for query in (q, q + 1e-30j):
        want = ssdf(cube, query, 1e-3)
        for f in (squared_distances, plane_distances):
            buf = np.empty_like(want.plane_distances)
            assert f(cube, query, out=buf) is buf and buf.tobytes() == f(cube, query).tobytes()
        x = -want.plane_distances
        for f in (lambda y, out=None: softmax(y, 1e-2, out=out), lambda y, out=None: softplus(y, 1e-2, out=out)):
            fresh = f(x)
            buf = x.copy()
            assert f(buf, out=buf) is buf and buf.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("tangent", [0.0, 1e-30])
def test_ssdf_blocks_build_the_matrix_once_and_give_ssdf_bit_for_bit(monkeypatch, tangent):
    # Five blocks of at most 20 queries against one cloud matrix; each
    # block's values, and for a real query its weights e / sums, are those
    # of ssdf on the block's queries.
    import importlib

    module = importlib.import_module("softcontact.ssdf")  # the package binds ssdf to the function
    cloud = box_aopc([0.3, 0.3, 0.3], 54)
    queries = sphere_aopc(0.2, 96).points + np.array([0.1, 0.05, 0.2]) + (1j * tangent if tangent else 0.0)
    built = []
    matrix = module._ssdf_matrix
    monkeypatch.setattr(module, "_ssdf_matrix", lambda *args: built.append(1) or matrix(*args))
    monkeypatch.setattr(module, "_CHUNK_ENTRIES", 54 * 20)
    blocks = list(module._ssdf_blocks(cloud, queries, 1e-3))
    assert len(built) == 1 and [sl.start for sl, *_ in blocks] == [0, 20, 40, 60, 80]
    for sl, value, sums, out in blocks:
        want = ssdf(cloud, queries[sl], 1e-3)
        np.testing.assert_array_equal(value, want.value)
        np.testing.assert_array_equal(np.moveaxis(out[0] / (sums[0] if tangent else sums), 0, -1), want.weights.real)

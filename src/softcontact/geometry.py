"""Oriented point clouds: construction, file format, and rigid posing.

A collision body is a set of planar quadrangle patches covering its surface.
Each patch contributes a center point with an outward unit normal; the quad
corner vertices (with face-vertex incidence) are kept for contact point
extraction. Generators produce near-isotropic quadrangulations of analytic
primitives; arbitrary pre-quadrangulated shapes enter through the text format.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import _reject_nonfinite, norm, quat_to_matrix


class AopcError(ValueError):
    pass


def _tangent_frames(normals: np.ndarray) -> np.ndarray:
    """Tangents t1, t2 completing each unit normal n to a right-handed
    orthonormal frame, shape (2, I, 3); branch-free apart from the sign of
    n_z (Duff et al., "Building an Orthonormal Basis, Revisited", 2017)."""
    x, y, z = (normals / norm(normals)[:, None]).T
    s = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (s + z)
    b = x * y * a
    t1 = np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=-1)
    t2 = np.stack([b, s + y * y * a, -y], axis=-1)
    return np.stack([t1, t2])


@dataclass(frozen=True)
class LocalAopc:
    """Body-frame oriented point cloud with quad-vertex incidence.

    points   : (I, 3) quad centers, meters
    normals  : (I, 3) outward unit normals
    vertices : (V, 3) quad corner vertices, meters
    faces    : (I, 4) vertex indices of the quad behind each point
    tangents : (2, I, 3) derived unit tangents t1, t2; (n, t1, t2) is a
               right-handed orthonormal frame at each point
    arms     : (3, I, 3) derived moment arms x x e of e = n, t1, t2
    """

    points: np.ndarray
    normals: np.ndarray
    vertices: np.ndarray
    faces: np.ndarray
    name: str = ""
    tangents: np.ndarray = field(init=False, repr=False, compare=False)
    arms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        normals = np.ascontiguousarray(np.asarray(self.normals, dtype=float))
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        faces = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
            raise AopcError("points must be a non-empty (I, 3) array")
        if normals.shape != points.shape:
            raise AopcError("normals must match points shape")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise AopcError("vertices must be a (V, 3) array")
        if faces.shape != (points.shape[0], 4):
            raise AopcError("faces must be an (I, 4) index array")
        for name, arr in (("points", points), ("normals", normals), ("vertices", vertices)):
            _reject_nonfinite(arr, name, AopcError)
        nn = norm(normals)
        if np.any(np.abs(nn - 1.0) > 1e-9):
            i = int(np.argmax(np.abs(nn - 1.0)))
            raise AopcError(f"normal {i} has norm {nn[i]:.12g}, expected 1")
        V = vertices.shape[0]
        if faces.min(initial=0) < 0 or (V == 0) or faces.max(initial=-1) >= V:
            raise AopcError("face references a vertex index out of range")
        used = np.zeros(V, dtype=bool)
        used[faces.ravel()] = True
        if not used.all():
            raise AopcError(f"vertex {int(np.argmin(used))} belongs to no face")
        tangents = _tangent_frames(normals)
        arms = np.cross(points, np.concatenate([normals[None], tangents]))
        for name, arr in (("points", points), ("normals", normals), ("vertices", vertices), ("faces", faces),
                          ("tangents", tangents), ("arms", arms)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def spacing(self) -> float:
        """Max nearest-neighbor distance among the points (coverage scale)."""
        p = self.points
        if p.shape[0] == 1:
            return 0.0
        d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min(axis=1).max()))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: world_x = R(quaternion) @ local_x + translation."""

    translation: np.ndarray
    quaternion: np.ndarray  # (w, x, y, z), unit

    def __post_init__(self):
        t = np.asarray(self.translation)
        q = np.asarray(self.quaternion)
        if t.shape != (3,) or q.shape != (4,):
            raise ValueError("Pose needs translation (3,) and quaternion (4,)")
        _reject_nonfinite(t, "Pose translation")
        _reject_nonfinite(q, "Pose quaternion")
        if not np.iscomplexobj(q) and abs(float(np.sqrt(np.sum(q * q))) - 1.0) > 1e-9:
            raise ValueError("Pose quaternion must be unit (renormalize first)")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "quaternion", q)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


@dataclass(frozen=True)
class WorldAopc:
    """A LocalAopc posed into world frame, with per-point velocities.

    tangents (2, I, 3) and arms (3, I, 3), (p - t) x e, are the LocalAopc's
    rotated with the normals. A free body's 6-DOF block [linear; angular] of
    the num_dofs generalized velocities starts at dof_start and refers to
    the body origin t; kinematic bodies have dof_start -1. The point Jacobian
    [I3 | -skew(p - t)] is never built. A stack of P same-size clouds adds a
    pair axis before each array's (I, 3) and has no vertices or faces.
    """

    points: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    arms: np.ndarray
    velocities: np.ndarray
    origin: np.ndarray
    dof_start: np.ndarray
    num_dofs: int
    vertices: np.ndarray | None = None
    faces: np.ndarray | None = None
    body_id: str = ""

    @property
    def num_points(self) -> int:
        return self.points.shape[-2]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def generalized_force(self, forces: np.ndarray) -> np.ndarray:
        """J^T f, (n,), of world forces f (..., I, 3) on the points: each
        body's wrench (sum f, sum (p - t) x f)."""
        torque = moment(self.points - self.origin[..., None, :], forces)
        return self.wrench_force(np.concatenate([forces.sum(axis=-2), torque], axis=-1))

    def wrench_force(self, wrench: np.ndarray) -> np.ndarray:
        """The (n,) generalized force of wrenches (..., 6), [force; torque
        about the origin t], each added into its body's 6-DOF block, the
        stack broadcast against them; kinematic bodies' go to a dump block past n."""
        n = self.num_dofs
        out = np.zeros(n + 6, dtype=wrench.dtype)
        idx = np.empty(wrench.shape, dtype=int)
        idx[...] = np.where(self.dof_start < 0, n, self.dof_start)[..., None] + np.arange(6)
        np.add.at(out, idx, wrench)
        return out[:n]


def moment(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum r x f over the point axis of (..., I, 3) arrays: the antisymmetric
    part of the 3 x 3 matrix sum r f^T."""
    M = np.swapaxes(r, -1, -2) @ f
    return M[..., [1, 2, 0], [2, 0, 1]] - M[..., [2, 0, 1], [1, 2, 0]]


def posed_arrays(R, t, twist, points, normals, tangents, arms):
    """The posing arithmetic, for one body or a group of bodies with a
    leading axis: world points p = R x + t; normals, tangents and moment arms
    rotated by R; and point velocities v + w x (p - t) = v + (w x R) x of the
    world twist [v; w] at t, where w x R crosses w with each column of R.

    R (..., 3, 3), t (..., 3), twist (..., 6); points and normals
    (..., I, 3), tangents (2, ..., I, 3), arms (3, ..., I, 3). Returns
    (points, normals, tangents, arms, velocities).
    """
    Rt = np.swapaxes(R, -1, -2)
    w = twist[..., 3:, None]
    wR = w[..., [1, 2, 0], :] * R[..., [2, 0, 1], :] - w[..., [2, 0, 1], :] * R[..., [1, 2, 0], :]
    vel = points @ np.swapaxes(wR, -1, -2) + twist[..., None, :3]
    return points @ Rt + t[..., None, :], normals @ Rt, tangents @ Rt, arms @ Rt, vel


def pose_aopc(
    aopc: LocalAopc,
    pose: Pose,
    gen_velocity: np.ndarray,
    dof_start: int | None,
    body_id: str = "",
    prescribed_velocity: np.ndarray | None = None,
) -> WorldAopc:
    """Pose an AOPC into world frame and attach point velocities.

    Free bodies occupy a 6-column block of the generalized velocity starting
    at dof_start, ordered [world linear; world angular] at the body origin t,
    so point p moves at v + w x (p - t). Kinematic bodies pass dof_start=None
    and a prescribed world spatial velocity (6,) taken at the body origin.
    """
    v = np.asarray(gen_velocity)
    n = v.shape[0]
    R = quat_to_matrix(pose.quaternion)
    t = pose.translation
    if dof_start is None:
        s, twist = -1, np.zeros(6) if prescribed_velocity is None else np.asarray(prescribed_velocity)
    else:
        s = int(dof_start)
        if s < 0 or s + 6 > n:
            raise ValueError("dof_start block exceeds generalized dimension")
        twist = v[s : s + 6]
    twist = twist.astype(np.result_type(twist, v), copy=False)
    arrays = posed_arrays(R, t, twist, aopc.points, aopc.normals, aopc.tangents, aopc.arms)
    verts = aopc.vertices @ R.T + t
    return WorldAopc(*arrays, np.asarray(t), np.asarray(s), n, verts, aopc.faces, body_id)


def transform_aopc(aopc: LocalAopc, pose: Pose) -> LocalAopc:
    """Rigidly transform an AOPC, returning a new body-frame cloud."""
    R = quat_to_matrix(pose.quaternion)
    t = pose.translation
    return LocalAopc(
        aopc.points @ R.T + t,
        aopc.normals @ R.T,
        aopc.vertices @ R.T + t,
        aopc.faces,
        name=aopc.name,
    )


# ---------------------------------------------------------------------------
# Primitive generators


def _check_outward(points: np.ndarray, normals: np.ndarray, center) -> None:
    # Generation-time sanity for star-shaped primitives: every normal points
    # away from the reference center.
    if np.any(np.sum((points - np.asarray(center)) * normals, axis=-1) <= 0):
        raise AopcError("generator produced an inward-facing normal")


def _weld(face_corners: np.ndarray, decimals: int = 9):
    """Merge coincident corner vertices. face_corners is (I, 4, 3)."""
    flat = face_corners.reshape(-1, 3)
    keys = np.round(flat, decimals)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    vertices = flat[first]
    faces = inverse.reshape(-1, 4)
    return vertices, faces


def _grid_quads(u: np.ndarray, v: np.ndarray):
    """Corner coordinates (nu*nv, 4, 2) of the cells of a u x v lattice."""
    uu0, vv0 = np.meshgrid(u[:-1], v[:-1], indexing="ij")
    uu1, vv1 = np.meshgrid(u[1:], v[1:], indexing="ij")
    c = np.stack(
        [
            np.stack([uu0, vv0], axis=-1),
            np.stack([uu1, vv0], axis=-1),
            np.stack([uu1, vv1], axis=-1),
            np.stack([uu0, vv1], axis=-1),
        ],
        axis=-2,
    )
    return c.reshape(-1, 4, 2)


def _face_quads(quads2d: np.ndarray, ax: int, offset: float) -> np.ndarray:
    """(n, 4, 3) corners of lattice cells quads2d on the plane x_ax = offset,
    spanned by the next two axes in cyclic order."""
    q3 = np.zeros((quads2d.shape[0], 4, 3))
    q3[:, :, (ax + 1) % 3] = quads2d[:, :, 0]
    q3[:, :, (ax + 2) % 3] = quads2d[:, :, 1]
    q3[:, :, ax] = offset
    return q3


def _join(parts):
    """(points, normals, vertices, faces) of one cloud made of parts given as
    such tuples; each part's face indices move past the vertices before it."""
    points, normals, vertices, faces = zip(*parts)
    starts = np.cumsum([0] + [v.shape[0] for v in vertices[:-1]])
    faces = [f + s for f, s in zip(faces, starts)]
    return tuple(np.concatenate(a) for a in (points, normals, vertices, faces))


def _check_resolution(resolution) -> None:
    """Raise AopcError unless the generators' target point count is a
    finite whole number of at least 6."""
    if not (isinstance(resolution, numbers.Real) and math.isfinite(resolution)
            and resolution % 1 == 0 and resolution >= 6):
        raise AopcError(f"resolution must be a whole number of at least 6, got {resolution!r}")


def box_aopc(size, resolution: int = 6, name: str = "box") -> LocalAopc:
    """Axis-aligned box quadrangulated with near-square cells.

    resolution is the target total point count; at resolution 6 each face is
    a single quad (8 welded corner vertices).
    """
    size = np.asarray(size, dtype=float)
    if size.shape != (3,) or not np.all((size > 0) & (size < np.inf)):
        raise AopcError(f"box size must be 3 positive finite extents, got {size.tolist()!r}")
    _check_resolution(resolution)
    sx, sy, sz = size
    area = 2 * (sx * sy + sy * sz + sz * sx)
    h = math.sqrt(area / resolution)
    corners, centers, normals = [], [], []
    for ax in range(3):
        u_ax, v_ax = (ax + 1) % 3, (ax + 2) % 3
        nu = max(1, math.ceil(size[u_ax] / h))
        nv = max(1, math.ceil(size[v_ax] / h))
        u = np.linspace(-size[u_ax] / 2, size[u_ax] / 2, nu + 1)
        v = np.linspace(-size[v_ax] / 2, size[v_ax] / 2, nv + 1)
        for sign in (+1.0, -1.0):
            q3 = _face_quads(_grid_quads(u, v), ax, sign * size[ax] / 2)
            corners.append(q3)
            centers.append(q3.mean(axis=1))
            nrm = np.zeros((q3.shape[0], 3))
            nrm[:, ax] = sign
            normals.append(nrm)
    corners = np.concatenate(corners)
    vertices, faces = _weld(corners)
    centers = np.concatenate(centers)
    normals = np.concatenate(normals)
    _check_outward(centers, normals, np.zeros(3))
    return LocalAopc(centers, normals, vertices, faces, name=name)


def sphere_aopc(radius: float, resolution: int = 384, name: str = "sphere") -> LocalAopc:
    """Sphere quadrangulated by an equiangular cubed-sphere grid.

    Quad centers are radially projected onto the sphere, so normals are the
    exact analytic outward normals p / |p|.
    """
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise AopcError(f"sphere radius must be positive and finite, got {radius!r}")
    _check_resolution(resolution)
    n = max(1, math.ceil(math.sqrt(resolution / 6.0)))
    # Equiangular spacing keeps cell sizes nearly uniform across each face.
    a = np.tan(np.linspace(-math.pi / 4, math.pi / 4, n + 1))
    quads2d = _grid_quads(a, a)
    corners = np.concatenate([_face_quads(quads2d, ax, sign) for ax in range(3) for sign in (+1.0, -1.0)])
    corners /= np.linalg.norm(corners, axis=-1, keepdims=True)
    corners *= radius
    vertices, faces = _weld(corners, decimals=12)
    mid = corners.mean(axis=1)
    nrm = mid / np.linalg.norm(mid, axis=-1, keepdims=True)
    _check_outward(radius * nrm, nrm, np.zeros(3))
    return LocalAopc(radius * nrm, nrm, vertices, faces, name=name)


def cylinder_aopc(radius: float, height: float, resolution: int = 256, name: str = "cylinder") -> LocalAopc:
    """Cylinder with axis z: lateral quad grid plus square-to-disk cap grids.

    Cap grids are not welded to the lateral sheet (the rim vertices are
    duplicated); every face is still a proper quad with an exact normal.
    """
    radius, height = float(radius), float(height)
    for label, extent in (("radius", radius), ("height", height)):
        if not 0 < extent < math.inf:
            raise AopcError(f"cylinder {label} must be positive and finite, got {extent!r}")
    _check_resolution(resolution)
    area = 2 * math.pi * radius * height + 2 * math.pi * radius**2
    h = math.sqrt(area / resolution)

    ntheta = max(3, math.ceil(2 * math.pi * radius / h))
    nz = max(1, math.ceil(height / h))
    theta = np.linspace(0.0, 2 * math.pi, ntheta + 1)
    z = np.linspace(-height / 2, height / 2, nz + 1)
    quads2d = _grid_quads(theta, z)
    lat = np.zeros((quads2d.shape[0], 4, 3))
    lat[:, :, 0] = radius * np.cos(quads2d[:, :, 0])
    lat[:, :, 1] = radius * np.sin(quads2d[:, :, 0])
    lat[:, :, 2] = quads2d[:, :, 1]
    th_c = 0.5 * (quads2d[:, 0, 0] + quads2d[:, 1, 0])
    z_c = 0.5 * (quads2d[:, 0, 1] + quads2d[:, 3, 1])
    lat_n = np.stack([np.cos(th_c), np.sin(th_c), np.zeros_like(th_c)], axis=-1)
    lat_c = radius * lat_n + np.stack([np.zeros_like(z_c)] * 2 + [z_c], axis=-1)
    # Weld each sheet separately so the lateral seam (theta = 0 == 2*pi)
    # merges but cap rims keep their own vertices.
    sheets = [(lat_c, lat_n, *_weld(lat))]

    ncap = max(1, math.ceil(2 * radius / h))
    g = np.linspace(-1.0, 1.0, ncap + 1)
    sq = _grid_quads(g, g)
    # Elliptical square-to-disk map: square boundary lands on the circle.
    u, v = sq[:, :, 0], sq[:, :, 1]
    dx = u * np.sqrt(np.maximum(1.0 - v * v / 2.0, 0.0)) * radius
    dy = v * np.sqrt(np.maximum(1.0 - u * u / 2.0, 0.0)) * radius
    for sign in (+1.0, -1.0):
        cap = np.stack([dx, dy, np.full_like(dx, sign * height / 2)], axis=-1)
        nrm = np.zeros((cap.shape[0], 3))
        nrm[:, 2] = sign
        sheets.append((cap.mean(axis=1), nrm, *_weld(cap)))
    centers, normals, vertices, faces = _join(sheets)
    _check_outward(centers, normals, np.zeros(3))
    return LocalAopc(centers, normals, vertices, faces, name=name)


def box_sdf(p: np.ndarray, size, center) -> np.ndarray:
    """Exact signed distance of points to an axis-aligned box (oracle)."""
    q = np.abs(np.asarray(p) - np.asarray(center)) - np.asarray(size) / 2.0
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.max(q, axis=-1), 0.0)
    return outside + inside


def composite_box_aopc(members, resolution: int = 512, name: str = "composite") -> LocalAopc:
    """Union of axis-aligned boxes; faces buried inside the union are removed.

    members: sequence of (size, offset) pairs. A face survives if its center
    is not strictly inside any *other* member (margin 1e-9), so touching
    members keep their interface faces only when they are exactly coplanar.
    """
    members = [(np.asarray(s, dtype=float), np.asarray(o, dtype=float)) for s, o in members]
    if len(members) < 1:
        raise AopcError("composite needs at least one member box")
    _check_resolution(resolution)
    for s, o in members:
        if s.shape != (3,) or o.shape != (3,) or np.any(s <= 0):
            raise AopcError("composite members need positive size (3,) and offset (3,)")
    total_area = sum(2 * (s[0] * s[1] + s[1] * s[2] + s[2] * s[0]) for s, _ in members)
    parts = []
    for k, (s, o) in enumerate(members):
        res_k = max(6, math.ceil(resolution * 2 * (s[0] * s[1] + s[1] * s[2] + s[2] * s[0]) / total_area))
        b = box_aopc(s, res_k, name=f"{name}:{k}")
        pts = b.points + o
        keep = np.ones(b.num_points, dtype=bool)
        for j, (s2, o2) in enumerate(members):
            if j == k:
                continue
            keep &= box_sdf(pts, s2, o2) > -1e-9
        if not keep.any():
            raise AopcError(f"composite member {k} is entirely inside another member")
        faces = b.faces[keep]
        used = np.unique(faces)
        remap = np.full(b.num_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(used.size)
        parts.append(
            (pts[keep], b.normals[keep], b.vertices[used] + o, remap[faces])
        )
    return LocalAopc(*_join(parts), name=name)


def generate_primitive(kind: str, dimensions, resolution: int, name: str | None = None) -> LocalAopc:
    """Dispatch to the analytic generators.

    kind: 'sphere' (dimensions: radius), 'box' (dimensions: (sx, sy, sz)),
    'cylinder' (dimensions: (radius, height)), 'composite' (dimensions:
    sequence of (size, offset) member boxes).
    """
    if kind == "sphere":
        r = dimensions if np.isscalar(dimensions) else np.asarray(dimensions).reshape(-1)[0]
        return sphere_aopc(float(r), resolution, name=name or "sphere")
    if kind == "box":
        return box_aopc(dimensions, resolution, name=name or "box")
    if kind == "cylinder":
        r, hgt = np.asarray(dimensions, dtype=float).reshape(2)
        return cylinder_aopc(r, hgt, resolution, name=name or "cylinder")
    if kind == "composite":
        return composite_box_aopc(dimensions, resolution, name=name or "composite")
    raise AopcError(f"unknown primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# Text format: header `aopc <name> <I> <V>`, then I `p` lines, V `v` lines,
# and I `f` lines (0-based vertex indices). '#' starts a comment.


def export_aopc(aopc: LocalAopc) -> str:
    name = aopc.name or "aopc"
    if any(c.isspace() for c in name):
        raise AopcError("AOPC name must not contain whitespace")
    out = [f"aopc {name} {aopc.num_points} {aopc.num_vertices}"]
    for p, n in zip(aopc.points, aopc.normals):
        out.append("p " + " ".join("%.17g" % x for x in (*p, *n)))
    for v in aopc.vertices:
        out.append("v " + " ".join("%.17g" % x for x in v))
    for f in aopc.faces:
        out.append("f %d %d %d %d" % tuple(f))
    return "\n".join(out) + "\n"


def import_aopc(text: str) -> LocalAopc:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise AopcError("empty AOPC file")

    def bail(lineno, msg):
        raise AopcError(f"line {lineno}: {msg}")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "aopc":
        bail(lineno, "expected header 'aopc <name> <I> <V>'")
    name = parts[1]
    try:
        I, V = int(parts[2]), int(parts[3])
    except ValueError:
        bail(lineno, "point/vertex counts must be integers")
    if I < 1 or V < 1:
        bail(lineno, "counts must be positive")
    if len(rows) != 1 + 2 * I + V:
        bail(lineno, f"expected {1 + 2 * I + V} content lines, found {len(rows)}")

    def floats(lineno, tokens, count, what):
        if len(tokens) != count:
            bail(lineno, f"expected {count} values on {what} line")
        try:
            return [float(t) for t in tokens]
        except ValueError:
            bail(lineno, f"bad numeric value on {what} line")

    points, normals = np.empty((I, 3)), np.empty((I, 3))
    for i in range(I):
        lineno, line = rows[1 + i]
        tok = line.split()
        if tok[0] != "p":
            bail(lineno, "expected a 'p' line")
        vals = floats(lineno, tok[1:], 6, "'p'")
        points[i], normals[i] = vals[:3], vals[3:]
        nn = math.sqrt(sum(x * x for x in vals[3:]))
        if nn < 1e-12:
            bail(lineno, "zero normal")
        if abs(nn - 1.0) > 1e-6:
            warnings.warn(f"line {lineno}: normal deviates from unit length by {abs(nn - 1.0):.3g}; renormalizing")
        if abs(nn - 1.0) > 1e-12:
            # Already-unit normals are left untouched so exports round-trip
            # bit-exactly.
            normals[i] /= nn
    vertices = np.empty((V, 3))
    for v in range(V):
        lineno, line = rows[1 + I + v]
        tok = line.split()
        if tok[0] != "v":
            bail(lineno, "expected a 'v' line")
        vertices[v] = floats(lineno, tok[1:], 3, "'v'")
    faces = np.empty((I, 4), dtype=np.int64)
    for i in range(I):
        lineno, line = rows[1 + I + V + i]
        tok = line.split()
        if tok[0] != "f":
            bail(lineno, "expected an 'f' line")
        if len(tok) != 5:
            bail(lineno, "expected 4 vertex indices on 'f' line")
        try:
            idx = [int(t) for t in tok[1:]]
        except ValueError:
            bail(lineno, "bad vertex index")
        if any(ix < 0 or ix >= V for ix in idx):
            bail(lineno, f"vertex index out of range 0..{V - 1}")
        faces[i] = idx
    try:
        return LocalAopc(points, normals, vertices, faces, name=name)
    except AopcError as e:
        raise AopcError(f"invalid AOPC content: {e}") from e

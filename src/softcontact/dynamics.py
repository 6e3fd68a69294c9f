"""Rigid-body scene assembly and explicit time integration.

Bodies are either free (6 DOF: world-frame linear velocity stacked over
world-frame angular velocity) or kinematic (no DOFs, motion prescribed by a
C1 trajectory, modeling position-controlled actuators). The equations of
motion are assembled block-diagonally per free body; contact enters as the
sum of the soft-minimum pair forces, so both forward and inverse dynamics
are single closed-form expressions with no iterative solve.
"""
from __future__ import annotations

import contextlib
import mmap
import os
import signal
import time
import weakref
from dataclasses import astuple, dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

# Bound here for perfbench/tracer.py, which wraps dynamics.separation_field.
from .collision import separation_field  # noqa: F401
from .contact import ContactParams, NonFiniteContact, _pair_contact, _plane_matrices, _query_sums
# Bound here for perfbench/tracer.py, which wraps dynamics.ssdf_ssdf_force.
from .contact import ssdf_ssdf_force  # noqa: F401
from .core import _ARENA, _CHUNK_ENTRIES, Scratch, _broadcast, _fork, _may_fork, _reject_nonfinite, quat_from_rotvec, quat_multiply, quat_normalize, quat_to_matrix
from .geometry import _NEXT, _PREV, LocalAopc, Pose, WorldAopc, pose_aopc, posed_arrays


class DivergenceError(RuntimeError):
    """Raised when integration produces a non-finite state."""


# ---------------------------------------------------------------------------
# Prescribed motion for kinematic bodies


class StaticMotion:
    """Hold a fixed pose with zero velocity."""

    def __init__(self, pose: Pose):
        self._pose = pose

    def pose(self, t: float) -> Pose:
        return self._pose

    def velocity(self, t: float) -> np.ndarray:
        return np.zeros(6)


class LinearMotion:
    """Constant world spatial velocity from a start pose."""

    def __init__(self, start: Pose, linear_velocity, angular_velocity=(0.0, 0.0, 0.0)):
        self._start = start
        self._v = np.asarray(linear_velocity, dtype=float)
        self._w = np.asarray(angular_velocity, dtype=float)
        _reject_nonfinite(self._v, "LinearMotion linear_velocity")
        _reject_nonfinite(self._w, "LinearMotion angular_velocity")

    def pose(self, t: float) -> Pose:
        trans = self._start.translation + t * self._v
        quat = quat_normalize(quat_multiply(quat_from_rotvec(t * self._w), self._start.quaternion))
        return Pose(trans, quat)

    def velocity(self, t: float) -> np.ndarray:
        return np.concatenate([self._v, self._w])


class SplineMotion:
    """Clamped cubic spline through position waypoints at fixed orientation.

    Clamped boundary conditions give zero velocity at both ends, so holding
    the endpoint poses outside the time range keeps the trajectory C1.
    """

    def __init__(self, times: Sequence[float], positions, quaternion=(1.0, 0.0, 0.0, 0.0)):
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        quaternion = np.asarray(quaternion, dtype=float)
        for name, arr in (("times", times), ("positions", positions), ("quaternion", quaternion)):
            _reject_nonfinite(arr, f"spline {name}")
        if not np.sum(quaternion * quaternion) > 0:
            raise ValueError("spline quaternion must be nonzero")
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("spline times must be strictly increasing, length >= 2")
        if positions.shape != (times.size, 3):
            raise ValueError("spline needs one 3D position per timestamp")
        self._t0, self._t1 = float(times[0]), float(times[-1])
        self._spline = CubicSpline(times, positions, bc_type="clamped")
        self._dspline = self._spline.derivative()
        self._quat = quat_normalize(quaternion)

    def pose(self, t: float) -> Pose:
        tc = min(max(t, self._t0), self._t1)
        return Pose(self._spline(tc), self._quat)

    def velocity(self, t: float) -> np.ndarray:
        if t < self._t0 or t > self._t1:
            return np.zeros(6)
        return np.concatenate([self._dspline(t), np.zeros(3)])


# ---------------------------------------------------------------------------
# Scene


@dataclass
class Body:
    """One rigid body. Free bodies need mass and a positive-definite inertia
    tensor (body frame, about the body origin, which must be the center of
    mass); kinematic bodies need a motion trajectory instead."""

    name: str
    aopc: LocalAopc
    kind: str = "free"
    mass: float | None = None
    inertia: np.ndarray | None = None
    motion: object | None = None

    def __post_init__(self):
        if self.kind not in ("free", "kinematic"):
            raise ValueError(f"body {self.name}: kind must be 'free' or 'kinematic'")
        if self.kind == "free":
            if self.mass is None or not (np.isfinite(self.mass) and self.mass > 0):
                raise ValueError(f"body {self.name}: free bodies need a finite mass > 0, got {self.mass!r}")
            inertia = np.asarray(self.inertia, dtype=float)
            if inertia.shape != (3, 3):
                raise ValueError(f"body {self.name}: inertia must be 3x3")
            _reject_nonfinite(inertia, f"body {self.name}: inertia")
            if not np.allclose(inertia, inertia.T, atol=1e-12):
                raise ValueError(f"body {self.name}: inertia must be symmetric")
            try:
                np.linalg.cholesky(inertia)
            except np.linalg.LinAlgError:
                raise ValueError(f"body {self.name}: inertia must be positive definite") from None
            self.inertia = inertia
        elif self.motion is None:
            self.motion = StaticMotion(Pose.identity())


@dataclass
class Scene:
    """Ordered bodies, collision pairs, gravity, contact parameters, and an
    optional control source tau(t) over the free generalized coordinates."""

    bodies: list[Body]
    pairs: list[tuple[str, str]]
    gravity: np.ndarray = dc_field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    params: ContactParams = dc_field(default_factory=ContactParams)
    controls: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)
        _reject_nonfinite(self.gravity, "gravity")
        names = [b.name for b in self.bodies]
        if len(set(names)) != len(names):
            raise ValueError("body names must be unique")
        self._index = {n: i for i, n in enumerate(names)}
        seen = set()
        self.pair_indices: list[tuple[int, int]] = []
        for a, b in self.pairs:
            if a not in self._index or b not in self._index:
                raise ValueError(f"collision pair ({a}, {b}) references an unknown body")
            ia, ib = self._index[a], self._index[b]
            if ia == ib:
                raise ValueError(f"collision pair ({a}, {b}) must reference distinct bodies")
            key = (min(ia, ib), max(ia, ib))
            if key in seen:
                raise ValueError(f"collision pair ({a}, {b}) repeated")
            seen.add(key)
            self.pair_indices.append((ia, ib))
        self.free_indices = [i for i, b in enumerate(self.bodies) if b.kind == "free"]
        self._free = np.array(self.free_indices, dtype=int)  # for indexing, converted once
        self._dof_start = {i: 6 * k for k, i in enumerate(self.free_indices)}
        self._inertia = np.array([self.bodies[i].inertia for i in self.free_indices], dtype=float).reshape(-1, 3, 3)
        # The inertias less their isotropic part I_body[0, 0] Id, which adds
        # nothing to the gyroscopic torque (see _bias), and the inverses less
        # Id / I_body[0, 0] (see _accelerate): both 0 for spheres and cubes.
        self._gyro = self._inertia - self._inertia[:, :1, :1] * np.eye(3)
        self._inverse = np.linalg.inv(self._inertia) - np.eye(3) / self._inertia[:, :1, :1]
        self._pair_chunks = _group_pairs(self.bodies, self.pair_indices)
        self._groups, self._chunk_sides = _posing_plan(self.bodies, self._dof_start, self._pair_chunks)
        self._helper = None  # rollout's _ContactHelper, started on first use

    @property
    def n(self) -> int:
        return 6 * len(self.free_indices)

    def body_index(self, name: str) -> int:
        return self._index[name]

    def dof_start(self, body_index: int) -> int | None:
        return self._dof_start.get(body_index)

    def tau(self, t: float) -> np.ndarray:
        if self.controls is None:
            return np.zeros(self.n)
        out = np.asarray(self.controls(t), dtype=float)
        if out.shape != (self.n,):
            raise ValueError("controls must return a vector over the free DOFs")
        bad = _bad_entry(self, out, _DOF_COORDS)
        if bad:
            raise ValueError(f"controls at t={t!r} returned a non-finite {bad}")
        return out


@dataclass
class SceneState:
    """q: one row [tx ty tz qw qx qy qz] per free body; v: stacked world
    [linear; angular] velocities of the free bodies; time in seconds."""

    time: float
    q: np.ndarray
    v: np.ndarray

    def copy(self) -> "SceneState":
        return SceneState(self.time, self.q.copy(), self.v.copy())


def make_state(scene: Scene, poses: dict[str, Pose] | None = None, velocities: dict[str, np.ndarray] | None = None, time: float = 0.0) -> SceneState:
    """The state at time with the given poses and velocities of free bodies,
    by name; the others rest at the identity pose. A name that is not a free
    body of the scene, a non-finite time, or a velocity that is not 6 finite
    numbers raises ValueError, naming the body and coordinate."""
    poses = poses or {}
    velocities = velocities or {}
    free = {scene.bodies[i].name: k for k, i in enumerate(scene.free_indices)}
    for name in (*poses, *velocities):
        if name not in free:
            raise ValueError(f"body {name!r} is not a free body of the scene")
    q = np.zeros((len(free), 7))
    q[:, 3] = 1.0
    v = np.zeros(scene.n)
    for name, p in poses.items():
        q[free[name]] = np.concatenate([p.translation, p.quaternion])
    for name, vel in velocities.items():
        vel = np.asarray(vel, dtype=float)
        if vel.size != 6:
            raise ValueError(f"velocity of body {name!r} must be 6 numbers, got {vel.size}")
        v[6 * free[name] : 6 * free[name] + 6] = vel.reshape(6)
    state = SceneState(time, q, v)
    bad = _bad_coordinate(state, scene) if np.isfinite(time) else "time"
    if bad:
        raise ValueError(f"state has a non-finite {bad}")
    return state


def separated_state(scene: Scene, state: SceneState) -> SceneState:
    """state with free body k pulled 40 (k + 1) spans out along +x: the same
    shapes and work per step, with no pair near contact."""
    st = state.copy()
    span = max(float(np.abs(b.aopc.points).max()) for b in scene.bodies)
    st.q[:, 0] += 40.0 * np.arange(1, st.q.shape[0] + 1) * max(span, 1.0)
    return st


def body_pose(scene: Scene, state: SceneState, body_index: int) -> Pose:
    body = scene.bodies[body_index]
    if body.kind == "kinematic":
        return body.motion.pose(state.time)
    k = scene.dof_start(body_index) // 6
    return Pose(state.q[k, :3], quat_normalize(state.q[k, 3:]))


def pose_all(scene: Scene, state: SceneState) -> list[WorldAopc]:
    """Pose every body's AOPC at the current state (pure; no caching)."""
    return [
        pose_aopc(body.aopc, body_pose(scene, state, i), state.v, scene.dof_start(i), body.name,
                  body.motion.velocity(state.time) if body.kind == "kinematic" else None)
        for i, body in enumerate(scene.bodies)
    ]


def _masses(scene: Scene) -> np.ndarray:
    """The free bodies' masses (nf,), read from the bodies at each call."""
    return np.array([scene.bodies[i].mass for i in scene.free_indices], dtype=float)


def mass_matrix(scene: Scene, state: SceneState) -> np.ndarray:
    """Block-diagonal generalized inertia: diag(m I3, R I_body R^T) per free
    body."""
    R = _frames(scene, state)[1][scene._free]
    m, Iw = _masses(scene), R @ scene._inertia @ R.swapaxes(-1, -2)
    nf = m.shape[0]
    M = np.zeros((nf, 6, nf, 6), dtype=Iw.dtype)
    k = np.arange(nf)
    M[k, :3, k, :3] = m[:, None, None] * np.eye(3)
    M[k, 3:, k, 3:] = Iw
    return M.reshape(6 * nf, 6 * nf)


def bias_force(scene: Scene, state: SceneState) -> np.ndarray:
    """Gravity and gyroscopic bias, with signs such that free fall gives
    vdot = g when tau and contact are zero."""
    return _bias(scene, state.v, _masses(scene), _frames(scene, state)[1][..., scene._free, :, :]).reshape(-1)


def _bias(scene: Scene, v: np.ndarray, m: np.ndarray, R: np.ndarray) -> np.ndarray:
    """bias_force as (nf, 6) blocks, given the free-body masses m and
    rotations R.

    The gyroscopic torque w x (R I_body R^T w) is taken as w x (R D R^T w)
    with D = Scene._gyro: the isotropic part c w x w is zero analytically, so
    the value is the same, and it is exactly 0 for spheres and cubes, where
    the full product leaves a rounding residue that finite differences
    divide by their step."""
    w = v.reshape(v.shape[:-1] + (-1, 6))[..., 3:]
    g = (R @ (scene._gyro @ (R.swapaxes(-1, -2) @ w[..., None])))[..., 0]
    out = np.empty(g.shape[:-1] + (6,), g.dtype)
    out[..., :3] = -m[:, None] * scene.gravity
    out[..., 3:] = w[..., _NEXT] * g[..., _PREV] - w[..., _PREV] * g[..., _NEXT]
    return out


def total_contact_force(scene: Scene, state: SceneState) -> np.ndarray:
    return _contact_force(scene, state)[0]


def _group_pairs(bodies, pair_indices) -> list:
    """The pairs grouped by (I_a, I_b), as (positions in pair_indices (P,),
    body indices (P, 2)) chunks; a Scene builds them once."""
    groups = {}
    for pos, (ia, ib) in enumerate(pair_indices):
        groups.setdefault((bodies[ia].aopc.num_points, bodies[ib].aopc.num_points), []).append(pos)
    pairs = np.array(pair_indices, dtype=int).reshape(-1, 2)
    chunks = []
    for (Ia, Ib), positions in groups.items():
        # As many pairs as one float64 query block of contact._query_sums
        # holds whole.
        per_chunk = max(1, _CHUNK_ENTRIES // (Ia * Ib))
        chunks += [(pos, pairs[pos]) for pos in np.array_split(np.array(positions), -(-len(positions) // per_chunk))]
    return chunks


def _posing_plan(bodies, dof_start, chunks):
    """The bodies in some pair grouped by point count, as (body indices (G,),
    their DOF block starts (G,), -1 if kinematic, stacked local points
    (G, I, 3), normals (G, I, 3), tangents (2, G, I, 3), arms (3, G, I, 3))
    with one cloud per body; and for each chunk its two sides as (group,
    rows in the group: a slice if consecutive, else an index array). A body
    on every row of a side is its one row, which the contact kernel
    broadcasts against the other side's rows. A Scene builds them once."""
    members = {}
    for i in sorted({int(i) for _, chunk in chunks for i in chunk.ravel()}):
        members.setdefault(bodies[i].aopc.num_points, []).append(i)
    groups, where = [], {}
    for g, idx in enumerate(members.values()):
        where.update((i, (g, r)) for r, i in enumerate(idx))
        clouds = [bodies[i].aopc for i in idx]
        groups.append((np.array(idx), np.array([dof_start.get(i, -1) for i in idx]),
                       *(np.stack([getattr(c, name) for c in clouds], axis=-3)
                         for name in ("points", "normals", "tangents", "arms"))))

    def run(r):
        r = r[:1] if len(set(r)) == 1 else r
        return slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1)) else np.array(r)
    sides = [tuple((where[side[0]][0], run([where[i][1] for i in side])) for side in chunk.T) for _, chunk in chunks]
    return groups, sides


def _frames(scene: Scene, state: SceneState, checked: bool = False):
    """Every body's origin t (..., nb, 3), rotation R (..., nb, 3, 3), from
    one quat_to_matrix call, and world twist (..., nb, 6) at state: free
    bodies' from q and v, kinematic ones' from their motion. One evaluation
    takes them once, for posing and for the dynamics. A non-finite q or v
    entry raises ValueError naming its body and coordinate, unless checked
    (the caller has scanned the state)."""
    bad = None if checked else _bad_coordinate(state, scene)
    if bad:
        raise ValueError(f"state has a non-finite {bad}")
    t = state.time
    nb = len(scene.bodies)
    # A complex q or v whose imaginary part is 0 carries no tangent, and
    # poses as its real part (one of a batch's); a real q poses real clouds
    # under any v.
    q, v = (x.real[(0,) * (x.ndim - d)] if np.iscomplexobj(x) and not x.imag.any() else x
            for x, d in ((state.q, 2), (state.v, 1)))
    trans, quat = np.zeros(q.shape[:-2] + (nb, 3), q.dtype), np.zeros(q.shape[:-2] + (nb, 4), q.dtype)
    twist = np.zeros(_broadcast(q.shape[:-2], v.shape[:-1]) + (nb, 6), np.result_type(q.dtype, v.dtype))
    free = scene._free
    trans[..., free, :], quat[..., free, :] = q[..., :3], quat_normalize(q[..., 3:])
    twist[..., free, :] = v.reshape(v.shape[:-1] + (-1, 6))
    for i, body in enumerate(scene.bodies):
        if body.kind == "kinematic":
            pose = body.motion.pose(t)
            trans[..., i, :], quat[..., i, :] = pose.translation, pose.quaternion
            twist[..., i, :] = body.motion.velocity(t)
    return trans, quat_to_matrix(quat), twist


def _pose_groups(scene: Scene, state: SceneState, frames=None, arena=None) -> list[WorldAopc]:
    """Every group of Scene._groups posed at state as one stack, from
    frames (taken here when not given), with its contact._plane_matrices
    for Scene.params: real ones from the Scratch arena when given, in the
    caller's block, others fresh."""
    trans, R, twist = frames or _frames(scene, state)
    groups = []
    for idx, dof_start, *local in scene._groups:
        posed = (*posed_arrays(R[..., idx, :, :], trans[..., idx, :], twist[..., idx, :], *local), trans[..., idx, :],
                 dof_start, scene.n)
        cloud = WorldAopc(*posed)
        geo, dtype = np.result_type(cloud.points, cloud.normals), np.result_type(*posed[:5])
        src = arena if arena is not None and dtype.kind != "c" else Scratch()
        groups.append(WorldAopc(*posed, planes=_plane_matrices(cloud, scene.params, geo, dtype, src)))
    return groups


def _rows(stack: WorldAopc, rows) -> WorldAopc:
    """The bodies at rows of a posed group as a stack, plane matrices too:
    views for a slice (one row for a body on every row of its side), copies
    for an index array."""
    arrays = (stack.points, stack.normals, stack.tangents, stack.arms, stack.velocities)
    return WorldAopc(*(x[..., rows, :, :] for x in arrays), stack.origin[..., rows, :], stack.dof_start[rows],
                     stack.num_dofs, planes=tuple(x[..., rows, :, :, :] for x in stack.planes))


def _pair_walk(scene: Scene, state: SceneState, frames=None, arena=None) -> list:
    """(positions in pair_indices (P,), body indices (P, 2), sides a, b) per chunk
    of Scene._pair_chunks, each side cut by row out of its group, posed once
    (_pose_groups, with frames and arena)."""
    posed = _pose_groups(scene, state, frames, arena) if scene.pair_indices else []
    return [(pos, chunk, _rows(posed[ga], rows_a), _rows(posed[gb], rows_b))
            for (pos, chunk), ((ga, rows_a), (gb, rows_b)) in zip(scene._pair_chunks, scene._chunk_sides)]


def _contact_force(scene: Scene, state: SceneState, per_pair: bool = False, helper=None, frames=None):
    """Sum of pair forces plus the minimum separation seen (diagnostics);
    per_pair also returns each pair's soft separation distance, in
    pair_indices order, from the same evaluation of _pair_walk's chunks,
    posed from frames (taken here when not given, see _frames). Non-finite
    contact raises ValueError naming the pair's bodies.
    With a helper (a rollout's _ContactHelper) the b-in-a direction of every
    chunk is computed there meanwhile; results and errors are the serial
    ones, as an evaluation either process fails is redone serially."""
    frames = frames or _frames(scene, state)
    dtype = np.result_type(state.q.dtype, state.v.dtype)
    batch = _broadcast(state.q.shape[:-2], state.v.shape[:-1])
    out = np.zeros(batch + (scene.n,), dtype=dtype)
    seps = np.zeros(batch + (len(scene.pair_indices),), dtype=dtype)
    min_sep = np.inf
    with _ARENA.scratch as arena:  # the group plane matrices' block
        walk = None if helper is None else helper.walk(scene, state, frames, arena)
        for pos, chunk, a, b, *sums in walk or _pair_walk(scene, state, frames, arena):
            try:
                force, values, coeff = _pair_contact(a, b, scene.params, sums=sums[0] if sums else None)
            except NonFiniteContact as err:
                names = tuple(scene.bodies[i].name for i in chunk[err.row])
                raise ValueError("contact between %s and %s is not finite" % names) from None
            out += force
            min_sep = min(min_sep, float(values.real.min()))
            if per_pair:
                seps[..., pos] = np.sum(coeff * values, axis=-1)
    return (out, min_sep, seps) if per_pair else (out, min_sep)


# A helper's status byte per evaluation, and the dtypes its request area carries.
_OK, _FAILED = b"\x01", b"\x00"
_CARRIED = {np.dtype(float), np.dtype(complex)}


def _round64(nbytes: int) -> int:
    return -(-nbytes // 64) * 64


class _ContactHelper:
    """A forked process that computes the b-in-a half of each contact
    evaluation of a Scene for the process that forked it, its owner.

    Both share one anonymous mapping made before the fork: a request area
    of complex128 entries (time, q, v and the ContactParams fields), and per
    chunk of Scene._pair_chunks one core.Scratch slot for each direction's
    (value, gt) of _query_sums, the helper's b-in-a and the owner's a-in-b,
    so that neither takes room in the owner's arena. A slot's arrays hold
    until the next evaluation. The owner fills the request area and sends one byte
    (bit 0: q is complex, bit 1: v is); the helper walks _pair_walk on its
    fork-time copy of the scene, fills each chunk's slot and answers with
    one status byte: _OK once every slot is filled, else _FAILED. Nothing is
    pickled. An exchange that breaks off stops the helper for
    good; EOF or a broken pipe raises RuntimeError naming it. stop, a
    weakref.finalize on the scene that also runs at interpreter exit, kills
    and reaps it; the mapping goes with this object."""

    def __init__(self, scene: Scene):
        nf = len(scene.free_indices)
        self._shapes = ((nf, 7), (scene.n,))
        # Byte sizes: the request area, then per chunk the slots for b in a
        # (I_b queries) and a in b (I_a), each as (P, I) values and (P, I, 6)
        # sums of complex128 at most.
        slots = [(len(pos), scene._groups[g][2].shape[-2])
                 for (pos, _), sides in zip(scene._pair_chunks, scene._chunk_sides) for g, _ in reversed(sides)]
        sizes = [_round64(16 * (8 + 13 * nf))] + [_round64(16 * P * I) + _round64(96 * P * I) for P, I in slots]
        ends = np.cumsum(sizes)
        buf = np.frombuffer(mmap.mmap(-1, int(ends[-1])), np.uint8)
        self._request = buf[:sizes[0]].view(complex)[:8 + 13 * nf]
        self._params = None  # the ContactParams last written into the request area
        slots = [Scratch(buf[start:end]) for start, end in zip(ends[:-1], ends[1:])]
        self._theirs, self._ours = slots[0::2], slots[1::2]
        (req_r, req_w), (rep_r, rep_w) = os.pipe(), os.pipe()
        self.owner, self.pid = os.getpid(), _fork()
        if self.pid == 0:  # the helper leaves only through os._exit
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the owner's to handle
                os.close(req_w)
                os.close(rep_r)
                self._serve(scene, req_r, rep_w)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(req_r)
        os.close(rep_w)
        self._requests, self._replies = open(req_w, "wb", buffering=0), open(rep_r, "rb", buffering=0)
        self.stop = weakref.finalize(scene, _stop_helper, self.pid, self.owner, self._requests, self._replies)

    def walk(self, scene: Scene, state: SceneState, frames=None, arena=None):
        """_pair_walk's chunks at state (with frames and arena), each with its
        two directions' (value, gt): b in a from the helper, and a in b
        computed here meanwhile, for every chunk before the first reply is
        read. None, for the caller to evaluate serially, where the request
        area cannot carry the state or either process fails; the status byte
        is read first. Scene.params is written only when it changed."""
        q, v = state.q, state.v
        if (q.shape, v.shape) != self._shapes or not {q.dtype, v.dtype} <= _CARRIED or np.iscomplexobj(state.time):
            return None
        if scene.params is not self._params:
            self._request[-7:], self._params = astuple(scene.params), scene.params
        np.concatenate(([state.time], q.ravel(), v), out=self._request[:-7])
        self._talk(self._requests.write, bytes([np.iscomplexobj(q) + 2 * np.iscomplexobj(v)]))
        try:
            chunks, ours = _pair_walk(scene, state, frames, arena), []
            for (_, _, a, b), slot in zip(chunks, self._ours):
                with slot:
                    ours.append(_query_sums(b, a.points, a.velocities, scene.params, out=slot))
        except ValueError:  # the state check or a non-finite direction, raised again serially
            chunks = None
        finally:
            ok = self._talk(self._status)
        if chunks is None or not ok:
            return None
        walk = []
        for (pos, chunk, a, b), (value, gt), slot in zip(chunks, ours, self._theirs):
            with slot:
                theirs = (slot.empty(value.shape[:-1] + (b.num_points,), value.dtype),
                          slot.empty(gt.shape[:-2] + (b.num_points, 6), gt.dtype))
            walk.append((pos, chunk, a, b, (theirs, (value, gt))))
        return walk

    def _status(self) -> bool:
        """Read the evaluation's status byte: whether it is _OK."""
        got = self._replies.read(1)
        if not got:
            raise EOFError
        return got == _OK

    def _talk(self, fn, *args):
        try:
            return fn(*args)
        except BaseException as err:  # the pipes can no longer be trusted
            self.stop()
            if isinstance(err, (EOFError, BrokenPipeError)):
                raise RuntimeError(f"contact helper process {self.pid} exited during a contact evaluation") from None
            raise

    def _serve(self, scene: Scene, requests: int, replies: int):
        """The helper's loop: answer each request until the owner's end
        closes."""
        nq, params = 1 + 7 * len(scene.free_indices), None
        while flags := os.read(requests, 1):
            r, status = self._request, _FAILED
            try:
                q, v = r[1:nq], r[nq:-7]
                q, v = (x if flags[0] & bit else x.real for x, bit in ((q, 1), (v, 2)))
                sent = r[-7:].real.tolist()
                if sent != params:  # rebuilt only when the owner's changed
                    scene.params, params = ContactParams(*sent), sent
                state = SceneState(float(r[0].real), q.reshape(-1, 7).copy(), v.copy())
                with _ARENA.scratch as arena:
                    # The owner checked the state.
                    for (_, _, a, b), slot in zip(_pair_walk(scene, state, _frames(scene, state, True), arena),
                                                  self._theirs):
                        with slot:
                            _query_sums(a, b.points, b.velocities, scene.params, out=slot)
                status = _OK
            except Exception:  # the owner's serial redo meets it again
                pass
            os.write(replies, status)


def _stop_helper(pid: int, owner: int, *pipes):
    """Kill and reap a helper if this process owns it, and close this
    process's ends of its pipes."""
    with contextlib.suppress(OSError):
        if os.getpid() == owner:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for pipe in pipes:
        with contextlib.suppress(OSError):
            pipe.close()


def _rollout_helper(scene: Scene):
    """The scene's helper for a rollout in this process, started on first
    use; None, for the serial path, where the scene has no pairs or
    core._may_fork refuses. A helper is used only by its owner."""
    if not (scene._pair_chunks and _may_fork()):
        return None
    helper = scene._helper
    if helper is None or not helper.stop.alive or helper.owner != os.getpid():
        helper = scene._helper = _ContactHelper(scene)
    return helper


def inverse_dynamics(scene: Scene, state: SceneState, vdot: np.ndarray) -> np.ndarray:
    """Controls that realize the requested acceleration: closed form, no
    iteration."""
    vdot = np.asarray(vdot)
    if vdot.shape != (scene.n,):
        raise ValueError("vdot length must match the scene's free DOFs")
    bad = _bad_entry(scene, vdot, _DOF_COORDS)
    if bad:
        raise ValueError(f"vdot has a non-finite {bad}")
    frames = _frames(scene, state)
    contact = _contact_force(scene, state, frames=frames)[0]
    m, R = _masses(scene), frames[1][..., scene._free, :, :]
    a = vdot.reshape(-1, 6)
    inertial = np.concatenate([m[:, None] * a[:, :3], (R @ scene._inertia @ R.swapaxes(-1, -2) @ a[:, 3:, None])[..., 0]],
                              axis=1)
    return (inertial + _bias(scene, state.v, m, R)).reshape(-1) - contact


def forward_dynamics(scene: Scene, state: SceneState, tau: np.ndarray | None = None, *, _with_separation: bool = False,
                     _helper=None, _checked: bool = False):
    """Acceleration under controls, bias, and contact, the body frames
    taken once for both. The mass matrix is inverted per 6x6 block, without
    a solve (see _accelerate). _with_separation (private) returns (vdot,
    minimum separation at state); _helper (private) is rollout's contact
    helper; _checked (private): step's divergence check scanned the state."""
    if tau is None:
        tau = scene.tau(state.time)
    tau = np.asarray(tau)
    if tau.shape != (scene.n,):
        raise ValueError("tau length must match the scene's free DOFs")
    bad = _bad_entry(scene, tau, _DOF_COORDS)
    if bad:
        raise ValueError(f"tau has a non-finite {bad}")
    frames = _frames(scene, state, _checked)
    contact, min_sep = _contact_force(scene, state, helper=_helper, frames=frames)
    vdot = _accelerate(scene, state, tau, contact, frames[1][..., scene._free, :, :])
    return (vdot, min_sep) if _with_separation else vdot


def _accelerate(scene: Scene, state: SceneState, tau: np.ndarray, contact: np.ndarray, R: np.ndarray) -> np.ndarray:
    """forward_dynamics' block inversion, given the controls, the contact
    force and the free bodies' rotations R. With E = Scene._inverse, the
    inverse inertia less Id / I_00, (R I_body R^T)^-1 rhs = rhs / I_00 +
    R E R^T rhs: no solve runs, and isotropic bodies (E = 0) take rhs / I_00
    exactly."""
    m = _masses(scene)
    rhs = tau.reshape(-1, 6) - _bias(scene, state.v, m, R) + contact.reshape(contact.shape[:-1] + (-1, 6))
    torque = rhs[..., 3:, None]
    angular = torque / scene._inertia[:, :1, :1] + R @ (scene._inverse @ (R.swapaxes(-1, -2) @ torque))
    rhs[..., :3] /= m[:, None]
    rhs[..., 3:] = angular[..., 0]
    return rhs.reshape(rhs.shape[:-2] + (-1,))


def _separation_force_acceleration(scene: Scene, state: SceneState):
    """(soft separation per pair, total contact force, forward dynamics under
    scene.tau) from one contact evaluation: the gradient check's map."""
    frames = _frames(scene, state)
    contact, _, seps = _contact_force(scene, state, per_pair=True, frames=frames)
    return seps, contact, _accelerate(scene, state, scene.tau(state.time), contact,
                                      frames[1][..., scene._free, :, :])


def _advance_q(q: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """Advance free-body poses along a velocity sample: translation linearly,
    orientation through the quaternion exponential map."""
    v = v.reshape(-1, 6)
    return np.concatenate([q[:, :3] + dt * v[:, :3], quat_multiply(quat_from_rotvec(dt * v[:, 3:]), q[:, 3:])], axis=1)


# Beyond this magnitude squared distances overflow float64; treat the state
# as diverged before the overflow can corrupt downstream arithmetic.
_DIVERGENCE_LIMIT = 1e150


_POSE_COORDS = ("tx", "ty", "tz", "qw", "qx", "qy", "qz")
_DOF_COORDS = ("vx", "vy", "vz", "wx", "wy", "wz")


def _bad_entry(scene: Scene, arr: np.ndarray, coords: tuple, limit: float = np.inf) -> str | None:
    """'coordinate c of body b' for the first entry of arr, one row of coords
    per free body, that is non-finite or not below limit in magnitude; None
    when there is none."""
    arr = arr.reshape(-1, len(coords))
    # One pass when all is well: a NaN fails the comparison too.
    if np.abs(arr).max(initial=0.0) < limit:
        return None
    ok = np.isfinite(arr) & (np.abs(arr) < limit)
    if ok.all():
        return None
    k, j = np.unravel_index(int(np.argmin(ok)), arr.shape)
    return f"coordinate {coords[j]} of body {scene.bodies[scene.free_indices[k % len(scene.free_indices)]].name}"


def _bad_coordinate(state: SceneState, scene: Scene, limit: float = np.inf) -> str | None:
    """'pose coordinate tz of body b' (or 'velocity coordinate wy ...') for
    the first entry of q, then v, that is non-finite or not below limit in
    magnitude; None when there is none."""
    for kind, arr, coords in (("pose", state.q, _POSE_COORDS), ("velocity", state.v, _DOF_COORDS)):
        bad = _bad_entry(scene, arr, coords, limit)
        if bad:
            return f"{kind} {bad}"
    return None


def _check_finite(state: SceneState, scene: Scene):
    """Stop an integration whose state left the finite range:
    DivergenceError."""
    bad = _bad_coordinate(state, scene, _DIVERGENCE_LIMIT)
    if bad:
        raise DivergenceError(f"non-finite {bad}")


def _check_stepping(dt: float, integrator: str):
    """Reject a step size or integrator that step cannot take."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if integrator not in ("euler", "rk4"):
        raise ValueError(f"unknown integrator {integrator!r} (use 'euler' or 'rk4')")


def _check_n_steps(n_steps: int, state: SceneState):
    """Reject a step count that rollout cannot take: one that is not a
    nonnegative integer, or whose kept states, n_steps + 1 copies of q and
    v, would not fit in physical memory (os.sysconf's page size times
    pages, where it tells)."""
    if not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    kept = (int(n_steps) + 1) * (state.q.nbytes + state.v.nbytes)
    if kept > memory:
        raise ValueError(f"n_steps {n_steps} would keep {kept} bytes of states, more than the {memory} bytes "
                         "of physical memory")


def step(scene: Scene, state: SceneState, dt: float, integrator: str = "rk4", *, _with_separation: bool = False, _helper=None):
    """One explicit step. Euler or classical RK4 on (q, v); orientation is
    advanced on the group via the exponential map, with RK4 combining the
    stage velocity samples before the single exponential update. Kinematic
    bodies follow their trajectories evaluated at the stage times.
    _with_separation (private) returns (new state, minimum separation at the
    given state), read off the first stage's contact evaluation; _helper
    (private) is rollout's contact helper."""
    _check_stepping(dt, integrator)
    t = state.time
    a1, min_sep = forward_dynamics(scene, state, scene.tau(t), _with_separation=True, _helper=_helper)
    v_eff, a_eff = state.v, a1
    if integrator == "rk4":
        vs, accs = [state.v], [a1]
        for h in (dt / 2, dt / 2, dt):
            s = SceneState(t + h, _advance_q(state.q, vs[-1], h), state.v + h * accs[-1])
            _check_finite(s, scene)  # the stage state's one scan
            vs.append(s.v)
            accs.append(forward_dynamics(scene, s, scene.tau(t + h), _helper=_helper, _checked=True))
        v_eff = (vs[0] + 2 * vs[1] + 2 * vs[2] + vs[3]) / 6.0
        a_eff = (accs[0] + 2 * accs[1] + 2 * accs[2] + accs[3]) / 6.0
    q_new = _advance_q(state.q, v_eff, dt)
    v_new = state.v + dt * a_eff
    if q_new.shape[0]:
        q_new[:, 3:] = quat_normalize(q_new[:, 3:])
    out = SceneState(t + dt, q_new, v_new)
    _check_finite(out, scene)
    return (out, min_sep) if _with_separation else out


@dataclass
class RolloutResult:
    states: list
    min_separation: np.ndarray
    step_seconds: np.ndarray

    @property
    def max_penetration(self) -> float:
        """Deepest penetration seen (0 if none); NaN when the rollout did
        not record separations, as max(0, NaN) would read 0."""
        if np.isnan(self.min_separation).any():
            return float("nan")
        return float(max(0.0, -np.min(self.min_separation)))


def rollout(scene: Scene, state: SceneState, dt: float, n_steps: int, integrator: str = "rk4", record_separation: bool = True) -> RolloutResult:
    """Integrate n_steps and record states, per-step wall time, and (when
    requested) the minimum separation-field value seen at each state.

    Each state's separation comes from the first stage of the step that
    starts from it, so only the final state needs an extra contact
    evaluation. Where core._may_fork allows, the scene's helper process
    (_ContactHelper) computes one direction of every pair chunk meanwhile,
    with the serial results bit for bit."""
    _check_n_steps(n_steps, state)
    _check_stepping(dt, integrator)
    states = [state.copy()]
    seps = []
    times = []
    cur = state
    helper = _rollout_helper(scene)
    for istep in range(n_steps):
        t0 = time.perf_counter()
        try:
            cur, sep = step(scene, cur, dt, integrator, _with_separation=True, _helper=helper)
        except DivergenceError as e:
            raise DivergenceError(f"step {istep + 1}: {e}") from None
        times.append(time.perf_counter() - t0)
        states.append(cur.copy())
        seps.append(sep)
    if record_separation:
        seps.append(_contact_force(scene, cur, helper=helper)[1])
    else:
        seps = [np.nan] * (n_steps + 1)
    return RolloutResult(states, np.asarray(seps), np.asarray(times))


def trajectory_csv(scene: Scene, result: RolloutResult) -> str:
    """One row per step per body: pose and world spatial velocity."""
    lines = ["t,body_id,px,py,pz,qw,qx,qy,qz,vx,vy,vz,wx,wy,wz"]
    for st in result.states:
        for i, body in enumerate(scene.bodies):
            if body.kind == "kinematic":
                pose = body.motion.pose(st.time)
                vel = body.motion.velocity(st.time)
            else:
                k = scene.dof_start(i) // 6
                pose = Pose(st.q[k, :3], st.q[k, 3:])
                vel = st.v[6 * k : 6 * k + 6]
            row = [st.time, body.name, *pose.translation, *pose.quaternion, *vel]
            lines.append(",".join("%.17g" % x if not isinstance(x, str) else x for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Inertia helpers for the analytic primitives (uniform density, about the
# center of mass)


def _positive(name: str, x) -> np.ndarray:
    """x as floats, each positive and finite, else ValueError naming it."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x).all() and (x > 0).all()):
        raise ValueError(f"{name} must be positive and finite, got {x.tolist()!r}")
    return x


def box_inertia(mass: float, size) -> np.ndarray:
    (sx, sy, sz), mass = _positive("box size", size).reshape(3), float(_positive("mass", mass))
    return mass / 12.0 * np.diag([sy**2 + sz**2, sx**2 + sz**2, sx**2 + sy**2])


def sphere_inertia(mass: float, radius: float) -> np.ndarray:
    return 0.4 * float(_positive("mass", mass)) * float(_positive("radius", radius))**2 * np.eye(3)


def cylinder_inertia(mass: float, radius: float, height: float) -> np.ndarray:
    mass, radius, height = (float(_positive(*arg)) for arg in (("mass", mass), ("radius", radius), ("height", height)))
    ixy = mass * (3 * radius**2 + height**2) / 12.0
    return np.diag([ixy, ixy, 0.5 * mass * radius**2])


def composite_box_inertia(mass: float, members) -> tuple[np.ndarray, np.ndarray]:
    """Center of mass and inertia (about that COM) of a set of uniform-
    density member boxes given as (size, offset) pairs. Overlap between
    members is double counted; keep overlaps small."""
    mass = float(_positive("mass", mass))
    sizes = [np.asarray(s, dtype=float) for s, _ in members]
    offsets = [np.asarray(o, dtype=float) for _, o in members]
    vols = np.array([np.prod(s) for s in sizes])
    masses = mass * vols / vols.sum()
    com = sum(m * o for m, o in zip(masses, offsets)) / mass
    inertia = np.zeros((3, 3))
    for m, s, o in zip(masses, sizes, offsets):
        r = o - com
        inertia += box_inertia(m, s) + m * (np.dot(r, r) * np.eye(3) - np.outer(r, r))
    return com, inertia

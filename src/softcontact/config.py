"""Strict JSON scene configuration.

A scene document has sections `bodies`, `pairs`, `contact`, `world`, and
`outputs`. Parsing is strict: unknown keys and out-of-range values are
rejected with the JSON path of the offending entry, before any computation
starts.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .contact import ContactParams
from .core import quat_normalize
from .dynamics import (
    Body,
    LinearMotion,
    Scene,
    SceneState,
    SplineMotion,
    StaticMotion,
    box_inertia,
    composite_box_inertia,
    cylinder_inertia,
    make_state,
    sphere_inertia,
)
from .geometry import LocalAopc, Pose, generate_primitive, import_aopc


class ConfigError(ValueError):
    pass


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing key(s) {missing}")


def _number(obj, path, positive=False):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool) or not math.isfinite(obj):
        raise ConfigError(f"{path}: expected a finite number")
    if positive and obj <= 0:
        raise ConfigError(f"{path}: must be positive")
    return float(obj)


def _vector(obj, path, n):
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"{path}: expected a list of {n} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def _pose(obj, path) -> Pose:
    _check_keys(obj, path, ("translation",), ("quaternion",))
    t = _vector(obj["translation"], f"{path}.translation", 3)
    if "quaternion" in obj:
        q = _vector(obj["quaternion"], f"{path}.quaternion", 4)
        nq = float(np.linalg.norm(q))
        if nq < 1e-9:
            raise ConfigError(f"{path}.quaternion: zero quaternion")
        q = q / nq
    else:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    return Pose(t, q)


def build_aopc(obj, path, base_dir) -> tuple[LocalAopc, Callable[[float], np.ndarray] | None]:
    """Build the collision geometry of an aopc entry. Returns the aopc and
    the primitive's 'auto' inertia as a function of mass (None for a file)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if "file" in obj:
        _check_keys(obj, path, ("file",))
        fname = obj["file"]
        if not isinstance(fname, str):
            raise ConfigError(f"{path}.file: expected a path string")
        full = fname if os.path.isabs(fname) else os.path.join(base_dir, fname)
        try:
            with open(full) as fh:
                return import_aopc(fh.read()), None
        except OSError as e:
            raise ConfigError(f"{path}.file: cannot read {full}: {e}") from None
        except ValueError as e:
            raise ConfigError(f"{path}.file: {e}") from None
    if "kind" not in obj:
        raise ConfigError(f"{path}: needs either 'kind' (primitive) or 'file'")
    kind = obj["kind"]
    if "resolution" in obj and type(obj["resolution"]) is not int:  # type(true) is bool
        raise ConfigError(f"{path}.resolution: expected an integer")
    try:
        if kind == "sphere":
            _check_keys(obj, path, ("kind", "radius", "resolution"))
            r = _number(obj["radius"], f"{path}.radius", True)
            return generate_primitive("sphere", r, obj["resolution"]), lambda m: sphere_inertia(m, r)
        if kind == "box":
            _check_keys(obj, path, ("kind", "size", "resolution"))
            size = _vector(obj["size"], f"{path}.size", 3)
            return generate_primitive("box", size, obj["resolution"]), lambda m: box_inertia(m, size)
        if kind == "cylinder":
            _check_keys(obj, path, ("kind", "radius", "height", "resolution"))
            r, h = _number(obj["radius"], f"{path}.radius", True), _number(obj["height"], f"{path}.height", True)
            return generate_primitive("cylinder", (r, h), obj["resolution"]), lambda m: cylinder_inertia(m, r, h)
        if kind == "composite":
            _check_keys(obj, path, ("kind", "members", "resolution"))
            if not isinstance(obj["members"], list) or not obj["members"]:
                raise ConfigError(f"{path}.members: expected a non-empty list")
            members = []
            for i, m in enumerate(obj["members"]):
                _check_keys(m, f"{path}.members[{i}]", ("size", "offset"))
                members.append(
                    (_vector(m["size"], f"{path}.members[{i}].size", 3),
                     _vector(m["offset"], f"{path}.members[{i}].offset", 3))
                )

            def auto_inertia(mass):
                com, inertia = composite_box_inertia(mass, members)
                scale = max(float(np.max(np.abs(s))) for s, _ in members)
                if np.linalg.norm(com) > 1e-6 * max(scale, 1e-9):
                    raise ConfigError(
                        f"{path}.members: composite center of mass {com.tolist()} is off-origin; "
                        "recenter the member offsets (dynamics assumes the body origin is the COM)"
                    )
                return inertia

            return generate_primitive("composite", members, obj["resolution"]), auto_inertia
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from None
    raise ConfigError(f"{path}.kind: unknown primitive {kind!r}")


def _inertia(obj, path, auto, mass) -> np.ndarray:
    if obj == "auto":
        if auto is None:
            raise ConfigError(f"{path}: inertia 'auto' needs a primitive aopc, not a file")
        return auto(mass)
    if isinstance(obj, list) and len(obj) == 3 and all(isinstance(v, (int, float)) for v in obj):
        return np.diag(_vector(obj, path, 3))
    if isinstance(obj, list) and len(obj) == 3:
        rows = [_vector(r, f"{path}[{i}]", 3) for i, r in enumerate(obj)]
        return np.stack(rows)
    raise ConfigError(f"{path}: expected 'auto', [ix, iy, iz], or a 3x3 matrix")


def _motion(obj, path):
    _check_keys(obj, path, ("kind",), ("pose", "linear_velocity", "angular_velocity", "times", "positions", "quaternion"))
    kind = obj["kind"]
    if kind == "static":
        _check_keys(obj, path, ("kind", "pose"))
        return StaticMotion(_pose(obj["pose"], f"{path}.pose"))
    if kind == "linear":
        _check_keys(obj, path, ("kind", "pose"), ("linear_velocity", "angular_velocity"))
        lin = _vector(obj.get("linear_velocity", [0, 0, 0]), f"{path}.linear_velocity", 3)
        ang = _vector(obj.get("angular_velocity", [0, 0, 0]), f"{path}.angular_velocity", 3)
        return LinearMotion(_pose(obj["pose"], f"{path}.pose"), lin, ang)
    if kind == "waypoint-spline":
        _check_keys(obj, path, ("kind", "times", "positions"), ("quaternion",))
        times = obj["times"]
        if not isinstance(times, list) or len(times) < 2:
            raise ConfigError(f"{path}.times: expected at least 2 timestamps")
        times = [_number(t, f"{path}.times[{i}]") for i, t in enumerate(times)]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"{path}.times: timestamps must be strictly increasing")
        poss = obj["positions"]
        if not isinstance(poss, list) or len(poss) != len(times):
            raise ConfigError(f"{path}.positions: expected one position per timestamp")
        positions = np.stack([_vector(p, f"{path}.positions[{i}]", 3) for i, p in enumerate(poss)])
        quat = np.array([1.0, 0.0, 0.0, 0.0])
        if "quaternion" in obj:
            quat = quat_normalize(_vector(obj["quaternion"], f"{path}.quaternion", 4))
        return SplineMotion(times, positions, quat)
    raise ConfigError(f"{path}.kind: unknown motion kind {kind!r}")


@dataclass
class WorldSettings:
    gravity: np.ndarray
    dt: float
    integrator: str
    duration: float


@dataclass
class SceneConfig:
    scene: Scene
    state: SceneState
    world: WorldSettings
    outputs: dict = dc_field(default_factory=dict)
    description: str = ""


def read_document(path: str) -> tuple[object, str]:
    """The JSON document at path and the directory its aopc files are relative to."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return doc, os.path.dirname(os.path.abspath(path))


def load_config(path: str) -> SceneConfig:
    return parse_config(*read_document(path))


def parse_config(doc: dict, base_dir: str = ".") -> SceneConfig:
    _check_keys(doc, "$", ("bodies", "pairs", "world"), ("contact", "outputs", "description"))
    if not isinstance(doc["bodies"], list) or not doc["bodies"]:
        raise ConfigError("$.bodies: expected a non-empty list")

    bodies = []
    poses = {}
    velocities = {}
    for i, b in enumerate(doc["bodies"]):
        path = f"$.bodies[{i}]"
        _check_keys(b, path, ("name", "kind", "aopc"), ("mass", "inertia", "pose", "velocity", "motion"))
        name = b["name"]
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}.name: expected a non-empty string")
        kind = b["kind"]
        aopc, auto_inertia = build_aopc(b["aopc"], f"{path}.aopc", base_dir)
        if kind == "free":
            if "motion" in b:
                raise ConfigError(f"{path}: free bodies take 'pose'/'velocity', not 'motion'")
            if "mass" not in b or "inertia" not in b:
                raise ConfigError(f"{path}: free bodies need 'mass' and 'inertia'")
            mass = _number(b["mass"], f"{path}.mass", positive=True)
            inertia = _inertia(b["inertia"], f"{path}.inertia", auto_inertia, mass)
            try:
                bodies.append(Body(name, aopc, "free", mass, inertia))
            except ValueError as e:
                raise ConfigError(f"{path}: {e}") from None
            if "pose" in b:
                poses[name] = _pose(b["pose"], f"{path}.pose")
            if "velocity" in b:
                velocities[name] = _vector(b["velocity"], f"{path}.velocity", 6)
        elif kind == "kinematic":
            for bad in ("mass", "inertia", "pose", "velocity"):
                if bad in b:
                    raise ConfigError(f"{path}: kinematic bodies take 'motion', not {bad!r}")
            if "motion" not in b:
                raise ConfigError(f"{path}: kinematic bodies need 'motion'")
            bodies.append(Body(name, aopc, "kinematic", motion=_motion(b["motion"], f"{path}.motion")))
        else:
            raise ConfigError(f"{path}.kind: expected 'free' or 'kinematic'")

    pairs = []
    if not isinstance(doc["pairs"], list):
        raise ConfigError("$.pairs: expected a list")
    for i, p in enumerate(doc["pairs"]):
        if not isinstance(p, list) or len(p) != 2 or not all(isinstance(x, str) for x in p):
            raise ConfigError(f"$.pairs[{i}]: expected a [name, name] pair")
        pairs.append((p[0], p[1]))

    contact_doc = doc.get("contact", {})
    _check_keys(contact_doc, "$.contact", (), ("k", "mu", "v_d", "v_s", "eps1", "eps2", "eps3"))
    kwargs = {}
    for key in ("k", "mu", "v_d", "v_s", "eps1", "eps2", "eps3"):
        if key in contact_doc:
            kwargs[key] = _number(contact_doc[key], f"$.contact.{key}")
    try:
        params = ContactParams(**kwargs)
    except ValueError as e:
        raise ConfigError(f"$.contact: {e}") from None

    world_doc = doc["world"]
    _check_keys(world_doc, "$.world", ("dt", "duration"), ("gravity", "integrator"))
    gravity = _vector(world_doc.get("gravity", [0.0, 0.0, -9.81]), "$.world.gravity", 3)
    dt = _number(world_doc["dt"], "$.world.dt", positive=True)
    duration = _number(world_doc["duration"], "$.world.duration")
    if duration < 0:
        raise ConfigError("$.world.duration: must be nonnegative")
    integrator = world_doc.get("integrator", "rk4")
    if integrator not in ("euler", "rk4"):
        raise ConfigError("$.world.integrator: expected 'euler' or 'rk4'")

    outputs = doc.get("outputs", {})
    _check_keys(outputs, "$.outputs", (), ("trajectory", "summary", "report", "sweep"))
    for key, val in outputs.items():
        if not isinstance(val, str):
            raise ConfigError(f"$.outputs.{key}: expected a path string")

    try:
        scene = Scene(bodies, pairs, gravity=gravity, params=params)
    except ValueError as e:
        raise ConfigError(f"$: {e}") from None
    state = make_state(scene, poses, velocities)
    return SceneConfig(
        scene,
        state,
        WorldSettings(gravity, dt, integrator, duration),
        dict(outputs),
        description=doc.get("description", ""),
    )

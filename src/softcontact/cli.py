"""Command-line surface: simulate, sdf-grid, force-sweep, collide, gradcheck,
bench.

Exit codes: 0 success, 1 validation error, 2 numerical divergence. All
outputs are CSV plus human-readable summaries; plotting is left to external
tools.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # not on every platform: bench then reports no fault counts
    resource = None

import numpy as np

from .collision import (
    collision_report_csv,
    contact_points,
    separation_field,
    soft_separation_distance,
)
from .config import ConfigError, SceneConfig, build_aopc, parse_config, read_document
from .dynamics import (
    DivergenceError,
    body_pose,
    pose_all,
    rollout,
    separated_state,
    step,
    total_contact_force,
    trajectory_csv,
)
from .ssdf import grid_to_csv, sample_sdf_grid
from .verify import (
    check_pipeline_gradients,
    cs_gradient,
    hard_pipeline_oracle,
    sample_nondegenerate_state,
)

_AXES = {"x": 0, "y": 1, "z": 2}


class _Parser(argparse.ArgumentParser):
    # No abbreviated flags: sdf-grid would read --eps1 as --eps1-list.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # Usage problems are validation errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _comma_list(convert, n=None, positive=False):
    """argparse type: a comma list of finite values of type convert, exactly
    n of them when n is given, each > 0 when positive."""
    kind = "integers" if convert is int else "positive finite numbers" if positive else "finite numbers"
    what = f"{n or 'one or more'} comma-separated {kind}"
    low = 0 if positive else -np.inf

    def parse(text):
        try:
            vals = [convert(v) for v in text.split(",")]
        except ValueError:
            vals = []
        if not vals or (n and len(vals) != n) or not all(low < v < np.inf for v in vals):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return vals

    return parse


def _number(convert, what, ok):
    """argparse type: one value of type convert for which ok holds."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive = _number(float, "a positive finite number", lambda v: 0 < v < np.inf)
_nonnegative = _number(float, "a finite number >= 0", lambda v: 0 <= v < np.inf)
_count = _number(int, "an integer >= 1", lambda v: v >= 1)


def _bounds(text):
    """argparse type: x0,x1,y0,y1,z0,z1 with each lower bound below its upper."""
    vals = _comma_list(float, 6)(text)
    if not all(lo < hi for lo, hi in zip(vals[0::2], vals[1::2])):
        raise argparse.ArgumentTypeError(f"expected x0 < x1, y0 < y1 and z0 < z1, got {text!r}")
    return vals


def _slice_spec(text):
    """argparse type: AXIS=VALUE with AXIS one of x, y, z and VALUE a finite
    number, as (axis index, value)."""
    axis, _, value = text.partition("=")
    axis = _AXES.get(axis.strip())
    try:
        number = float(value)
    except ValueError:
        number = np.nan
    if axis is None or not np.isfinite(number):
        raise argparse.ArgumentTypeError(f"expected AXIS=VALUE with AXIS x, y or z and a finite VALUE, got {text!r}")
    return axis, number


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softcontact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Flag sets shared by subcommands; each subcommand takes only the flags it reads.
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", default=".", help="output directory")
    io.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
    contact = argparse.ArgumentParser(add_help=False, parents=[io])
    contact.add_argument("--config", required=True, help="scene configuration (JSON)")
    for name, unit in (("eps1", "m^2"), ("eps2", "m"), ("eps3", "m")):
        contact.add_argument(f"--{name}", type=float, default=None, help=f"override contact.{name} ({unit})")
    world = argparse.ArgumentParser(add_help=False, parents=[contact])
    world.add_argument("--dt", type=float, default=None, help="override world.dt")
    world.add_argument("--integrator", choices=("euler", "rk4"), default=None, help="override world.integrator")

    p = sub.add_parser("simulate", parents=[world], help="roll out a scene and export the trajectory")
    p.add_argument("--duration", type=float, default=None, help="override world.duration (s)")

    p = sub.add_parser("sdf-grid", parents=[io], help="sample the soft SDF of one body on a lattice")
    p.add_argument("--config", default=None, help="scene configuration (JSON)")
    p.add_argument("--body", default=None, help="body name (default: first body)")
    p.add_argument("--primitive", default=None, metavar="JSON",
                   help="inline primitive instead of a config body, e.g. "
                        '\'{"kind": "box", "size": [1, 1, 1], "resolution": 150}\'')
    p.add_argument("--bounds", type=_bounds, default=None,
                   help="x0,x1,y0,y1,z0,z1 (default: 1.6x the body bbox)")
    p.add_argument("--resolution", type=_comma_list(int, 3), default="41,41,41", help="nx,ny,nz lattice nodes")
    p.add_argument("--eps1-list", type=_comma_list(float, positive=True), default="0.01,0.25,0.5,10.0",
                   help="comma list of temperatures; one CSV per value")
    p.add_argument("--slice", type=_slice_spec, default=(None, 0.0), help="pin one axis, e.g. z=0")

    p = sub.add_parser("force-sweep", parents=[contact], help="contact force on a body swept along an axis")
    p.add_argument("--body", default=None, help="moving body (default: second body)")
    p.add_argument("--axis", choices=("x", "y", "z"), default="y")
    p.add_argument("--range", dest="sweep_range", type=_comma_list(float, 2), default="-1.5,1.5", help="start,stop (m)")
    p.add_argument("--samples", type=int, default=201)

    p = sub.add_parser("collide", parents=[contact], help="separation field report for the configured pairs")
    p.add_argument("--pose", action="append", default=[], metavar="NAME:tx,ty,tz[,qw,qx,qy,qz]",
                   help="override a free body pose (repeatable)")
    p.add_argument("--k", type=_count, default=None, help="also emit K soft contact points")
    p.add_argument("--tau", type=_positive, default=None, help="top-K selection temperature (default 0.01; needs --k)")
    p.add_argument("--swap", action="store_true", help="swap the order of every pair")

    p = sub.add_parser("gradcheck", parents=[contact], help="derivative checks on randomized states")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled states")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--h", type=_positive, default=1e-6, help="finite-difference step scale")
    p.add_argument("--tol", type=_nonnegative, default=1e-3)

    p = sub.add_parser("bench", parents=[world], help="step timing: contact vs separated variants")
    p.add_argument("--repetitions", type=int, default=100, help="timed steps per variant (>= 10)")
    p.add_argument("--resolutions", type=_comma_list(int), default=None,
                   help="comma list; regenerate primitive AOPCs per resolution")

    return parser


# The document section whose entry each override flag replaces.
_OVERRIDES = {"contact": ("eps1", "eps2", "eps3"), "world": ("dt", "integrator", "duration")}


def _document(args):
    """The scene document with each override flag written in as the entry it
    replaces, so that config checks flags and file alike."""
    doc, base_dir = read_document(args.config)
    edits = [(section, name, getattr(args, name)) for section, names in _OVERRIDES.items()
             for name in names if getattr(args, name, None) is not None]
    poses = getattr(args, "pose", [])
    if edits or poses:
        parse_config(doc, base_dir)  # a malformed file fails with its own message, not in an edit
    for section, name, value in edits:
        doc.setdefault(section, {})[name] = value
    for spec in poses:
        try:
            name, rest = spec.split(":", 1)
            vals = [float(v) for v in rest.split(",")]
        except ValueError:
            raise ConfigError(f"--pose {spec!r}: expected NAME:tx,ty,tz[,qw,qx,qy,qz]") from None
        body = next((b for b in doc["bodies"] if b["name"] == name), None)
        if body is None:
            raise ConfigError(f"--pose: unknown body {name!r}")
        body["pose"] = {"translation": vals[:3], "quaternion": vals[3:] or [1.0, 0.0, 0.0, 0.0]}
    return doc, base_dir


def _load(args) -> SceneConfig:
    return parse_config(*_document(args))


def _say(args, text):
    if not args.quiet:
        print(text)


def _write(args, name, text):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def cmd_simulate(args) -> int:
    cfg = _load(args)
    n_steps = int(cfg.world.duration / cfg.world.dt * (1.0 + 1e-9))  # the most that fit in duration
    t0 = time.perf_counter()
    result = rollout(cfg.scene, cfg.state, cfg.world.dt, n_steps, cfg.world.integrator)
    elapsed = time.perf_counter() - t0
    traj_name = cfg.outputs.get("trajectory", "trajectory.csv")
    path = _write(args, traj_name, trajectory_csv(cfg.scene, result))
    final = result.states[-1]
    lines = [
        f"simulate: {args.config}",
        f"steps: {n_steps}  dt: {cfg.world.dt}  integrator: {cfg.world.integrator}  wall: {elapsed:.2f}s",
    ]
    if n_steps:
        ms = result.step_seconds * 1e3
        lines.append("step wall time ms: min %.3f  mean %.3f  max %.3f" % (ms.min(), ms.mean(), ms.max()))
    lines.append("max penetration (m): %.6g" % result.max_penetration)
    for i, body in enumerate(cfg.scene.bodies):
        pose = body_pose(cfg.scene, final, i)
        lines.append(
            "final %s: t=(%.6g, %.6g, %.6g) q=(%.6g, %.6g, %.6g, %.6g)"
            % (body.name, *pose.translation, *pose.quaternion)
        )
    summary = "\n".join(lines) + "\n"
    _write(args, cfg.outputs.get("summary", "summary.txt"), summary)
    _say(args, summary.rstrip())
    _say(args, f"trajectory written to {path}")
    return 0


def _body_or_default(cfg, name, default_index, what):
    try:
        return cfg.scene.bodies[default_index if name is None else cfg.scene.body_index(name)]
    except KeyError:
        raise ConfigError(f"{what}: unknown body {name!r}") from None


def cmd_sdf_grid(args) -> int:
    if args.primitive is not None:
        clash = [flag for flag, value in (("--config", args.config), ("--body", args.body)) if value is not None]
        if clash:
            raise ConfigError(f"--primitive cannot be combined with {' or '.join(clash)}")
        try:
            doc = json.loads(args.primitive)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--primitive: invalid JSON: {e}") from None
        aopc, _ = build_aopc(doc, "--primitive", ".")
        body_name = aopc.name
    elif args.config is not None:
        cfg = _load(args)
        body = _body_or_default(cfg, args.body, 0, "--body")
        aopc = body.aopc
        body_name = body.name
    else:
        raise ConfigError("sdf-grid needs --config or --primitive")
    if args.bounds is not None:
        lo, hi = np.array(args.bounds[0::2]), np.array(args.bounds[1::2])
    else:
        pts = aopc.points
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        half = 0.8 * (pts.max(axis=0) - pts.min(axis=0)) + 0.5
        lo, hi = center - half, center + half
    sampled = [r for axis, r in enumerate(args.resolution) if axis != args.slice[0]]
    if min(sampled) < 2:
        raise ConfigError("--resolution must be at least 2 on every axis --slice does not pin")
    # Every grid is sampled before any is written, so a rejected value writes nothing.
    grids = [sample_sdf_grid(aopc, (lo, hi), args.resolution, eps1, *args.slice) for eps1 in args.eps1_list]
    written = [_write(args, f"sdf_{body_name}_eps{eps1:g}.csv", grid_to_csv(*grid))
               for eps1, grid in zip(args.eps1_list, grids)]
    _say(args, "wrote " + ", ".join(written))
    return 0


def cmd_force_sweep(args) -> int:
    cfg = _load(args)
    if len(cfg.scene.bodies) != 2:
        raise ConfigError("force-sweep needs a config with exactly two bodies")
    body = _body_or_default(cfg, args.body, 1, "--body")
    if body.kind != "free":
        raise ConfigError("force-sweep: the moving body must be free")
    idx = cfg.scene.body_index(body.name)
    dof = cfg.scene.dof_start(idx)
    k = dof // 6
    axis = _AXES[args.axis]
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    positions = np.linspace(*args.sweep_range, args.samples)
    rows = ["position,fx,fy,fz,tx,ty,tz,grad_f%s" % args.axis]
    base = cfg.state.copy()
    base.v[:] = 0.0
    for s in positions:
        st = base.copy()
        st.q[k, axis] = s
        force = total_contact_force(cfg.scene, st)

        def f_of_pos(x, st=st):
            stc = st.copy()
            stc.q = st.q.astype(x.dtype)
            stc.q[k, axis] = x[0]
            return total_contact_force(cfg.scene, stc)[dof + axis]

        grad = cs_gradient(f_of_pos, np.array([s]))[0]
        blk = force[dof : dof + 6]
        rows.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (s, *blk, grad))
    path = _write(args, cfg.outputs.get("sweep", "force_sweep.csv"), "\n".join(rows) + "\n")
    _say(args, f"force sweep written to {path}")
    return 0


def cmd_collide(args) -> int:
    if args.tau is not None and args.k is None:
        raise ConfigError("--tau is the temperature of the --k contact points: give --k too")
    cfg = _load(args)
    if not cfg.scene.pair_indices:
        raise ConfigError("collide needs at least one collision pair")
    if args.k is not None:
        most = min(sum(cfg.scene.bodies[i].aopc.num_vertices for i in pair) for pair in cfg.scene.pair_indices)
        if args.k > most:
            raise ConfigError(f"--k must be at most {most}, the fewest vertices of a pair, got {args.k}")
    world = pose_all(cfg.scene, cfg.state)
    oracle = hard_pipeline_oracle(cfg.scene, cfg.state)
    # Every pair is evaluated before any file is written, so a rejected --k or --tau writes nothing.
    files, lines = [], []
    for pidx, (ia, ib) in enumerate(cfg.scene.pair_indices):
        a, b = (world[ib], world[ia]) if args.swap else (world[ia], world[ib])
        fld = separation_field(a, b, cfg.scene.params.eps1, cfg.scene.params.eps2)
        soft = float(soft_separation_distance(fld))
        hard = oracle.per_pair[pidx][0]
        files.append((f"collision_{a.body_id}_{b.body_id}.csv", collision_report_csv(fld, a, b, soft, hard)))
        lines.append(f"pair ({a.body_id}, {b.body_id}): soft separation {soft:.6g} m, hard {hard:.6g} m")
        if args.k is not None:
            cps = contact_points(a, b, fld, args.k, **({} if args.tau is None else {"tau": args.tau}))
            rows = ["k,cx,cy,cz"] + ["%d,%.17g,%.17g,%.17g" % (j, *c) for j, c in enumerate(cps.points)]
            files.append((f"contact_points_{a.body_id}_{b.body_id}.csv", "\n".join(rows) + "\n"))
    written = [_write(args, name, text) for name, text in files]
    _say(args, "\n".join(lines + ["wrote " + ", ".join(written)]))
    return 0


def cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    cfg = _load(args)
    rng = np.random.default_rng(args.seed)
    worst = None
    texts = []
    rows = ["sample,function,out_index,in_index,provided,fd,relative_error"]
    for s in range(args.samples):
        st = sample_nondegenerate_state(cfg.scene, rng, cfg.state, vel_scale=cfg.scene.params.v_d)
        report = check_pipeline_gradients(cfg.scene, st, h=args.h, tol=args.tol)
        report.samples = args.samples
        texts.append(f"sample {s}: " + report.text())
        for fn, oi, ii, a, b, r in report.rows:
            rows.append("%d,%s,%d,%d,%.17g,%.17g,%.17g" % (s, fn, oi, ii, a, b, r))
        if worst is None or report.max_relative_error > worst.max_relative_error:
            worst = report
    summary = "".join(texts) + "\noverall: %s (worst %.3e at %s, tol %g)\n" % (
        "PASS" if worst.passed else "FAIL",
        worst.max_relative_error,
        worst.worst_coordinate,
        args.tol,
    )
    _write(args, cfg.outputs.get("report", "gradcheck.txt"), summary)
    _write(args, "gradcheck.csv", "\n".join(rows) + "\n")
    _say(args, summary.rstrip())
    return 0 if worst.passed else 1


def _minor_faults() -> float:
    """Minor page faults of this process so far; NaN without `resource`."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else float("nan")


def cmd_bench(args) -> int:
    doc, base_dir = _document(args)
    cfg = parse_config(doc, base_dir)
    if args.repetitions < 10:
        raise ConfigError("--repetitions must be at least 10")
    if not cfg.scene.pair_indices:
        raise ConfigError("bench needs at least one collision pair")
    rows = ["variant,resolution,total_points,median_ms,p10_ms,p90_ms,minflt_per_step"]
    summaries = []
    for res in args.resolutions or [None]:
        if res is not None:
            for b in doc["bodies"]:
                if "kind" in b["aopc"]:
                    b["aopc"]["resolution"] = res
            cfg = parse_config(doc, base_dir)
        scene, contact_state = cfg.scene, cfg.state
        label = res if res is not None else "config"
        total_points = sum(b.aopc.num_points for b in scene.bodies)
        apart = separated_state(scene, contact_state)
        times = {"contact": [], "separated": []}
        faults = {"contact": 0, "separated": 0}
        # One warm-up round, then the variants alternate step by step, so the
        # machine's speed swings reach both alike and cancel in each pair.
        for rep in range(args.repetitions + 1):
            for variant, st in (("contact", contact_state), ("separated", apart)):
                f0 = _minor_faults()
                t0 = time.perf_counter()
                step(scene, st, cfg.world.dt, cfg.world.integrator)
                if rep:
                    times[variant].append(time.perf_counter() - t0)
                    faults[variant] += _minor_faults() - f0
        minflt = {variant: n / args.repetitions for variant, n in faults.items()}
        for variant, t in times.items():
            ms = np.sort(t) * 1e3
            rows.append("%s,%s,%d,%.4f,%.4f,%.4f,%.1f" % (variant, label, total_points, np.median(ms),
                                                          ms[int(0.1 * len(ms))], ms[int(0.9 * len(ms))], minflt[variant]))
        contact, separated = np.asarray(times["contact"]), np.asarray(times["separated"])
        summaries.append(
            "resolution %s (%d points): median contact %.3f ms, separated %.3f ms, paired ratio %.3f, "
            "minor faults per step contact %.1f, separated %.1f"
            % (label, total_points, 1e3 * np.median(contact), 1e3 * np.median(separated), np.median(separated / contact),
               minflt["contact"], minflt["separated"])
        )
    path = _write(args, "bench.csv", "\n".join(rows) + "\n")
    text = "\n".join(summaries)
    _write(args, "bench.txt", text + "\n")
    _say(args, text)
    _say(args, f"timings written to {path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sdf-grid": cmd_sdf_grid,
    "force-sweep": cmd_force_sweep,
    "collide": cmd_collide,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:  # ConfigError, AopcError and the library's input checks
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

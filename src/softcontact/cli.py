"""Command-line surface: simulate, sdf-grid, force-sweep, collide, gradcheck,
bench.

Exit codes: 0 success, 1 validation error, 2 numerical divergence. All
outputs are CSV plus human-readable summaries; plotting is left to external
tools.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .collision import (
    collision_report_csv,
    contact_points,
    separation_field,
    soft_separation_distance,
)
from .config import ConfigError, SceneConfig, load_config
from .dynamics import (
    DivergenceError,
    body_pose,
    pose_all,
    rollout,
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
    # Usage problems are validation errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _common_flags(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument("--config", required=config_required, help="scene configuration (JSON)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    p.add_argument("--dt", type=float, default=None, help="override world.dt")
    p.add_argument("--integrator", choices=("euler", "rk4"), default=None, help="override world.integrator")
    p.add_argument("--eps1", type=float, default=None, help="override contact.eps1 (m^2)")
    p.add_argument("--eps2", type=float, default=None, help="override contact.eps2 (m)")
    p.add_argument("--eps3", type=float, default=None, help="override contact.eps3 (m)")
    p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softcontact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="roll out a scene and export the trajectory")
    _common_flags(p)
    p.add_argument("--duration", type=float, default=None, help="override world.duration (s)")

    p = sub.add_parser("sdf-grid", help="sample the soft SDF of one body on a lattice")
    _common_flags(p, config_required=False)
    p.add_argument("--body", default=None, help="body name (default: first body)")
    p.add_argument("--primitive", default=None, metavar="JSON",
                   help="inline primitive instead of a config body, e.g. "
                        '\'{"kind": "box", "size": [1, 1, 1], "resolution": 150}\'')
    p.add_argument("--bounds", default=None, help="x0,x1,y0,y1,z0,z1 (default: 1.6x the body bbox)")
    p.add_argument("--resolution", default="41,41,41", help="nx,ny,nz lattice nodes")
    p.add_argument("--eps1-list", default="0.01,0.25,0.5,10.0", help="comma list of temperatures; one CSV per value")
    p.add_argument("--slice", dest="slice_spec", default=None, help="pin one axis, e.g. z=0")

    p = sub.add_parser("force-sweep", help="contact force on a body swept along an axis")
    _common_flags(p)
    p.add_argument("--body", default=None, help="moving body (default: second body)")
    p.add_argument("--axis", choices=("x", "y", "z"), default="y")
    p.add_argument("--range", dest="sweep_range", default="-1.5,1.5", help="start,stop (m)")
    p.add_argument("--samples", type=int, default=201)

    p = sub.add_parser("collide", help="separation field report for the configured pairs")
    _common_flags(p)
    p.add_argument("--pose", action="append", default=[], metavar="NAME:tx,ty,tz[,qw,qx,qy,qz]",
                   help="override a free body pose (repeatable)")
    p.add_argument("--k", type=int, default=None, help="also emit K soft contact points")
    p.add_argument("--tau", type=float, default=1e-2, help="top-K selection temperature")
    p.add_argument("--swap", action="store_true", help="swap the order of every pair")

    p = sub.add_parser("gradcheck", help="derivative checks on randomized states")
    _common_flags(p)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--h", type=float, default=1e-6, help="finite-difference step scale")
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("bench", help="step timing: contact vs separated variants")
    _common_flags(p)
    p.add_argument("--repetitions", type=int, default=100, help="timed steps per variant (>= 10)")
    p.add_argument("--resolutions", default=None, help="comma list; regenerate primitive AOPCs per resolution")

    return parser


def _load(args) -> SceneConfig:
    cfg = load_config(args.config)
    params = cfg.scene.params
    for name in ("eps1", "eps2", "eps3"):
        val = getattr(args, name, None)
        if val is not None:
            params = replace(params, **{name: val})
    cfg.scene.params = params
    if args.dt is not None:
        if args.dt <= 0:
            raise ConfigError("--dt must be positive")
        cfg.world.dt = args.dt
    if args.integrator is not None:
        cfg.world.integrator = args.integrator
    if getattr(args, "duration", None) is not None:
        if args.duration < 0:
            raise ConfigError("--duration must be nonnegative")
        cfg.world.duration = args.duration
    return cfg


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
    n_steps = int(round(cfg.world.duration / cfg.world.dt)) if cfg.world.duration > 0 else 0
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
    if name is None:
        return cfg.scene.bodies[default_index]
    for body in cfg.scene.bodies:
        if body.name == name:
            return body
    raise ConfigError(f"{what}: unknown body {name!r}")


def cmd_sdf_grid(args) -> int:
    if args.primitive is not None:
        import json as _json

        from .config import _aopc

        try:
            doc = _json.loads(args.primitive)
        except _json.JSONDecodeError as e:
            raise ConfigError(f"--primitive: invalid JSON: {e}") from None
        aopc, _spec = _aopc(doc, "--primitive", ".")
        body_name = aopc.name
    elif args.config is not None:
        cfg = _load(args)
        body = _body_or_default(cfg, args.body, 0, "--body")
        aopc = body.aopc
        body_name = body.name
    else:
        raise ConfigError("sdf-grid needs --config or --primitive")
    if args.bounds is not None:
        vals = _floats(args.bounds, 6, "--bounds")
        lo = np.array(vals[0::2])
        hi = np.array(vals[1::2])
    else:
        pts = aopc.points
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        half = 0.8 * (pts.max(axis=0) - pts.min(axis=0)) + 0.5
        lo, hi = center - half, center + half
    res = [int(v) for v in _floats(args.resolution, 3, "--resolution")]
    slice_axis = slice_value = None
    if args.slice_spec is not None:
        try:
            axis_name, val = args.slice_spec.split("=")
            slice_axis = _AXES[axis_name.strip()]
            slice_value = float(val)
        except (ValueError, KeyError):
            raise ConfigError("--slice must look like z=0") from None
    eps_list = [float(v) for v in args.eps1_list.split(",") if v]
    if not eps_list:
        raise ConfigError("--eps1-list must name at least one temperature")
    written = []
    for eps1 in eps_list:
        pts_grid, values = sample_sdf_grid(aopc, (lo, hi), res, eps1, slice_axis, slice_value or 0.0)
        fname = f"sdf_{body_name}_eps{eps1:g}.csv"
        written.append(_write(args, fname, grid_to_csv(pts_grid, values)))
    _say(args, "wrote " + ", ".join(written))
    return 0


def _floats(text, n, what):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{what}: expected {n} comma-separated numbers") from None
    if len(vals) != n:
        raise ConfigError(f"{what}: expected {n} comma-separated numbers")
    return vals


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
    a0, a1 = _floats(args.sweep_range, 2, "--range")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    positions = np.linspace(a0, a1, args.samples)
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


def _apply_pose_overrides(cfg, overrides):
    for spec in overrides:
        try:
            name, rest = spec.split(":", 1)
            vals = [float(v) for v in rest.split(",")]
        except ValueError:
            raise ConfigError(f"--pose {spec!r}: expected NAME:tx,ty,tz[,qw,qx,qy,qz]") from None
        if len(vals) == 3:
            t, q = np.array(vals), np.array([1.0, 0.0, 0.0, 0.0])
        elif len(vals) == 7:
            t, q = np.array(vals[:3]), np.array(vals[3:])
            q = q / np.linalg.norm(q)
        else:
            raise ConfigError(f"--pose {spec!r}: expected 3 or 7 numbers")
        if name not in {body.name for body in cfg.scene.bodies}:
            raise ConfigError(f"--pose: unknown body {name!r}")
        dof = cfg.scene.dof_start(cfg.scene.body_index(name))
        if dof is None:
            raise ConfigError(f"--pose: body {name!r} is kinematic")
        k = dof // 6
        cfg.state.q[k, :3] = t
        cfg.state.q[k, 3:] = q


def cmd_collide(args) -> int:
    cfg = _load(args)
    if not cfg.scene.pair_indices:
        raise ConfigError("collide needs at least one collision pair")
    _apply_pose_overrides(cfg, args.pose)
    world = pose_all(cfg.scene, cfg.state)
    oracle = hard_pipeline_oracle(cfg.scene, cfg.state)
    written = []
    for pidx, (ia, ib) in enumerate(cfg.scene.pair_indices):
        a, b = (world[ib], world[ia]) if args.swap else (world[ia], world[ib])
        fld = separation_field(a, b, cfg.scene.params.eps1, cfg.scene.params.eps2)
        soft = float(soft_separation_distance(fld))
        hard = oracle.per_pair[pidx][0]
        name = f"collision_{a.body_id}_{b.body_id}.csv"
        written.append(_write(args, name, collision_report_csv(fld, soft, hard)))
        _say(args, f"pair ({a.body_id}, {b.body_id}): soft separation {soft:.6g} m, hard {hard:.6g} m")
        if args.k is not None:
            cps = contact_points(a, b, fld, args.k, args.tau)
            rows = ["k,cx,cy,cz"]
            for j, c in enumerate(cps.points):
                rows.append("%d,%.17g,%.17g,%.17g" % (j, *c))
            written.append(_write(args, f"contact_points_{a.body_id}_{b.body_id}.csv", "\n".join(rows) + "\n"))
    _say(args, "wrote " + ", ".join(written))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load(args)
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    if args.h <= 0:
        raise ConfigError("--h must be positive")
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


def cmd_bench(args) -> int:
    cfg = _load(args)
    if args.repetitions < 10:
        raise ConfigError("--repetitions must be at least 10")
    if not cfg.scene.pair_indices:
        raise ConfigError("bench needs at least one collision pair")
    resolutions = [None]
    if args.resolutions:
        resolutions = [int(v) for v in args.resolutions.split(",")]
    rows = ["variant,resolution,total_points,median_ms,p10_ms,p90_ms"]
    summaries = []
    for res in resolutions:
        scene = cfg.scene
        if res is not None:
            from .config import parse_config
            import json as _json

            with open(args.config) as fh:
                doc = _json.load(fh)
            for b in doc["bodies"]:
                if "kind" in b.get("aopc", {}):
                    b["aopc"]["resolution"] = res
            rebuilt = parse_config(doc, base_dir=os.path.dirname(os.path.abspath(args.config)))
            rebuilt.scene.params = cfg.scene.params
            scene, base_state = rebuilt.scene, rebuilt.state
        else:
            base_state = cfg.state
        total_points = sum(b.aopc.num_points for b in scene.bodies)
        medians = {}
        for variant in ("contact", "separated"):
            st = base_state.copy()
            if variant == "separated":
                # Move every free body far out along +x: same shapes, no contact.
                span = max(float(np.abs(b.aopc.points).max()) for b in scene.bodies)
                for k in range(st.q.shape[0]):
                    st.q[k, 0] += 40.0 * (k + 1) * max(span, 1.0)
            times = []
            step(scene, st, cfg.world.dt, cfg.world.integrator)  # warm-up
            for _ in range(args.repetitions):
                t0 = time.perf_counter()
                step(scene, st, cfg.world.dt, cfg.world.integrator)
                times.append(time.perf_counter() - t0)
            ms = np.sort(np.asarray(times)) * 1e3
            med = float(np.median(ms))
            medians[variant] = med
            rows.append(
                "%s,%s,%d,%.4f,%.4f,%.4f"
                % (variant, res if res is not None else "config", total_points,
                   med, ms[int(0.1 * len(ms))], ms[int(0.9 * len(ms))])
            )
        ratio = medians["separated"] / medians["contact"]
        summaries.append(
            "resolution %s (%d points): median contact %.3f ms, separated %.3f ms, ratio %.3f"
            % (res if res is not None else "config", total_points, medians["contact"], medians["separated"], ratio)
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
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import os

import numpy as np
import pytest

from softcontact import cli
from softcontact.cli import _COMMANDS, build_parser, main
from softcontact.config import ConfigError, load_config, parse_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def minimal_doc():
    return {
        "bodies": [
            {"name": "a", "kind": "free", "mass": 1.0, "inertia": "auto",
             "aopc": {"kind": "sphere", "radius": 0.5, "resolution": 54},
             "pose": {"translation": [0, 0, 0]}},
            {"name": "b", "kind": "kinematic",
             "aopc": {"kind": "box", "size": [2, 2, 0.2], "resolution": 24},
             "motion": {"kind": "static", "pose": {"translation": [0, 0, -0.6]}}},
        ],
        "pairs": [["a", "b"]],
        "world": {"dt": 0.002, "duration": 0.01},
    }


def write(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundled_configs_parse():
    for name in os.listdir(CONFIG_DIR):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        assert cfg.scene.bodies


def test_unknown_keys_rejected(tmp_path):
    doc = minimal_doc()
    doc["extra_section"] = 1
    with pytest.raises(ConfigError, match=r"\$: unknown key.*extra_section"):
        load_config(write(tmp_path, doc))

    doc = minimal_doc()
    doc["bodies"][0]["massive"] = 2
    with pytest.raises(ConfigError, match=r"bodies\[0\].*massive"):
        load_config(write(tmp_path, doc))

    doc = minimal_doc()
    doc["contact"] = {"stiffness": 100}
    with pytest.raises(ConfigError, match=r"contact.*stiffness"):
        load_config(write(tmp_path, doc))

    # No command reads a grid file name from the config: sdf-grid names its own.
    doc = minimal_doc()
    doc["outputs"] = {"grid": "grid.csv"}
    with pytest.raises(ConfigError, match=r"\$\.outputs: unknown key.*grid"):
        load_config(write(tmp_path, doc))


def test_out_of_range_values_rejected(tmp_path):
    doc = minimal_doc()
    doc["bodies"][0]["mass"] = -1.0
    with pytest.raises(ConfigError, match="positive"):
        load_config(write(tmp_path, doc))

    doc = minimal_doc()
    doc["world"]["dt"] = 0.0
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path, doc))

    doc = minimal_doc()
    doc["pairs"] = [["a", "nobody"]]
    with pytest.raises(ConfigError, match="unknown body"):
        load_config(write(tmp_path, doc))

    doc = minimal_doc()
    doc["contact"] = {"eps2": -1.0}
    with pytest.raises(ConfigError, match="eps2"):
        load_config(write(tmp_path, doc))

    for resolution in (float("inf"), 54.7, 54.0, "96", True):  # json writes inf as Infinity
        doc = minimal_doc()
        doc["bodies"][0]["aopc"]["resolution"] = resolution
        with pytest.raises(ConfigError, match=r"bodies\[0\]\.aopc\.resolution: expected an integer"):
            load_config(write(tmp_path, doc))


def test_kinematic_free_field_mixing_rejected(tmp_path):
    doc = minimal_doc()
    doc["bodies"][1]["mass"] = 1.0
    with pytest.raises(ConfigError, match="kinematic"):
        load_config(write(tmp_path, doc))
    doc = minimal_doc()
    doc["bodies"][0]["motion"] = {"kind": "static", "pose": {"translation": [0, 0, 0]}}
    with pytest.raises(ConfigError, match="free bodies"):
        load_config(write(tmp_path, doc))


def test_auto_inertia_composite_validates_com(tmp_path):
    doc = minimal_doc()
    doc["bodies"][0]["aopc"] = {
        "kind": "composite", "resolution": 48,
        "members": [{"size": [0.2, 0.1, 0.1], "offset": [0.3, 0, 0]}],
    }
    with pytest.raises(ConfigError, match="center of mass"):
        load_config(write(tmp_path, doc))


def test_aopc_file_source(tmp_path):
    from softcontact.geometry import box_aopc, export_aopc

    aopc_path = tmp_path / "shape.aopc"
    aopc_path.write_text(export_aopc(box_aopc([0.3, 0.3, 0.3], 24)))
    doc = minimal_doc()
    doc["bodies"][0]["aopc"] = {"file": "shape.aopc"}
    doc["bodies"][0]["inertia"] = [0.1, 0.1, 0.1]
    cfg = load_config(write(tmp_path, doc))
    assert cfg.scene.bodies[0].aopc.num_points == 24

    doc["bodies"][0]["inertia"] = "auto"
    with pytest.raises(ConfigError, match="auto"):
        load_config(write(tmp_path, doc))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1
    # argparse-level usage error also maps to 1
    assert main(["simulate"]) == 1
    assert main(["gradcheck", "--config", str(bad), "--out", str(tmp_path), "--samples", "0"]) == 1


def test_cli_simulate_duration_zero(tmp_path):
    doc = minimal_doc()
    cfg = write(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--duration", "0", "--quiet"])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(doc["bodies"])  # header + initial state only


@pytest.mark.parametrize("name, flags, steps", [
    ("sphere_drop.json", ["--dt", "0.03"], 26),  # 0.8 / 0.03 = 26.7: end at 0.78 s, not 0.81 s
    ("sphere_drop.json", ["--dt", "0.1", "--duration", "0.3"], 3),  # 0.3 / 0.1 = 2.9999999999999996
    ("sphere_drop.json", [], 800),
    ("stacked_boxes.json", [], 250),
    ("push_t_1.json", [], 550),
])
def test_cli_simulate_never_runs_past_duration(tmp_path, monkeypatch, name, flags, steps):
    # simulate takes the most steps n with n dt <= duration, up to a 1e-9
    # relative slack for the rounding of the quotient.
    class Stop(Exception):
        pass

    def stop(scene, state, dt, n_steps, integrator):
        raise Stop(n_steps)

    monkeypatch.setattr(cli, "rollout", stop)
    with pytest.raises(Stop) as caught:
        main(["simulate", "--config", os.path.join(CONFIG_DIR, name), "--out", str(tmp_path), "--quiet", *flags])
    assert caught.value.args == (steps,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_simulate_divergence_exit_2(tmp_path):
    doc = minimal_doc()
    doc["bodies"][0]["pose"] = {"translation": [0, 0, -0.45]}  # start deeply buried
    doc["contact"] = {"k": 1e300, "v_s": 1e-6}
    doc["world"] = {"dt": 0.5, "duration": 5.0, "integrator": "euler"}
    cfg = write(tmp_path, doc)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2


def test_cli_sdf_grid_box_crossing(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "box_slice.json")
    out = tmp_path / "grid"
    rc = main(["sdf-grid", "--config", cfg, "--out", str(out),
               "--bounds=-1.5,1.5,-1.5,1.5,0,1", "--resolution", "81,81,1",
               "--slice", "z=0", "--eps1-list", "0.01", "--quiet"])
    assert rc == 0
    path = out / "sdf_square_eps0.01.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = np.unique(rows[:, 0])
    cell = xs[1] - xs[0]
    grid = rows[:, 3].reshape(81, 81)
    for j, y in enumerate(xs):
        if abs(y) > 0.4:
            continue
        row = grid[:, j]
        cross = np.nonzero(np.diff(np.sign(row)))[0]
        for c in cross:
            x0 = xs[c] - row[c] * cell / (row[c + 1] - row[c])
            assert abs(abs(x0) - 0.5) <= cell


def test_cli_sdf_grid_temperature_sweep_files(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "box_slice.json")
    out = tmp_path / "grid"
    rc = main(["sdf-grid", "--config", cfg, "--out", str(out),
               "--bounds=-1.5,1.5,-1.5,1.5,0,1", "--resolution", "21,21,1",
               "--slice", "z=0", "--quiet"])
    assert rc == 0
    for eps in ("0.01", "0.25", "0.5", "10"):
        path = out / f"sdf_square_eps{eps}.csv"
        assert path.exists()
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        grid = rows[:, 3].reshape(21, 21)
        np.testing.assert_allclose(grid, grid[::-1, :], atol=1e-9)  # symmetry


def test_cli_collide_swap_same_distance(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "stacked_boxes.json")
    rc = main(["collide", "--config", cfg, "--out", str(tmp_path / "c1")])
    assert rc == 0
    plain = capsys.readouterr().out
    rc = main(["collide", "--config", cfg, "--out", str(tmp_path / "c2"), "--swap"])
    assert rc == 0
    swapped = capsys.readouterr().out
    d1 = [l for l in plain.splitlines() if "soft separation" in l][0].split("soft separation")[1]
    d2 = [l for l in swapped.splitlines() if "soft separation" in l][0].split("soft separation")[1]
    assert d1 == d2


def test_cli_gradcheck_deterministic_and_failing_tol(tmp_path):
    doc = minimal_doc()
    doc["bodies"][1] = {
        "name": "b", "kind": "free", "mass": 1.0, "inertia": "auto",
        "aopc": {"kind": "box", "size": [0.8, 0.8, 0.4], "resolution": 54},
        "pose": {"translation": [0.0, 0.1, -0.5]},
    }
    cfg = write(tmp_path, doc)
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    rc = main(["gradcheck", "--config", cfg, "--out", str(out1), "--samples", "2", "--seed", "5", "--quiet"])
    assert rc == 0
    rc = main(["gradcheck", "--config", cfg, "--out", str(out2), "--samples", "2", "--seed", "5", "--quiet"])
    assert rc == 0
    assert (out1 / "gradcheck.csv").read_bytes() == (out2 / "gradcheck.csv").read_bytes()

    rc = main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "g3"), "--samples", "1",
               "--seed", "5", "--tol", "0", "--quiet"])
    assert rc == 1  # guaranteed failing report exercises the failure path
    assert "FAIL" in (tmp_path / "g3" / "gradcheck.txt").read_text()


def test_cli_force_sweep_and_bench(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "sphere_pair.json")
    out = tmp_path / "sweep"
    rc = main(["force-sweep", "--config", cfg, "--out", str(out), "--samples", "11",
               "--range=-1.4,1.4", "--quiet"])
    assert rc == 0
    rows = np.loadtxt(out / "force_sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (11, 8)

    bench_cfg = os.path.join(CONFIG_DIR, "stacked_boxes.json")
    rc = main(["bench", "--config", bench_cfg, "--out", str(tmp_path / "bench"),
               "--repetitions", "10", "--quiet"])
    assert rc == 0
    text = (tmp_path / "bench" / "bench.csv").read_text()
    assert text.splitlines()[0] == "variant,resolution,total_points,median_ms,p10_ms,p90_ms,minflt_per_step"
    assert len(text.strip().splitlines()) == 3
    rc = main(["bench", "--config", bench_cfg, "--out", str(tmp_path / "bench"),
               "--repetitions", "5", "--quiet"])
    assert rc == 1  # repetitions below the floor are rejected


def test_cli_sdf_grid_primitive_spec(tmp_path):
    out = tmp_path / "prim"
    rc = main(["sdf-grid", "--primitive", '{"kind": "sphere", "radius": 0.5, "resolution": 96}',
               "--out", str(out), "--resolution", "9,9,9", "--eps1-list", "0.001", "--quiet"])
    assert rc == 0
    rows = np.loadtxt(out / "sdf_sphere_eps0.001.csv", delimiter=",", skiprows=1)
    assert rows.shape == (9 * 9 * 9, 4)
    rc = main(["sdf-grid", "--primitive", "{broken", "--out", str(out), "--quiet"])
    assert rc == 1


def test_eps_overrides(tmp_path):
    doc = minimal_doc()
    cfg = write(tmp_path, doc)
    from softcontact.cli import build_parser, _load

    args = build_parser().parse_args(["simulate", "--config", cfg, "--eps2", "0.05"])
    loaded = _load(args)
    assert loaded.scene.params.eps2 == 0.05


@pytest.mark.parametrize("argv, entry", [
    (["collide", "--config", "stacked_boxes.json", "--pose", "upper:nan,0,0"], "$.bodies[1].pose.translation[0]"),
    (["collide", "--config", "stacked_boxes.json", "--pose", "upper:inf,0,0"], "$.bodies[1].pose.translation[0]"),
    (["collide", "--config", "stacked_boxes.json", "--pose", "upper:0,0,1,0,0,0,0"], "$.bodies[1].pose.quaternion"),
    (["collide", "--config", "sphere_drop.json", "--pose", "ground:0,0,0"], "$.bodies[1]: kinematic bodies"),
    (["collide", "--config", "stacked_boxes.json", "--pose", "nobody:0,0,0"], "--pose: unknown body 'nobody'"),
    (["simulate", "--config", "sphere_drop.json", "--eps1", "-1"], "$.contact: eps1"),
    (["simulate", "--config", "sphere_drop.json", "--eps2", "nan"], "$.contact.eps2"),
    (["simulate", "--config", "sphere_drop.json", "--dt", "nan"], "$.world.dt"),
    (["simulate", "--config", "sphere_drop.json", "--dt", "-1"], "$.world.dt"),
    (["simulate", "--config", "sphere_drop.json", "--duration", "nan"], "$.world.duration"),
])
def test_cli_bad_override_names_the_document_entry(tmp_path, capsys, argv, entry):
    argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and entry in err[0], err
    assert not list(tmp_path.iterdir())  # rejected before anything is written


@pytest.mark.parametrize("edit, flag, message", [
    (lambda doc: doc.pop("world"), ["--dt", "0.01"], "$: missing key(s) ['world']"),
    (lambda doc: doc.pop("bodies"), ["--eps1", "0.01"], "$: missing key(s) ['bodies']"),
    (lambda doc: doc["bodies"][0].pop("name"), ["--duration", "0"], "$.bodies[0]: missing key(s) ['name']"),
    (lambda doc: doc.update(contact=[]), ["--eps2", "0.01"], "$.contact: expected an object"),
])
def test_cli_override_on_malformed_file_reports_the_file(tmp_path, capsys, edit, flag, message):
    doc = minimal_doc()
    edit(doc)
    cfg = write(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    plain = capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"] + flag) == 1
    assert capsys.readouterr().err == plain == f"error: {message}\n"


def test_cli_pose_flag_matches_pose_written_in_the_file(tmp_path):
    path = os.path.join(CONFIG_DIR, "stacked_boxes.json")
    rc = main(["collide", "--config", path, "--out", str(tmp_path / "flag"), "--k", "8", "--quiet",
               "--pose", "upper:0.01,0,0.97"])
    assert rc == 0
    with open(path) as fh:
        doc = json.load(fh)
    [upper] = [b for b in doc["bodies"] if b["name"] == "upper"]
    upper["pose"] = {"translation": [0.01, 0, 0.97]}
    rc = main(["collide", "--config", write(tmp_path, doc), "--out", str(tmp_path / "file"), "--k", "8", "--quiet"])
    assert rc == 0
    names = sorted(os.listdir(tmp_path / "flag"))
    assert names == sorted(os.listdir(tmp_path / "file")) and len(names) == 2
    for name in names:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


def test_cli_bench_resolutions(tmp_path):
    rc = main(["bench", "--config", os.path.join(CONFIG_DIR, "stacked_boxes.json"), "--out", str(tmp_path),
               "--resolutions", "24,54", "--repetitions", "10", "--quiet"])
    assert rc == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    # Two 0.5 x 0.5 x 0.2 boxes; the lattice rounds each face's cells up.
    assert [r.split(",")[:3] for r in rows[1:]] == [
        ["contact", "24", "84"], ["separated", "24", "84"], ["contact", "54", "128"], ["separated", "54", "128"]]
    # Minor page faults per step: a count, or nan where the platform has none.
    assert rows[0].split(",")[-1] == "minflt_per_step"
    assert all(not float(r.split(",")[6]) < 0 for r in rows[1:])
    assert (tmp_path / "bench.txt").read_text().count("minor faults per step contact") == 2
    assert main(["bench", "--config", os.path.join(CONFIG_DIR, "stacked_boxes.json"), "--out", str(tmp_path),
                 "--resolutions", "24,x", "--quiet"]) == 1


@pytest.mark.parametrize("argv", [
    ["sdf-grid", "--config", "box_slice.json", "--eps1-list", "abc"],
    ["sdf-grid", "--config", "box_slice.json", "--eps1-list=-1"],
    ["sdf-grid", "--config", "box_slice.json", "--resolution", "nan,2,2"],
    ["sdf-grid", "--config", "box_slice.json", "--resolution", "1,1,1"],
    ["sdf-grid", "--config", "box_slice.json", "--bounds", "1,0,0,1,0,1"],
    ["force-sweep", "--config", "sphere_pair.json", "--range=nan,1"],
    ["collide", "--config", "stacked_boxes.json", "--k", "0"],
    ["collide", "--config", "stacked_boxes.json", "--k", "100000"],
    ["collide", "--config", "stacked_boxes.json", "--k", "8", "--tau=-1"],
    ["collide", "--config", "stacked_boxes.json", "--k", "8", "--tau", "nan"],
    ["gradcheck", "--config", "sphere_pair.json", "--samples", "1", "--h", "nan"],
    ["gradcheck", "--config", "sphere_pair.json", "--samples", "1", "--tol", "nan"],
    ["gradcheck", "--config", "sphere_pair.json", "--samples", "1", "--seed", "-1"],
    ["collide", "--config", "stacked_boxes.json", "--tau", "0.5"],
    ["collide", "--config", "stacked_boxes.json", "--tau", "nan"],
    ["collide", "--config", "stacked_boxes.json", "--k", "-2"],
    ["gradcheck", "--config", "sphere_pair.json", "--samples", "1", "--h", "0"],
    ["gradcheck", "--config", "sphere_pair.json", "--samples", "1", "--tol=-1"],
    ["sdf-grid", "--config", "box_slice.json", "--eps1-list", "0.01,0"],
])
def test_cli_rejected_value_ends_in_one_error_line(tmp_path, capsys, argv):
    argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "Traceback" not in err and lines[-1].startswith("error: "), err
    assert sum(line.startswith("error:") for line in lines) == 1, err
    assert not list(tmp_path.iterdir())  # rejected before anything is written
    if "--seed" in argv:  # not numpy's "expected non-negative integer"
        assert lines[-1] == "error: --seed must be non-negative"
    # The line names the flag that carried the value, not the library
    # parameter it became; a valid --tau without --k names both.
    flag = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    assert flag in lines[-1], lines[-1]
    if argv[-2:] == ["--tau", "0.5"]:
        assert lines[-1] == "error: --tau is the temperature of the --k contact points: give --k too"


_SPHERE = '{"kind": "sphere", "radius": 0.5, "resolution": 54}'


@pytest.mark.parametrize("argv, message", [
    (["--config", "box_slice.json", "--slice", "z=nan"], "argument --slice: expected AXIS=VALUE"),
    (["--config", "box_slice.json", "--slice", "z=inf"], "argument --slice: expected AXIS=VALUE"),
    (["--config", "box_slice.json", "--slice", "q=0"], "argument --slice: expected AXIS=VALUE"),
    (["--primitive", _SPHERE, "--config", "box_slice.json", "--body", "nosuch"],
     "--primitive cannot be combined with --config or --body"),
    (["--primitive", _SPHERE, "--config", "box_slice.json"], "--primitive cannot be combined with --config"),
    (["--primitive", _SPHERE, "--body", "box"], "--primitive cannot be combined with --body"),
])
def test_cli_sdf_grid_bad_slice_or_primitive_with_config_names_the_flags(tmp_path, capsys, argv, message):
    argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".json") else a for a in argv]
    assert main(["sdf-grid", *argv, "--resolution", "5,5,5", "--eps1-list", "0.01", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert errors == lines[-1:] and errors[0].startswith(f"error: {message}"), lines
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--seed"),
    *[("sdf-grid", f) for f in ("--seed", "--dt", "--integrator", "--eps1", "--eps2", "--eps3")],
    *[(c, f) for c in ("force-sweep", "collide") for f in ("--seed", "--dt", "--integrator")],
    ("gradcheck", "--dt"), ("gradcheck", "--integrator"),
    ("bench", "--seed"),
])
def test_cli_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    value = "rk4" if flag == "--integrator" else "0.5"
    argv = [command, "--config", os.path.join(CONFIG_DIR, "sphere_pair.json"), "--out", str(tmp_path), "--quiet"]
    assert main(argv + [flag, value]) == 1
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--duration", "0.004"]),
    ("sdf-grid", ["--resolution", "5,5,1", "--slice", "z=0", "--eps1-list", "0.01"]),
    ("force-sweep", ["--body", "a", "--samples", "2"]),
    ("collide", ["--k", "2"]),
    ("gradcheck", ["--samples", "1", "--tol", "1e9"]),
    ("bench", ["--repetitions", "10"]),
])
def test_cli_every_flag_of_a_subcommand_is_read(tmp_path, command, flags):
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    argv = [command, "--config", write(tmp_path, minimal_doc()), "--out", str(tmp_path / "out"), "--quiet"]
    args = parser.parse_args(argv + flags, namespace=Recording())
    read.clear()
    assert _COMMANDS[command](args) == 0
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    assert dests <= read, sorted(dests - read)

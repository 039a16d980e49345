"""CLI tests.

``TestReadmeCommands`` pins the documented outputs: the JSON document, or
every ``--out`` file, of each run in ``_RUNS`` is kept under
``tests/data/runs/<run>/``.  After a deliberate output change, regenerate
those files with

    NETLAB_REPIN=1 PYTHONPATH=src python -m pytest tests/test_cli.py -k runs_clean

and review the diff.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netlab import cli
from netlab import params as P
from netlab.cli import (_CONFIG_ERRORS, _parse_map, _parse_schedule,
                        _parse_window, main)
from netlab.moduli import logpow, parse_modulus
from netlab.netgen import PointCloud


DATA = Path(__file__).with_name("data")
RUNS = DATA / "runs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_GOOD_ROWS = b"x,y\n0,0\n1,0\n0,1\n1,1\n"
_NETF = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])).to_netf()
# point files net-audit must refuse, by file name
_BAD_POINT_FILES = {
    "unparsable-row.csv": _GOOD_ROWS + b"0,1x\n",
    "unparsable-first-row.csv": b"0,1x\n" + _GOOD_ROWS,
    "second-header.csv": b"x,y\n" + _GOOD_ROWS,
    "wrong-column-count.csv": _GOOD_ROWS + b"0.5,0.5,0.5\n",
    "nan.csv": _GOOD_ROWS + b"nan,0.5\n",
    "inf.csv": _GOOD_ROWS + b"0.5,-inf\n",
    "nan.netf": _NETF[:-8] + np.array([np.nan]).tobytes(),
    "truncated.netf": _NETF[:-1],
    "trailing-bytes.netf": _NETF + b"\0",
    "truncated-header.netf": _NETF[:10],
}
_PARAMS_ARGS = {"d": 1, "modulus": "identity", "eps": 0.1, "c": 0.5}
# config files main must refuse, by file name
_BAD_CONFIGS = {
    "list.json": "[1]",
    "not-json.json": "{",
    "args-list.json": json.dumps({"command": "moduli-check", "args": [1]}),
    "command-list.json": json.dumps({"command": ["params"]}),
    "unknown-key.json": json.dumps({"command": "moduli-check", "args": {
        "modulus": "logpow:0.5", "grid-size": 64}}),
    "certify-string.json": json.dumps({"command": "params", "args": {
        **_PARAMS_ARGS, "certify": "false"}}),
    "d-float.json": json.dumps({"command": "params", "args": {**_PARAMS_ARGS, "d": 2.9}}),
    "levels-float.json": json.dumps({"command": "families", "args": {
        "d": 2, "schedule": "6x2", "c": 1, "levels": 1.7}}),
    "seed-unseeded.json": json.dumps({"command": "params", "args": {
        **_PARAMS_ARGS, "seed": 3}}),
}
# bad values that the command table refuses, and what the error names
_BAD_VALUES = {
    "grid-size-float": (["moduli-check", "--modulus", "logpow:1", "--grid-size", "1.5"],
                        "--grid-size"),
    "eps-text": (["params", "--d", "1", "--modulus", "identity", "--eps", "x",
                  "--c", "0.5"], "--eps"),
    "d-missing": (["params", "--modulus", "identity", "--eps", "0.1", "--c", "0.5"],
                  "--d"),
    "resolution-0": (["symdiff", "--f", "identity:2", "--g", "identity:2",
                      "--resolution", "0"], "--resolution"),
    "seed-unseeded": (["--seed", "3", "moduli-check", "--modulus", "logpow:1"], "'seed'"),
    "config-d-float": (["--config", "d-float.json"], "--d"),
    "config-levels-float": (["--config", "levels-float.json"], "--levels"),
    "config-certify-string": (["--config", "certify-string.json"], "--certify"),
    "config-seed-unseeded": (["--config", "seed-unseeded.json"], "'seed'"),
    "config-unknown-key": (["--config", "unknown-key.json"], "'grid-size'"),
}
_NAMED = {tuple(argv): named for argv, named in _BAD_VALUES.values()}


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "moduli-check", "--modulus", "logpow:1",
                           "--grid-size", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["increasing"]

    def test_invalid_eps_exits_two_naming_constraint(self, capsys):
        code, _, err = run(capsys, "params", "--d", "1", "--modulus", "identity",
                           "--eps", "1.5", "--c", "0.5")
        assert code == 2
        assert "(0,1)" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_property_violation_exits_one(self, capsys):
        # smoothing below the half-sidelength guard but wide enough to
        # destroy the alternating averages
        code, _, err = run(capsys, "chessboard", "--d", "2", "--schedule",
                           "6x2", "--c", "1", "--levels", "1",
                           "--xi", "1/10", "--delta-div", "3")
        assert code == 1
        assert "invariant" in err

    def test_bad_map_spec_exits_two(self, capsys):
        code, _, err = run(capsys, "symdiff", "--f", "nonsense:1", "--g",
                           "identity:2")
        assert code == 2

    @pytest.mark.parametrize("spec", ["radial-bump:1", "radial-bump:0.5,0.1",
                                      "shear:", "shear:0.1,0.2", "stretch:1,2",
                                      "stretch:0.5,0.15,0.07,1.15,1,9"])
    def test_map_spec_with_wrong_value_count_exits_two(self, capsys, spec):
        code, _, err = run(capsys, "symdiff", "--f", spec, "--g", "identity:2")
        assert code == 2
        assert "cannot parse map spec" in err

    def test_negative_eps_exits_two(self, capsys):
        code, _, err = run(capsys, "boundary-measure", "--map", "identity:2",
                           "--eps-list", "-0.1", "--resolution", "64")
        assert code == 2
        assert "non-negative" in err
        code, out, _ = run(capsys, "boundary-measure", "--map", "identity:2",
                           "--eps-list", "0", "--resolution", "64")
        assert code == 0
        assert json.loads(out)["result"]["rows"][0]["eps"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["moduli-check", "--modulus", "holder"],
        ["moduli-check", "--modulus", "logpow"],
        ["moduli-check", "--modulus", "scaled"],
        ["symdiff", "--f", "stretch:1,0,1,1", "--g", "identity:2"],
        ["net-build", "--rho", "const:1", "--side", "0", "--m", "2"],
        ["net-build", "--rho", "const:1", "--side", "-2", "--m", "2"],
        ["net-discrepancy", "--rho", "const:1", "--side", "0", "--m", "2"],
        ["chessboard", "--d", "2", "--schedule", "6x2", "--c", "1",
         "--levels", "1", "--delta-div", "0"],
        ["families", "--d", "2", "--schedule", "6x2", "--c", "0", "--levels", "1"],
        ["families", "--d", "0", "--schedule", "6x2", "--c", "1", "--levels", "1"],
        ["net-build", "--rho", "const:1/0", "--side", "2", "--m", "2"],
        ["families", "--d", "2", "--schedule", "6x2", "--c", "1/0", "--levels", "1"],
        ["chessboard", "--d", "2", "--schedule", "6x2", "--c", "1",
         "--levels", "1", "--xi", "1/0"],
        ["dichotomy", "--map", "identity:1", "--modulus", "identity", "--c", "0.5",
         "--n", "0", "--m", "5", "--eps", "0.1", "--d", "1"],
        ["dichotomy", "--map", "stretch:0.5,0.15,0.0667,1.15", "--modulus",
         "identity", "--c", "0.5", "--n", "60", "--m", "0", "--eps", "0.1",
         "--d", "1"],
        ["b1-trace", "--map", "identity:1", "--modulus", "identity", "--eps", "0.1",
         "--c", "0.5", "--d", "1", "--max-iters", "0"],
        ["volume-check", "--map", "affine:2:1.2,0.3,-0.1,0.9", "--modulus",
         "identity", "--c", "1", "--n", "0", "--eps", "0.5", "--d", "2"],
        ["volume-check", "--map", "affine:2:1.2,0.3,-0.1,0.9", "--modulus",
         "identity", "--c", "1", "--n", "4", "--eps", "0.5", "--d", "0"],
        ["symdiff", "--f", "radial-bump:0.5,0.5,0.1,0", "--g", "identity:2",
         "--resolution", "16"],
        ["volume-check", "--map", "radial-bump:1.5,0.5,0.1,2.0", "--modulus",
         "identity", "--c", "1", "--n", "4", "--slab", "1", "--eps", "0.5",
         "--d", "2", "--budget", "0"],
        ["symdiff", "--f", "radial-bump:0.5,0.5,3,0.5", "--g", "identity:2",
         "--resolution", "16"],
        ["boundary-measure", "--map", "radial-bump:0.5,0.5,-3,0.5",
         "--eps-list", "0.1", "--resolution", "32"],
        # exact N_i, M_i gain tenfold digits per level under a holder modulus
        ["params", "--d", "2", "--modulus", "holder:0.5", "--eps", "0.1",
         "--c", "0.1"],
        # the dimension-one M base 1/omega^-1(eps_1/4) overflows a float
        ["params", "--d", "3", "--modulus", "holder:0.5", "--eps", "0.1",
         "--c", "0.1"],
        # exponents and factors that are NaN, or whose default domain end
        # e^-alpha overflows
        ["moduli-check", "--modulus", "logpow:-1000"],
        ["moduli-check", "--modulus", "scaled:2:logpow:-1000"],
        ["moduli-check", "--modulus", "logpow:nan"],
        ["moduli-check", "--modulus", "scaled:nan:identity"],
        ["moduli-check", "--modulus", "scaled:inf:identity"],
        *[["net-audit", "--points", name, "--window", "0:1"]
          for name in _BAD_POINT_FILES],
        *[["--config", name] for name in _BAD_CONFIGS],
        ["--config", "missing.json"],
        ["net-audit", "--points", "."],
        ["moduli-check", "--modulus", "logpow:1", "--out", "missing/run"],
        ["symdiff", "--f", "identity:3", "--g", "identity:2"],
        ["volume-check", "--map", "radial-bump:0.5,0.1,2.0", "--modulus",
         "identity", "--c", "1", "--n", "4", "--eps", "0.5", "--d", "2"],
        *[argv for argv, _ in _BAD_VALUES.values()],
    ], ids=["holder-no-value", "logpow-no-value", "scaled-no-value",
            "stretch-fills-window", "net-build-side-0", "net-build-side-neg",
            "net-discrepancy-side-0", "delta-div-0", "families-c-0",
            "families-d-0", "rho-zero-denominator", "c-zero-denominator",
            "xi-zero-denominator", "dichotomy-n-0", "dichotomy-m-0",
            "b1-max-iters-0", "volume-n-0", "volume-d-0", "bump-width-0",
            "volume-budget-0", "bump-amp-above-range", "bump-amp-below-range",
            "params-holder-digit-cap", "params-holder-m-base-overflow",
            "logpow-exponent-overflows", "scaled-logpow-exponent-overflows",
            "logpow-nan", "scaled-nan", "scaled-inf",
            *_BAD_POINT_FILES, *_BAD_CONFIGS, "missing-config", "points-directory",
            "out-missing-directory", "symdiff-map-3d", "volume-map-1d",
            *_BAD_VALUES])
    def test_bad_flag_value_exits_two_without_traceback(self, capsys, tmp_path,
                                                        monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name, blob in _BAD_POINT_FILES.items():
            (tmp_path / name).write_bytes(blob)
        for name, text in _BAD_CONFIGS.items():
            (tmp_path / name).write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("netlab: configuration error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert _NAMED.get(tuple(argv), "") in err

    def test_seed_after_an_unseeded_command_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moduli-check", "--modulus", "logpow:1", "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


_VALUES = st.lists(st.sampled_from(["-1", "0", "0.5", "1", "2"]), max_size=6)


def _parses_or_exits_two(parse, spec):
    try:
        parse(spec)
    except _CONFIG_ERRORS:
        pass


def _pairs(values, sep):
    return ",".join(sep.join(values[i:i + 2]) for i in range(0, len(values), 2))


class TestSpecParsersFuzz:
    """Every spec either parses or raises an error that main() maps to exit 2."""

    @given(st.sampled_from(["identity", "holder", "logpow", "scaled"]), _VALUES)
    @example("holder", [])
    @settings(max_examples=200, deadline=None)
    def test_modulus(self, kind, values):
        _parses_or_exits_two(parse_modulus, ":".join([kind, *values]))

    @given(st.sampled_from(["identity", "affine", "shear", "radial-bump",
                            "stretch"]), _VALUES)
    @example("stretch", ["1", "0", "1", "1"])
    @settings(max_examples=300, deadline=None)
    def test_map(self, kind, values):
        if kind == "affine" and values:
            spec = f"affine:{values[0]}:{','.join(values[1:])}"
        else:
            spec = f"{kind}:{','.join(values)}"
        _parses_or_exits_two(_parse_map, spec)

    @given(_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_window(self, values):
        _parses_or_exits_two(_parse_window, _pairs(values, ":"))

    @given(_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_schedule(self, values):
        _parses_or_exits_two(_parse_schedule, _pairs(values, "x"))


def _write_points(path, points):
    path.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in points))
    return str(path)


class TestDistortionCommands:
    def test_distort_heuristic_on_one_point_exits_two(self, capsys, tmp_path):
        one = _write_points(tmp_path / "one.csv", [(0.0, 0.0)])
        code, out, err = run(capsys, "distort-heuristic", "--x", one, "--y", one)
        assert code == 2
        assert out == ""
        assert "need at least 2 points" in err

    def test_feige_cn_zero_samples_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "feige-cn", "args": {
            "n": 2, "d": 2, "window": "0:3", "samples": 0}}))
        for argv in (["feige-cn", "--n", "2", "--d", "2", "--window", "0:3",
                      "--samples", "0"], ["--config", str(cfg)]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "samples must be at least 1" in err

    def test_node_limit_downgrade_warns_on_stderr(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        x, y = (_write_points(tmp_path / name, rng.integers(0, 10, (8, 2))
                              + 0.1 * rng.random((8, 2))) for name in ("a.csv", "b.csv"))
        code, out, err = run(capsys, "distort-exact", "--x", x, "--y", y,
                             "--node-limit", "10")
        assert code == 0
        assert json.loads(out)["result"]["method"] == "heuristic"
        assert err == ("netlab: warning: node limit reached; bilip is a "
                       "heuristic upper bound\n")
        code, out, err = run(capsys, "distort-exact", "--x", x, "--y", y)
        assert code == 0
        assert json.loads(out)["result"]["method"] == "exact"
        assert err == ""


class TestOutputs:
    def test_params_emits_csv_and_json(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code, _, _ = run(capsys, "params", "--d", "1", "--modulus", "identity",
                         "--eps", "0.1", "--c", "0.5", "--max-levels", "5",
                         "--out", out)
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["result"]["r"] == 1
        assert doc["meta"]["tool"] == "netlab"
        assert "config_hash" in doc["meta"] and "seed" in doc["meta"]
        csv = (tmp_path / "run.csv").read_text()
        assert csv.splitlines()[0].startswith("# tool: netlab")
        header = [l for l in csv.splitlines() if not l.startswith("#")][0]
        assert header == "i,log_c_i,N_i,M_i,log_ell_i,upsilon_i"

    @pytest.mark.parametrize("name,argv", [
        ("params_logpow_d2_no_certify",
         ["--d", "2", "--modulus", "logpow:0.01", "--eps", "0.1", "--c", "0.1",
          "--no-certify"]),
        ("params_identity_d3",
         ["--d", "3", "--modulus", "identity", "--eps", "0.1", "--c", "0.1"]),
        ("params_logpow_d1_far",
         ["--d", "1", "--modulus", "logpow:0.01", "--eps", "0.1", "--c", "0.1",
          "--max-levels", "8"]),
    ])
    def test_params_outputs_pinned(self, capsys, tmp_path, name, argv):
        # bytes recorded from the float scan and the far model before they
        # shared one set of closed forms; a moved digit in either path fails
        code, _, _ = run(capsys, "params", *argv, "--out", str(tmp_path / name))
        assert code == 0
        for ext in (".json", ".csv"):
            assert (tmp_path / (name + ext)).read_bytes() == (DATA / (name + ext)).read_bytes()

    def test_params_upsilon_past_float_range_is_written_as_text(self, capsys):
        # holder upsilon: 5.7e106 at level 1, past the float range at level 2
        code, out, err = run(capsys, "params", "--d", "2", "--modulus", "holder:0.5",
                             "--eps", "0.1", "--c", "0.1", "--no-certify",
                             "--max-levels", "2", "--format", "csv")
        assert code == 0
        assert "Traceback" not in err
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        ups = [row.split(",")[-1] for row in lines[1:]]
        assert len(ups) == 2
        assert all(mpmath.isfinite(mpmath.mpf(v)) for v in ups)
        assert ups[0] == repr(float(ups[0]))
        assert mpmath.mpf(ups[1]) > 1e308

    @pytest.mark.parametrize("sink", ["--out", "--format"])
    def test_params_ints_past_str_limit_are_written_as_hex(self, capsys, tmp_path,
                                                           sink):
        # holder N_3 and M_3 have more digits than str() of an int may give
        argv = ["params", "--d", "2", "--modulus", "holder:0.5", "--eps", "0.1",
                "--c", "0.1", "--no-certify", "--max-levels", "3"]
        target = str(tmp_path / "hp") if sink == "--out" else "csv"
        code, out, err = run(capsys, *argv, sink, target)
        assert code == 0, err
        if sink == "--out":
            out = (tmp_path / "hp.csv").read_text()
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
        assert rows[0][2:4] == ["N_i", "M_i"]
        last = P.param_sequence(2, parse_modulus("holder:0.5"), 0.1, 0.1, 3).levels[-1]
        assert rows[-1][0] == "3"
        assert [int(cell, 0) for cell in rows[-1][2:4]] == [last.N, last.M]

    def test_reruns_byte_identical(self, capsys, tmp_path):
        args = ["families", "--d", "2", "--schedule", "6x2,4x3", "--c", "1",
                "--levels", "2", "--offsets", "seeded-random", "--seed", "3"]
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_net_build_binary_roundtrip(self, capsys, tmp_path):
        out = str(tmp_path / "net")
        code, _, _ = run(capsys, "net-build", "--rho", "const:1", "--corner",
                         "0,0", "--side", "4", "--m", "1", "--binary",
                         "--out", out)
        assert code == 0
        blob = (tmp_path / "net.netf").read_bytes()
        assert blob[:4] == b"NETF"
        cloud = PointCloud.from_netf(blob)
        csv_cloud = PointCloud.from_csv((tmp_path / "net.csv").read_text())
        assert np.array_equal(cloud.points, csv_cloud.points)

    def test_csv_stdout_format(self, capsys):
        code, out, _ = run(capsys, "boundary-measure", "--map", "identity:2",
                           "--eps-list", "0.1", "--resolution", "64",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool: netlab")
        assert any(l.startswith("eps,measure") for l in lines)


def _readme_commands():
    """The argv of every ``netlab`` line in the README's command block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Commands:", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("netlab ")]


_README_INPUTS = {
    "a.csv": "x,y\n0,0\n1,0.2\n2.1,0\n0,1\n1.2,1.1\n2,2\n",
    "b.csv": "x,y\n0,0.1\n1,0\n2,0.3\n0.2,1\n1,1\n2.2,1.9\n",
    "pts.csv": "x,y\n0,0\n1,0\n0,1\n1,1\n",
    "net.csv": "x,y\n" + "".join(f"{i + 0.5},{j + 0.5}\n"
                                 for i in range(10) for j in range(10)),
}
_VOLUME_BUMP = ["--map", "radial-bump:1.5,0.5,0.1,2.0", "--modulus", "identity",
                "--c", "1", "--n", "4", "--slab", "1", "--eps", "0.5", "--d", "2"]
_RUNS = {f"readme-{argv[0]}": argv for argv in _readme_commands()}
_RUNS.update({
    "volume-check-grid": ["volume-check", "--mode", "grid", *_VOLUME_BUMP],
    "volume-check-monte-carlo": ["volume-check", "--mode", "monte_carlo", *_VOLUME_BUMP],
    # the spec kinds no README command uses: holder and scaled moduli, and
    # the chessboard: density, which reads a chessboard run's output
    "holder-moduli-check": ["moduli-check", "--modulus", "holder:0.5"],
    "scaled-moduli-check": ["moduli-check", "--modulus", "scaled:2:logpow:0.5"],
    "scaled-params": ["params", "--d", "1", "--modulus", "scaled:2:logpow:0.5",
                      "--eps", "0.1", "--c", "0.1"],
    "holder-params": ["params", "--d", "2", "--modulus", "holder:0.5", "--eps", "0.1",
                      "--c", "0.1", "--no-certify", "--max-levels", "3"],
    "chessboard-net-discrepancy": ["net-discrepancy", "--rho", "chessboard:cb.json",
                                   "--side", "40", "--m", "4"],
})
# runs whose input another run writes first
_SETUP = {"chessboard-net-discrepancy": ["chessboard", "--d", "2", "--schedule",
                                         "4x2,4x2", "--c", "1", "--levels", "2",
                                         "--out", "cb"]}


def _outputs(capsys, tmp_path, argv):
    """Exit code, stderr, the JSON document and every output file of a run."""
    code, out, err = run(capsys, *argv)
    files = {}
    if "--out" in argv:
        prefix = argv[argv.index("--out") + 1]
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.glob(prefix + ".*"))}
        out = files[prefix + ".json"].decode()
    return code, err, out, files


class TestReadmeCommands:
    def test_every_command_is_listed(self):
        assert len(_readme_commands()) == 17

    def test_every_command_has_a_run(self):
        # a handler's own module import runs only when the handler does
        assert {argv[0] for argv in _RUNS.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("name, argv", _RUNS.items(), ids=_RUNS)
    def test_runs_clean_and_reruns_byte_identical(self, capsys, tmp_path,
                                                  monkeypatch, name, argv):
        monkeypatch.chdir(tmp_path)
        for path, text in _README_INPUTS.items():
            (tmp_path / path).write_text(text)
        if name in _SETUP:
            assert run(capsys, *_SETUP[name])[0] == 0
        first = _outputs(capsys, tmp_path, argv)
        code, err, doc, files = first
        assert code == 0, err
        assert "Traceback" not in err
        parsed = json.loads(doc)
        assert json.dumps(parsed, sort_keys=True, indent=1) + "\n" == doc
        assert parsed["meta"]["command"] == argv[0]
        assert _outputs(capsys, tmp_path, argv) == first
        pinned = files or {"stdout.json": doc.encode()}
        if os.environ.get("NETLAB_REPIN"):
            shutil.rmtree(RUNS / name, ignore_errors=True)
            (RUNS / name).mkdir(parents=True)
            for fname, blob in pinned.items():
                (RUNS / name / fname).write_bytes(blob)
        assert pinned == {p.name: p.read_bytes() for p in (RUNS / name).iterdir()}


class TestConfigHash:
    def test_one_computation_one_hash(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "moduli-check", "args": {
            "modulus": "logpow:0.5", "grid_size": 64}}))
        base = ["moduli-check", "--modulus", "logpow:0.5"]

        def config_hash(*argv):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return json.loads(out)["meta"]["config_hash"]

        forms = {config_hash(*base), config_hash(*base, "--grid-size", "64"),
                 config_hash("--config", str(cfg)),
                 config_hash(*base, "--tolerance", "1e-12")}
        assert len(forms) == 1
        assert config_hash(*base, "--grid-size", "65") not in forms
        assert config_hash("moduli-check", "--config", str(cfg),
                           "--grid-size", "32") not in forms


_LIGHT_PROBE = """
import sys
import netlab.cli
heavy = ("netlab.netgen", "netlab.distortion", "netlab.geomlab")
print(sorted(m for m in sys.modules if m.startswith("scipy") or m in heavy))
code = netlab.cli.main(["moduli-check", "--modulus", "logpow:0.5"])
print(code, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


class TestStartUp:
    def test_cli_and_moduli_check_load_no_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _LIGHT_PROBE],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "0 []"


class TestRunOptions:
    _FAMILIES = ["families", "--d", "2", "--schedule", "6x2,4x3", "--c", "1",
                 "--levels", "2", "--offsets", "seeded-random"]

    def test_run_options_work_before_and_after_the_command(self, capsys, tmp_path):
        a, b, c = (str(tmp_path / name) for name in "abc")
        assert run(capsys, "--seed", "3", "--out", a, *self._FAMILIES)[0] == 0
        assert run(capsys, *self._FAMILIES, "--seed", "3", "--out", b)[0] == 0
        assert run(capsys, "--out", c, *self._FAMILIES)[0] == 0
        for ext in (".json", ".svg"):
            assert Path(a + ext).read_bytes() == Path(b + ext).read_bytes()
        assert Path(a + ".json").read_bytes() != Path(c + ".json").read_bytes()
        assert json.loads(Path(a + ".json").read_text())["meta"]["seed"] == 3
        argv = ["boundary-measure", "--map", "identity:2", "--eps-list", "0.1",
                "--resolution", "16"]
        assert run(capsys, "--format", "csv", *argv) == run(capsys, *argv, "--format", "csv")

    def test_unseeded_command_meta_keeps_seed_zero(self, capsys):
        code, out, _ = run(capsys, "moduli-check", "--modulus", "logpow:1")
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 0

    def test_help_shows_each_flags_type_and_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moduli-check", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown in ("str, required", "int, default 64", "float, default 1e-12"):
            assert shown in text


class TestConfigFile:
    def test_config_drives_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "net-build",
            "args": {"rho": "const:1", "corner": "0,0", "side": "4", "m": 1},
        }))
        code, out, _ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["result"]["points"] == 16

    def test_cli_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "net-build",
            "args": {"rho": "const:1", "corner": "0,0", "side": "4", "m": 1},
        }))
        code, out, _ = run(capsys, "net-build", "--config", str(cfg),
                           "--side", "2")
        assert code == 0
        assert json.loads(out)["result"]["points"] == 4


class TestSpecExamples:
    def test_params_logpow_summary(self, capsys):
        # trace plumbing only; the far-regime certification runs in the
        # acceptance suite
        code, out, _ = run(capsys, "params", "--d", "2", "--modulus",
                           "logpow:0.01", "--eps", "0.1", "--c", "0.1",
                           "--max-levels", "3", "--no-certify")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["clamped"] is True
        assert doc["result"]["theta"] < 1e-9

    def test_feige_cn_small_window(self, capsys):
        code, out, _ = run(capsys, "feige-cn", "--n", "2", "--d", "2",
                           "--window", "0:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["exact"] is True
        assert doc["result"]["C_n"] >= 1.0

    def test_dichotomy_identity_branch_one(self, capsys):
        code, out, _ = run(capsys, "dichotomy", "--map", "identity:1",
                           "--modulus", "identity", "--c", "0.5", "--n", "60",
                           "--eps", "0.1", "--d", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["branch"] == 1
        assert doc["result"]["statement1"]["omega_size"] == 59

    def test_volume_check_radial_bump_emits_json(self, capsys):
        # the report carries numpy booleans, which must serialise
        code, out, _ = run(capsys, "volume-check", "--map",
                           "radial-bump:1.5,0.5,0.1,2.0", "--modulus",
                           "identity", "--c", "1", "--n", "4", "--slab", "1",
                           "--eps", "0.5", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True

    def test_chessboard_output_feeds_net_build(self, capsys, tmp_path):
        prefix = str(tmp_path / "cb")
        code, _, _ = run(capsys, "chessboard", "--d", "2", "--schedule", "6x2",
                         "--c", "1", "--levels", "1", "--out", prefix)
        assert code == 0
        code, out, _ = run(capsys, "net-build", "--rho",
                           f"chessboard:{prefix}.json", "--corner", "0,0",
                           "--side", "10", "--m", "2")
        assert code == 0
        assert json.loads(out)["result"]["points"] > 0

    def test_chessboard_spec_rejects_other_json(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"base": "1"}))
        code, _, err = run(capsys, "net-build", "--rho", f"chessboard:{path}",
                           "--corner", "0,0", "--side", "1", "--m", "2")
        assert code == 2
        assert "not a chessboard output" in err


class TestParamsCertificate:
    def test_one_trace_one_model_and_kappa_from_the_certified_model(
            self, capsys, monkeypatch):
        # far regime in d=1: the command certifies r once and reads kappa's
        # level-r sidelength from the model the certificate carries
        calls = {"param_sequence": 0, "_FarRegime": 0}

        def counting(name):
            original = getattr(P, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(P, name, counting(name))
        code, out, _ = run(capsys, "params", "--d", "1", "--modulus",
                           "logpow:0.01", "--eps", "0.1", "--c", "0.1",
                           "--max-levels", "8")
        monkeypatch.undo()
        assert code == 0
        assert calls == {"param_sequence": 1, "_FarRegime": 1}
        res = json.loads(out)["result"]
        assert res["r"] == 15012 and res["r_mode"] == "extrapolated"

        m = logpow(0.01)
        cert = P.certify_r(1, m, 0.1, 0.1, max_levels=8)
        fresh = dataclasses.replace(cert, model=P._FarRegime(cert.trace, m))
        assert res["kappa"] == P.kappa_from_certificate(fresh, m)

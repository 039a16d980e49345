import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netlab import params as P
from netlab.cli import (_CONFIG_ERRORS, _parse_map, _parse_schedule,
                        _parse_window, main)
from netlab.moduli import logpow, parse_modulus
from netlab.netgen import PointCloud


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ], ids=["holder-no-value", "logpow-no-value", "scaled-no-value",
            "stretch-fills-window", "net-build-side-0", "net-build-side-neg",
            "net-discrepancy-side-0", "delta-div-0", "families-c-0",
            "families-d-0", "rho-zero-denominator", "c-zero-denominator",
            "xi-zero-denominator", "dichotomy-n-0", "dichotomy-m-0",
            "b1-max-iters-0", "volume-n-0", "volume-d-0", "bump-width-0",
            "volume-budget-0", "bump-amp-above-range", "bump-amp-below-range"])
    def test_bad_flag_value_exits_two_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("netlab: configuration error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


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


class TestReadmeRasterCommands:
    @pytest.mark.parametrize("argv", [
        ["symdiff", "--f", "identity:2", "--g", "shear:0.05", "--resolution", "64"],
        ["boundary-measure", "--map", "identity:2", "--eps-list", "0.1,0.05,0.02",
         "--resolution", "256"],
        ["b1-trace", "--map", "stretch:0.5,0.15,0.0667,1.15", "--modulus",
         "identity", "--eps", "0.1", "--c", "0.5", "--d", "1"],
        ["volume-check", "--mode", "grid", "--map", "radial-bump:1.5,0.5,0.1,2.0",
         "--modulus", "identity", "--c", "1", "--n", "4", "--slab", "1",
         "--eps", "0.5", "--d", "2"],
        ["volume-check", "--mode", "monte_carlo", "--map",
         "radial-bump:1.5,0.5,0.1,2.0", "--modulus", "identity", "--c", "1",
         "--n", "4", "--slab", "1", "--eps", "0.5", "--d", "2"],
    ], ids=["symdiff", "boundary-measure", "b1-trace", "volume-check-grid",
            "volume-check-monte-carlo"])
    def test_runs_clean_and_reruns_byte_identical(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["meta"]["command"] == argv[0]
        assert run(capsys, *argv) == (0, out, err)


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

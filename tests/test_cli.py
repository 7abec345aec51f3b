"""Command-line behavior: exit codes, formats, config merging, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksl.cli
from ksl.cli import run
from ksl.report import Record, build_report, flatten, payload_bytes, render_csv
from ksl.sphere import SolveReport


@pytest.fixture(autouse=True)
def _isolate_out_dir(monkeypatch):
    # keep a developer's KSL_OUT from redirecting test artifacts
    monkeypatch.delenv("KSL_OUT", raising=False)


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, tmp_path):
    code, out, _ = run_capture([*argv, "--out", str(tmp_path)], capsys)
    return code, json.loads(out)


class TestRecordLayer:
    def test_flat_keys(self):
        recs = [
            Record("constants", "", {"c_s": 0.5}),
            Record("interval", "3", {"k_lo": 1.0}),
        ]
        payload = flatten(recs)
        assert payload == {"constants.c_s": 0.5, "interval.3.k_lo": 1.0}

    def test_duplicate_key_rejected(self):
        recs = [Record("a", "", {"x": 1}), Record("a", "", {"x": 2})]
        with pytest.raises(ValueError, match="duplicate"):
            flatten(recs)

    def test_payload_bytes_exclude_timestamp(self):
        recs = [Record("s", "", {"v": 1.25})]
        r1 = build_report("0.0", {"seed": 0}, recs)
        r2 = build_report("0.0", {"seed": 0}, recs)
        assert payload_bytes(r1) == payload_bytes(r2)

    def test_csv_round_trips_floats(self):
        recs = [Record("s", "", {"v": 0.1 + 0.2, "flag": True, "name": "x"})]
        text = render_csv(recs)
        lines = text.splitlines()
        assert lines[0] == "section,label,flag,name,v"
        assert lines[1].split(",")[4] == repr(0.1 + 0.2)
        assert "true" in lines[1]

    def test_csv_missing_cells_blank(self):
        recs = [Record("a", "", {"x": 1}), Record("b", "", {"y": 2})]
        lines = render_csv(recs).splitlines()
        assert lines[1] == "a,,1,"
        assert lines[2] == "b,,,2"


class TestConstantsCommand:
    def test_json_contains_sharp_constant(self, capsys, tmp_path):
        code, rep = run_json(["constants", "--n", "2", "--q", "2"], capsys, tmp_path)
        assert code == 0
        assert rep["payload"]["constants.c_s"] == pytest.approx(0.566987298, abs=1e-9)
        assert rep["payload"]["constants.status"] == "pass"
        assert (tmp_path / "constants.json").exists()

    def test_q_grid_rows(self, capsys, tmp_path):
        code, rep = run_json(
            ["constants", "--n", "2", "--q-grid", "1.5,2,2.5"], capsys, tmp_path
        )
        assert code == 0
        payload = rep["payload"]
        assert payload["constants.0.q"] == 1.5
        assert payload["constants.2.q"] == 2.5
        assert all(
            payload[f"constants.{i}.status"] == "pass" for i in range(3)
        )

    def test_linspace_grid_spelling(self, capsys, tmp_path):
        code, rep = run_json(
            ["constants", "--n", "2", "--q-grid", "1.5:2.5:3"], capsys, tmp_path
        )
        assert code == 0
        assert rep["payload"]["constants.1.q"] == pytest.approx(2.0)

    def test_n1_row_passes(self, capsys, tmp_path):
        code, rep = run_json(["constants", "--n", "1", "--q", "3"], capsys, tmp_path)
        assert code == 0
        assert rep["payload"]["constants.c_s"] == pytest.approx(1.0, abs=1e-12)


class TestIntervalAndOptimize:
    def test_interval_csv_one_row_per_tuple(self, capsys, tmp_path):
        code, out, _ = run_capture(
            [
                "interval",
                "--n",
                "2",
                "--q-grid",
                "1.5,2,2.5",
                "--format",
                "csv",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("section,label,")
        assert (tmp_path / "interval.csv").read_text() == out

    def test_optimize_auto(self, capsys, tmp_path):
        code, rep = run_json(["optimize-k", "--n", "2", "--q", "2"], capsys, tmp_path)
        assert code == 0
        assert rep["payload"]["optimize_k.k_star"] == pytest.approx(
            2.0 - 3.0**0.5, abs=1e-9
        )

    def test_optimize_fixed_k(self, capsys, tmp_path):
        code, rep = run_json(
            ["optimize-k", "--n", "2", "--q", "2", "--k", "1.0"], capsys, tmp_path
        )
        assert code == 0
        assert rep["payload"]["optimize_k.k_star"] == 1.0
        assert rep["payload"]["optimize_k.threshold"] == pytest.approx(10.0 / 13.0)


class TestVerifyCommands:
    def test_algebra_verify_all_pass(self, capsys, tmp_path):
        code, rep = run_json(["algebra-verify"], capsys, tmp_path)
        assert code == 0
        statuses = {
            key: val
            for key, val in rep["payload"].items()
            if key.endswith(".status")
        }
        assert statuses and all(val == "pass" for val in statuses.values())
        assert "algebra.base_chain.status" in statuses

    def test_sphere_verify(self, capsys, tmp_path):
        code, rep = run_json(["sphere-verify", "--L", "12"], capsys, tmp_path)
        assert code == 0
        assert rep["payload"]["sphere.lambda1.residual"] < 1e-8
        assert rep["payload"]["sphere.sobolev_sample.margin"] > 0

    def test_pde_solve_reports_constant(self, capsys, tmp_path):
        code, rep = run_json(
            ["pde-solve", "--lambda", "0.4", "--q", "2", "--L", "16", "--seed", "7"],
            capsys,
            tmp_path,
        )
        assert code == 0
        assert rep["payload"]["pde.summary"] == "constant solution 0.400000"
        assert rep["payload"]["pde.constant_value"] == pytest.approx(0.4, abs=1e-8)

    @pytest.mark.parametrize("q", ["200", "9991"])
    def test_pde_solve_fails_on_the_trivial_solution(self, q, capsys, tmp_path):
        # the absolute residual tolerance lets Newton settle on u = 0 here;
        # the positive constant is 0.5^(1/(q - 1)), near 1
        code, rep = run_json(["pde-solve", "--q", q, "--L", "8"], capsys, tmp_path)
        assert code == 1
        payload = rep["payload"]
        assert payload["pde.converged"] is True
        assert payload["pde.is_constant"] is True
        assert abs(payload["pde.constant_value"]) < 1e-8
        assert payload["pde.status"] == "fail"
        assert payload["pde.summary"].startswith("trivial solution")


class TestRigidityGate:
    """Where (q - 1) lambda <= lambda_1 = 1, a converged solve must be constant."""

    @pytest.fixture
    def non_constant_solve(self, monkeypatch):
        report = SolveReport(
            converged=True,
            iterations=3,
            residual_sup=1e-12,
            is_constant=False,
            constant_value=None,
            message="converged",
            field=None,
        )
        monkeypatch.setattr(ksl.cli, "newton_solve", lambda lam, q, u0: report)

    @pytest.mark.parametrize(
        "lam, status, code", [("0.5", "fail", 1), ("1.0", "fail", 1), ("3.2", "pass", 0)]
    )
    def test_non_constant_solution_fails_only_in_the_rigidity_regime(
        self, non_constant_solve, lam, status, code, capsys, tmp_path
    ):
        got, rep = run_json(
            ["pde-solve", "--q", "2", "--lambda", lam, "--L", "8"], capsys, tmp_path
        )
        assert got == code
        assert rep["payload"]["pde.converged"] is True
        assert rep["payload"]["pde.is_constant"] is False
        assert rep["payload"]["pde.status"] == status


class TestExitCodes:
    def test_domain_error_is_exit_1_with_verbatim_message(self, capsys, tmp_path):
        code, out, err = run_capture(
            ["constants", "--n", "2", "--q", "9", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "exponent must satisfy q <= (n+1)/(n-1) = 3.0" in err
        # the failure still lands in the written report
        rep = json.loads((tmp_path / "constants.json").read_text())
        assert rep["payload"]["constants.error.status"] == "fail"
        assert "q <= (n+1)/(n-1)" in rep["payload"]["constants.error.message"]

    def test_fixed_k_with_lambda1_below_one_is_exit_1(self, capsys, tmp_path):
        code, rep = run_json(
            ["optimize-k", "--k", "1.0", "--lambda1", "0.5"], capsys, tmp_path
        )
        assert code == 1
        payload = rep["payload"]
        assert payload["optimize-k.error.status"] == "fail"
        assert "lambda1 must be finite and >= 1" in payload["optimize-k.error.message"]
        assert "pass" not in payload.values()

    @pytest.mark.parametrize("command", ["sphere-verify", "pde-solve"])
    def test_band_limit_above_memory_ceiling_is_exit_1(self, command, capsys, tmp_path):
        code, rep = run_json([command, "--L", "100000"], capsys, tmp_path)
        assert code == 1
        payload = rep["payload"]
        assert payload[f"{command}.error.status"] == "fail"
        assert "bytes of quadrature tables" in payload[f"{command}.error.message"]

    def test_bad_flag_is_exit_2(self, capsys):
        assert run(["constants", "--bogus"]) == 2

    def test_missing_subcommand_is_exit_2(self, capsys):
        assert run([]) == 2

    def test_bad_k_value_is_exit_2(self, capsys):
        assert run(["optimize-k", "--k", "sideways"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-k", "--lambda1", "nan"],
            ["optimize-k", "--lambda1", "inf"],
            ["optimize-k", "--q", "nan"],
            ["optimize-k", "--k=-inf"],
            ["pde-solve", "--lambda", "nan", "--L", "8"],
            ["constants", "--q-grid", "1.5,nan"],
            ["constants", "--q-grid", "1.2:inf:3"],
            ["constants", "--q-grid=-1e308:1e308:3"],
        ],
    )
    def test_non_finite_float_is_exit_2_without_report(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_capture([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--q-grid", f"1.2:2.8:{ksl.cli.MAX_GRID_POINTS + 1}"],
            ["all", "--q-grid", "1.2:2.8:1000000000", "--L", "8"],
            ["constants", "--q-grid", ",".join(["2"] * (ksl.cli.MAX_GRID_POINTS + 1))],
        ],
        ids=["just_over", "billion", "comma_list"],
    )
    def test_grid_over_ceiling_is_exit_2_without_report(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_capture([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert "grid must be 'lo:hi:count'" in err
        assert not out.exists()

    def test_grid_at_ceiling_is_accepted(self):
        grid = ksl.cli._parse_grid(f"1.2:2.8:{ksl.cli.MAX_GRID_POINTS}")
        assert len(grid) == ksl.cli.MAX_GRID_POINTS
        assert grid[0] == 1.2 and grid[-1] == pytest.approx(2.8)

    @pytest.mark.parametrize("command", ["sphere-verify", "all"])
    def test_negative_seed_is_exit_2_without_report(self, command, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_capture(
            [command, "--seed", "-1", "--L", "8", "--out", str(out)], capsys
        )
        assert code == 2
        assert "non-negative" in err
        assert not out.exists()


# generated command-line input: typed values (finite or not, huge or tiny),
# malformed text and out-of-range integers; the band limit stays at most 8 so
# that every example is cheap
_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-4, max_value=12).map(repr),
    st.sampled_from(["2", "1.5", "0", "-0", "1e309", "1e-320", "auto", "", "x", "1..2"]),
)
_GRID_TEXT = st.one_of(
    st.builds(
        "{}:{}:{}".format,
        _FLOAT_TEXT,
        _FLOAT_TEXT,
        st.sampled_from(["0", "1", "2", "3", "-2", "10001", "1000000000", "x"]),
    ),
    st.lists(_FLOAT_TEXT, min_size=0, max_size=3).map(",".join),
)
_INT_TEXT = st.one_of(st.integers(-3, 10**6).map(str), st.sampled_from(["1.5", "x", ""]))
_VALUES = {
    "n": _INT_TEXT,
    "q": _FLOAT_TEXT,
    "q-grid": _GRID_TEXT,
    "k": _FLOAT_TEXT,
    "lambda1": _FLOAT_TEXT,
    "lambda": _FLOAT_TEXT,
    "L": st.one_of(st.integers(-2, 8).map(str), st.sampled_from(["x", "8.5"])),
    "seed": _INT_TEXT,
    "format": st.sampled_from(["json", "csv", "xml"]),
}
_SETTINGS = st.dictionaries(st.sampled_from(sorted(_VALUES)), st.none()).flatmap(
    lambda keys: st.fixed_dictionaries({key: _VALUES[key] for key in keys})
)
_CONFIG_LINE = st.one_of(
    _SETTINGS.map(lambda d: [f"{k} = {v}" for k, v in d.items()]),
    st.sampled_from([["# comment"], ["no equals sign"], ["bogus = 1"], [""]]),
)


class TestFuzzedInput:
    @given(
        command=st.sampled_from(ksl.cli._SUBCOMMANDS),
        flags=_SETTINGS,
        config=st.one_of(st.none(), st.lists(_CONFIG_LINE, max_size=3)),
    )
    @settings(
        max_examples=50,
        deadline=timedelta(seconds=20),
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_input_ends_in_an_exit_code_and_a_clean_report(self, command, flags, config):
        """Exit 0, 1 or 2 with no traceback; a non-finite float fails its record."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command]
            for key, value in flags.items():
                argv.append(f"--{key}={value}")
            if config is not None:
                path = Path(tmp) / "run.cfg"
                path.write_text("\n".join(line for lines in config for line in lines))
                argv.append(f"--config={path}")
            argv.append(f"--out={Path(tmp) / 'out'}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2 or not out.getvalue().lstrip().startswith("{"):
            return
        payload = json.loads(out.getvalue())["payload"]
        for key, value in payload.items():
            if isinstance(value, float) and not math.isfinite(value):
                status = payload.get(key.rsplit(".", 1)[0] + ".status")
                assert status == "fail", (argv, key, value)


class TestModuleEntryPoint:
    def test_python_dash_m_prints_version(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "ksl", "--version"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ksl 0.1.0"

    def test_runtime_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every scipy import fail
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import ksl.cli\n"
            "code = ksl.cli.run(['all', '--L', '8', '--out', sys.argv[1]])\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if m.split('.')[0] == 'scipy' and mod is not None]\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []", proc.stderr


class TestConfigFile:
    def test_values_read_and_cli_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nq = 1.8  # inline comment\nseed = 11\n")
        code, rep = run_json(
            ["constants", "--config", str(cfg), "--q", "2.0"], capsys, tmp_path
        )
        assert code == 0
        assert rep["config"]["n"] == 3
        assert rep["config"]["q"] == 2.0
        assert rep["config"]["seed"] == 11

    def test_unknown_key_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp = 9\n")
        code, _, err = run_capture(["constants", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_capture(
            ["constants", "--config", str(tmp_path / "nope.cfg")], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("line", ["lambda = nan", "lambda1 = inf", "q = -inf", "k = nan"])
    def test_non_finite_value_is_exit_2_without_report(self, line, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code, _, err = run_capture(
            ["pde-solve", "--config", str(cfg), "--L", "8", "--out", str(out)], capsys
        )
        assert code == 2
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [ksl.cli.MAX_GRID_POINTS + 1, 10**9])
    def test_grid_over_ceiling_is_exit_2_without_report(self, count, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q-grid = 1.2:2.8:{count}\n")
        out = tmp_path / "out"
        code, _, err = run_capture(
            ["constants", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 2
        assert "grid must be 'lo:hi:count'" in err
        assert not out.exists()

    def test_negative_seed_is_exit_2_without_report(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        out = tmp_path / "out"
        code, _, err = run_capture(
            ["sphere-verify", "--config", str(cfg), "--L", "8", "--out", str(out)], capsys
        )
        assert code == 2
        assert "non-negative" in err
        assert not out.exists()

    def test_lambda_alias(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.7\nL = 8\n")
        code, rep = run_json(["pde-solve", "--config", str(cfg)], capsys, tmp_path)
        assert code == 0
        assert rep["config"]["lambda"] == 0.7
        assert rep["payload"]["pde.constant_value"] == pytest.approx(0.7, abs=1e-8)


class TestOutputRouting:
    def test_env_var_overrides_out_flag(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("KSL_OUT", str(env_dir))
        code, _, _ = run_capture(
            ["constants", "--n", "2", "--q", "2", "--out", str(flag_dir)], capsys
        )
        assert code == 0
        assert (env_dir / "constants.json").exists()
        assert not flag_dir.exists()

    def test_determinism_excluding_timestamp(self, capsys, tmp_path):
        argv = ["sphere-verify", "--L", "8", "--seed", "5", "--out", str(tmp_path)]

        def canonical():
            code, out, _ = run_capture(argv, capsys)
            assert code == 0
            rep = json.loads(out)
            rep.pop("timestamp")
            return json.dumps(rep, sort_keys=True)

        assert canonical() == canonical()

    def test_csv_is_byte_identical_across_runs(self, capsys, tmp_path):
        argv = [
            "interval",
            "--n",
            "3",
            "--q-grid",
            "1.2,1.6",
            "--format",
            "csv",
            "--out",
            str(tmp_path),
        ]
        code, first, _ = run_capture(argv, capsys)
        assert code == 0
        code, second, _ = run_capture(argv, capsys)
        assert code == 0
        assert first == second


class TestAllCommand:
    def test_all_sections_present_and_green(self, capsys, tmp_path):
        code, rep = run_json(["all", "--L", "8"], capsys, tmp_path)
        assert code == 0
        sections = {key.split(".")[0] for key in rep["payload"]}
        assert sections == {
            "constants",
            "interval",
            "optimize_k",
            "algebra",
            "sphere",
            "pde",
        }
        fails = [
            key
            for key, val in rep["payload"].items()
            if key.endswith(".status") and val != "pass"
        ]
        assert fails == []

    def test_failed_stage_keeps_the_others(self, capsys, tmp_path):
        code, out, err = run_capture(["all", "--L", "300", "--out", str(tmp_path)], capsys)
        assert code == 1
        payload = json.loads(out)["payload"]
        sections = {key.split(".")[0] for key in payload}
        assert {"constants", "algebra", "sphere-verify", "pde-solve"} <= sections
        assert "sphere" not in sections and "pde" not in sections
        for command in ("sphere-verify", "pde-solve"):
            assert payload[f"{command}.error.status"] == "fail"
            message = payload[f"{command}.error.message"]
            assert "bytes of quadrature tables" in message
            assert message in err.splitlines()
        statuses = {
            key: val
            for key, val in payload.items()
            if key.endswith(".status") and ".error." not in key
        }
        assert statuses and all(val == "pass" for val in statuses.values())

    def test_grid_built_once_per_run(self, capsys, tmp_path, monkeypatch):
        make_grid = ksl.cli.make_grid
        calls = []

        def counting_make_grid(L, *args):
            calls.append(L)
            return make_grid(L, *args)

        monkeypatch.setattr(ksl.cli, "make_grid", counting_make_grid)
        for expected in (1, 2):
            code, _ = run_json(["all", "--L", "8"], capsys, tmp_path)
            assert code == 0
            # one grid per invocation, and none kept from the invocation before
            assert calls == [8] * expected

"""Command-line behavior: exit codes, formats, config merging, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksl.cli
from ksl.cli import run
from ksl.report import Record, build_report, flatten, payload_bytes, render_csv


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
        ],
    )
    def test_non_finite_float_is_exit_2_without_report(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_capture([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert "finite" in err
        assert not out.exists()


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

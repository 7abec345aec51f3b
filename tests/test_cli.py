"""Command-line behavior: exit codes, formats, config merging, determinism."""

import contextlib
import dataclasses
import hashlib
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
import ksl.constants
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

    @pytest.mark.parametrize("n, q", [("1", "3"), ("2", "2")])
    def test_row_catches_a_wrong_constant(self, n, q, capsys, tmp_path, monkeypatch):
        # c_s is checked against the algebra pillar's exact surd 2C/2
        report = ksl.cli.constants_report
        monkeypatch.setattr(
            ksl.cli,
            "constants_report",
            lambda d: dataclasses.replace(report(d), c_s=report(d).c_s * (1 + 1e-6)),
        )
        code, rep = run_json(["constants", "--n", n, "--q", q], capsys, tmp_path)
        assert code == 1
        assert rep["payload"]["constants.status"] == "fail"
        assert rep["payload"]["constants.residual"] == pytest.approx(1e-6, rel=1e-6)

    def test_row_catches_a_wrong_slack_budget(self, capsys, tmp_path, monkeypatch):
        # epsilon_max is checked against the base chain's exact slack ceiling
        eps = ksl.cli.epsilon_max
        monkeypatch.setattr(ksl.cli, "epsilon_max", lambda d: eps(d) * (1 + 1e-6))
        code, rep = run_json(["constants", "--n", "3", "--q-grid", "1.2,1.5,1.8"], capsys, tmp_path)
        assert code == 1
        assert [rep["payload"][f"constants.{i}.status"] for i in range(3)] == ["fail"] * 3


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

    def test_interval_row_catches_a_wrong_end(self, capsys, tmp_path, monkeypatch):
        k_interval = ksl.cli.k_interval
        monkeypatch.setattr(
            ksl.cli,
            "k_interval",
            lambda d: dataclasses.replace(k_interval(d), k_lo=k_interval(d).k_lo * (1 + 1e-6)),
        )
        code, rep = run_json(["interval", "--n", "2", "--q", "2"], capsys, tmp_path)
        assert code == 1
        assert rep["payload"]["interval.status"] == "fail"
        assert rep["payload"]["interval.residual"] == pytest.approx(1e-6, rel=1e-5)

    @pytest.mark.parametrize("command", ["constants", "interval", "optimize-k"])
    def test_rows_pass_at_the_float_boundary_exponent(self, command, capsys, tmp_path):
        # the float q sits above 5/3, where the exact radicand is about -1e-15
        code, rep = run_json(
            [command, "--n", "4", "--q", "1.6666666666666667"], capsys, tmp_path
        )
        assert code == 0
        section = command.replace("-", "_")
        assert rep["payload"][f"{section}.residual"] <= 1e-14

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

    def test_fixed_k_row_catches_a_wrong_objective(self, capsys, tmp_path, monkeypatch):
        # the threshold, at a fixed k and at the closed-form best k alike, is
        # checked against the algebra pillar's exact objective, not against a
        # second call of the same closed form
        f_of_k = ksl.constants._f_of_k
        monkeypatch.setattr(
            ksl.constants, "_f_of_k", lambda *args: f_of_k(*args) * (1 + 1e-6)
        )
        for k in ("1.0", "auto"):
            code, rep = run_json(
                ["optimize-k", "--n", "2", "--q", "2", "--k", k], capsys, tmp_path
            )
            assert code == 1
            assert rep["payload"]["optimize_k.status"] == "fail"
            assert rep["payload"]["optimize_k.residual"] == pytest.approx(1e-6, rel=1e-6)


# SHA-256 of each closed-form stage's payload, canonical JSON. These stages
# compute in exact fractions and Python floats only, so the digests hold on every
# platform; the grid stages, whose values follow the BLAS, are left out.
CLOSED_FORM_PAYLOAD_SHA256 = {
    "constants --n 1 --q-grid 1.1,2,5,9": (
        "03f8b753909737ac502e57cb370d92ec276000e01b1c5c92b2aeeda514f2cfd8"
    ),
    "interval --n 2 --q-grid 1.2:3:7": (
        "debcf4c5174dbe331c3b6eb49721af74a8b71d29e7080447bbc0da78770ce598"
    ),
    "optimize-k --n 4 --q-grid 1.05:1.66:7 --lambda1 3": (
        "accf91f4e5ae7f6d15417c21d2d7f088210534b7a377052277d8b655a9681534"
    ),
    "optimize-k --n 2 --q 2 --k 1.0": (
        "a0c9fa501ac4ee0c6828fd748323d08fd87fbf0d93ef859467b50497732faf04"
    ),
    # the boundary exponent, where every radicand is exactly zero
    "constants --n 2 --q 3": (
        "fd8555e267e7c57a09aacaaf713ca69b62fc17e78f92759bc9c7df6230e960d6"
    ),
    # up to the boundary exponent 2, where the slack ceiling is exactly 0
    "constants --n 3 --q-grid 1.1:2:4": (
        "d2bd0b74176ddf5de8bcbeeb1213eb62c23c26e703e11a1b8ebb174378e217b2"
    ),
}


@pytest.mark.parametrize("command", sorted(CLOSED_FORM_PAYLOAD_SHA256))
def test_closed_form_payload_is_pinned(command, capsys, tmp_path):
    code, rep = run_json(command.split(), capsys, tmp_path)
    assert code == 0
    canonical = json.dumps(rep["payload"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == CLOSED_FORM_PAYLOAD_SHA256[command]


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

    def test_fixed_k_just_outside_the_interval_is_exit_1(self, capsys, tmp_path):
        # k_hi + 5e-10: the library's feasibility test is the only one, so
        # the k is a domain error, not a row with an infinite residual
        def no_constant(name):
            raise ValueError(f"{name} is not strict JSON")

        argv = ["optimize-k", "--n", "2", "--q", "2", "--k", "3.7320508080688772"]
        code, out, err = run_capture([*argv, "--out", str(tmp_path)], capsys)
        assert code == 1
        payload = json.loads(out, parse_constant=no_constant)["payload"]
        assert payload["optimize-k.error.status"] == "fail"
        assert "outside feasible interval" in payload["optimize-k.error.message"]
        assert "outside feasible interval" in err

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

    @pytest.mark.parametrize("grid", ["1.2,,1.4", "1.2,"], ids=["inner", "trailing"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_grid_entry_is_exit_2_without_report(self, grid, source, capsys, tmp_path):
        out = tmp_path / "out"
        if source == "flag":
            argv = ["constants", "--q-grid", grid]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"q-grid = {grid}\n")
            argv = ["constants", "--config", str(cfg)]
        code, _, err = run_capture([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert "comma-separated finite values" in err
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

    def test_algebra_runs_with_numpy_blocked(self, tmp_path):
        # the exact algebra pillar has no float path, so it needs no numpy
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from ksl.algebra import run_all\n"
            "reports = run_all()\n"
            "print(len(reports), all(r.passed for r in reports), file=sys.stderr)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "12 True", proc.stderr


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


# a valid non-default value per option: (text as written, value in the JSON config)
_NON_DEFAULT = {
    "n": ("3", 3),
    "q": ("1.5", 1.5),
    "q-grid": ("1.2,1.4", [1.2, 1.4]),
    "k": ("1.0", 1.0),
    "lambda1": ("1.5", 1.5),
    "lambda": ("0.3", 0.3),
    "L": ("8", 8),
    "seed": ("5", 5),
    "out": ("elsewhere", "elsewhere"),
    "format": ("csv", "csv"),
}


class TestOptionTable:
    @pytest.fixture
    def echoed(self, monkeypatch):
        """The config each run hands to build_report, as its JSON view."""
        configs = []
        build_report = ksl.cli.build_report

        def capturing(version, config, records):
            configs.append(json.loads(json.dumps(config)))
            return build_report(version, config, records)

        monkeypatch.setattr(ksl.cli, "build_report", capturing)
        return configs

    def test_every_option_has_a_non_default_value_here(self):
        assert set(_NON_DEFAULT) == set(ksl.cli._OPTIONS)
        for flag, (_, value) in _NON_DEFAULT.items():
            assert value != ksl.cli._OPTIONS[flag][1]

    @pytest.mark.parametrize("flag", sorted(_NON_DEFAULT))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_value_reaches_the_config_echo_under_the_flag_name(
        self, flag, source, echoed, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        text, value = _NON_DEFAULT[flag]
        out = [] if flag == "out" else ["--out", "reports"]
        if source == "flag":
            argv = ["constants", f"--{flag}", text, *out]
        else:
            (tmp_path / "run.cfg").write_text(f"{flag} = {text}\n")
            argv = ["constants", "--config", "run.cfg", *out]
        assert run(argv) in (0, 1)
        [config] = echoed
        assert config[flag] == value
        assert config["subcommand"] == "constants"
        assert set(config) == {"subcommand", *ksl.cli._OPTIONS}

    def test_flags_before_the_subcommand(self, capsys, tmp_path):
        code, before = run_json(["--n", "3", "--q", "1.5", "constants"], capsys, tmp_path)
        assert code == 0
        code, after = run_json(["constants", "--n", "3", "--q", "1.5"], capsys, tmp_path)
        assert code == 0
        assert before["config"] == after["config"]
        assert before["config"]["n"] == 3
        assert before["payload"] == after["payload"]

    def test_attribute_spellings_in_a_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q_grid = 1.2,1.4\nlam = 0.3\n")
        code, rep = run_json(["constants", "--config", str(cfg)], capsys, tmp_path)
        assert code == 0
        assert rep["config"]["q-grid"] == [1.2, 1.4]
        assert rep["config"]["lambda"] == 0.3

    def test_subcommand_help_exits_0(self, capsys):
        code, out, _ = run_capture(["constants", "--help"], capsys)
        assert code == 0
        assert out.startswith("usage: ksl")
        assert "--q-grid" in out

    def test_bad_format_is_exit_2_with_the_converter_message(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_capture(["constants", "--format", "xml", "--out", str(out)], capsys)
        assert code == 2
        assert "format must be json or csv, got 'xml'" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("via_env", [False, True])
    def test_output_path_that_is_a_file_is_exit_2(self, via_env, capsys, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["constants", "--n", "2", "--q", "2"]
        if via_env:
            monkeypatch.setenv("KSL_OUT", str(taken))
        else:
            argv += ["--out", str(taken)]
        code, out, err = run_capture(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert taken.read_text() == ""

    def test_output_path_that_is_a_file_is_found_before_any_stage(
        self, capsys, tmp_path, monkeypatch
    ):
        def never(*args):
            pytest.fail("a stage ran before the output path was checked")

        monkeypatch.setattr(ksl.cli, "_STAGES", dict.fromkeys(ksl.cli._STAGES, never))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_capture(["all", "--L", "2", "--out", str(taken)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert taken.read_text() == ""

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

"""Benchmark harness for ksl: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload report_all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn
    python3 bench/run.py --self-test                    # the correctness gate alone

`--trace 0` runs operations back to back (a closed loop, one caller) for
`--seconds` and reports the `end_to_end` metrics of BENCHMARK.json.
`--trace 1` wraps the calls into each ksl layer and reports the `per_layer`
metrics over a fixed census of operations, so counts repeat exactly; each
census operation also runs untraced, alternating which goes first, and the
difference of the two medians is the tracing overhead. Untraced times are
normalised to a reference machine speed by the probe in bench/speed.py. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A result file with provenance goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import os

# pinned before numpy loads OpenBLAS: two threads on this load spread
# measure_lambda1 timings about nine times wider than one
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("KSL_OUT", None)

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

if not (ROOT / "src" / "ksl" / "__init__.py").is_file():
    sys.exit(f"error: no ksl sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from speed import REFERENCE_S, SpeedProbe  # noqa: E402

# a setup probe samples machine speed from before the heavy imports on
SETUP_SPEED = SpeedProbe().start() if "--setup-probe" in sys.argv else None

import compileall  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ksl.report import Record, build_report, render_json  # noqa: E402
from ksl.sphere import SolveReport  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, NewtonCorpus, ReportAll, SphereSpectrum, failed_checks  # noqa: E402

SETUP_PROBES = 5
MAX_FAILURES = 50  # failure messages kept for the result file


# ---------------------------------------------------------------- one operation


def attempt(workload, i: int, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
    """Run the operation on input `i`; never raises.

    Returns (wall seconds, seconds normalised by `probe`, failures); without
    a probe the two times are equal.
    """
    try:
        args = workload.inputs(i)
    except Exception as exc:
        return 0.0, 0.0, [f"inputs raised {exc!r}"]
    if tracer is not None:
        tracer.install()
    mark = probe.mark() if probe is not None else 0
    start = time.perf_counter()
    try:
        result = workload.run(args)
        failures = []
    except Exception as exc:
        failures = [f"raised {exc!r}"]
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    seconds = probe.normalise(wall, mark) if probe is not None else wall
    if failures:
        return wall, seconds, failures
    try:
        bad = failed_checks(workload.checks(args, result))
    except Exception as exc:
        return wall, seconds, [f"checking raised {exc!r}"]
    return wall, seconds, [f"{c.name}: {c.value!r} not {c.kind} {c.limit!r}" for c in bad]


def gate_selftest() -> list[str]:
    """Feed corrupted results through `attempt`; return the cases the gate missed."""

    def fake(base, args, result):
        class Fake(base):
            def inputs(self, i):
                return args

            def run(self, _args):
                if isinstance(result, Exception):
                    raise result
                return result

        return Fake(0)

    solve = dict(converged=True, iterations=5, residual_sup=0.0, is_constant=True, message="", field=None)
    clean = {
        "lambda1": [0.0],
        "z_moment": [0.0],
        "box_self_adjoint": [0.0],
        "transform_roundtrip": [1e-14],
        "gradient_paths": [1e-12],
        "sobolev_margin": [0.08],
    }
    report = render_json(build_report("0", {}, [Record("s", "", {"status": "pass"})]))
    other = render_json(build_report("0", {}, [Record("s", "", {"status": "fail"})]))
    cases = [
        # (label, workload, args, result, failures expected)
        ("clean solve", NewtonCorpus, (0.4, None), SolveReport(constant_value=0.4, **solve), False),
        ("constant off by 1e-6", NewtonCorpus, (0.4, None), SolveReport(constant_value=0.4 + 1e-6, **solve), True),
        ("non-constant solve", NewtonCorpus, (0.9, None), SolveReport(constant_value=None, **{**solve, "is_constant": False}), True),
        ("clean sphere pass", SphereSpectrum, None, clean, False),
        ("lambda1 off by 1e-6", SphereSpectrum, None, {**clean, "lambda1": [0.0, 1e-6]}, True),
        ("roundtrip 1e-3", SphereSpectrum, None, {**clean, "transform_roundtrip": [1e-3]}, True),
        ("NaN gradient gap", SphereSpectrum, None, {**clean, "gradient_paths": [1e-12, float("nan")]}, True),
        ("negative margin", SphereSpectrum, None, {**clean, "sobolev_margin": [0.1, -1e-6]}, True),
        ("exit code 1", ReportAll, [], (1, report), True),
        ("raising operation", SphereSpectrum, None, ArithmeticError("corrupted"), True),
    ]
    missed = []
    for label, base, args, result, expect_failure in cases:
        failures = attempt(fake(base, args, result), 0)[2]
        if bool(failures) != expect_failure:
            missed.append(label)
    # a payload that changes between two reports of one run
    drifting = fake(ReportAll, [], (0, report))
    first = attempt(drifting, 0)[2]
    drifting.run = lambda _args: (0, other)
    if first or not attempt(drifting, 1)[2]:
        missed.append("payload drift")
    return missed


# ---------------------------------------------------------------- statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of p99, p95, p90, p75 with ten samples beyond it.

    A fixed ladder keeps the percentile the same while the sample count
    moves with machine load. Below 40 samples no rung qualifies and the
    median stands in, so the tail never reads below it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.0, 95.0, 90.0, 75.0):
        k = math.ceil(pct * n / 100.0) - 1  # nearest rank
        if n - 1 - k >= 10:
            return ordered[k], pct
    return statistics.median(ordered), 50.0


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, normalised) seconds from spawning a fresh interpreter to the first operation."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    word, *fields = line.split()
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    # the child sampled its own speed while it imported and built grids
    speed, spent = map(float, fields)
    return wall, (wall - spent) * REFERENCE_S * speed


# ---------------------------------------------------------------- runs


def run_untraced(workload, seconds: float) -> dict:
    """Whole passes of operations: at least two, more while the next should end within `seconds`."""
    walls, times, failures, failed_ops = [], [], [], 0
    with SpeedProbe() as probe:
        start = time.perf_counter()
        i, last_pass = 0, 0.0
        while i < 2 * workload.pass_size or time.perf_counter() - start + last_pass <= seconds:
            pass_start = time.perf_counter()
            for _ in range(workload.pass_size):
                wall, normalised, bad = attempt(workload, i, probe=probe)
                walls.append(wall)
                times.append(normalised)
                failed_ops += bool(bad)
                failures += [f"op {i}: {b}" for b in bad][: MAX_FAILURES - len(failures)]
                i += 1
            last_pass = time.perf_counter() - pass_start
        elapsed = time.perf_counter() - start
    return {"walls": walls, "times": times, "wall": elapsed, "speed_samples": len(probe.samples), "failed_ops": failed_ops, "failures": failures}


def run_traced(workload, seconds: float, tracer: Tracer) -> dict:
    """Census operations traced and untraced in alternating order, then more pairs until `seconds`."""
    traced, untraced = [], []
    # warm-up: lazy state in ksl and its libraries fills before the pairs
    warmup, _, bad = attempt(workload, 0)
    failures, failed_ops = [f"warm-up: {b}" for b in bad], int(bool(bad))
    start = time.perf_counter()
    i = 0
    while i < workload.census or time.perf_counter() - start < seconds:
        tracer.op = i
        for with_trace in (True, False) if i % 2 == 0 else (False, True):
            took, _, bad = attempt(workload, i, tracer if with_trace else None)
            (traced if with_trace else untraced).append(took)
            failed_ops += bool(bad)
            failures += [f"op {i} ({'traced' if with_trace else 'untraced'}): {b}" for b in bad][: MAX_FAILURES - len(failures)]
        i += 1
    return {"warmup": warmup, "traced": traced, "untraced": untraced, "pairs": i, "failed_ops": failed_ops, "failures": failures}


def layer_metrics(totals: dict, counts: dict, names: list[str], overhead: float) -> dict:
    """Every per-layer metric: `<span>.calls|s|self_s[.L<n>]`, else a count."""
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead
            continue
        base, _, tag = name.rpartition(".")
        if not (tag.startswith("L") and tag[1:].isdigit()):
            base, tag = name, ""
        span, _, stat = base.rpartition(".")
        if stat in ("calls", "s", "self_s"):
            values[name] = sum(
                row[stat] for (n, t), row in totals.items() if n == span and tag in ("", t)
            )
        else:
            values[name] = counts.get(name, 0)
    return values


# ---------------------------------------------------------------- provenance


def _blas() -> dict:
    info = {}
    site = Path(np.__file__).resolve().parent.parent
    for owner, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ):
        config = (np if owner == "numpy" else scipy).__config__.CONFIG["Build Dependencies"]["blas"]
        entry = {"name": config.get("name"), "version": config.get("version"), "threads": None}
        for path in glob.glob(str(site / pattern)):
            getter = getattr(ctypes.CDLL(path), symbol, None)
            if getter is not None:
                entry["threads"] = getter()
        info[owner] = entry
    info["OPENBLAS_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"]
    return info


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------- entry


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_result(workload: str, metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {workload:<16} {name:<44} {value!r} {units[name]}{note}")


def bench_one(args) -> int:
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    missed = gate_selftest()
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workload = WORKLOADS[args.workload](args.seed)
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    notes = {}

    if args.trace:
        tracer = Tracer()
        tracer.op = "setup"
        workload.setup(tracer)
        run = run_traced(workload, args.seconds, tracer)
        overhead = statistics.median(run["traced"]) - statistics.median(run["untraced"])
        census = ["setup", *range(workload.census)]
        totals = tracer.layer_totals(census)
        metrics = layer_metrics(totals, tracer.count_totals(census), list(units), overhead)
        attempted = 1 + len(run["traced"]) + len(run["untraced"])
        info.update(
            census=workload.census,
            pairs=run["pairs"],
            warmup_s=run["warmup"],
            traced_op_s_p50=statistics.median(run["traced"]),
            untraced_op_s_p50=statistics.median(run["untraced"]),
            layers={f"{name}{'.' + tag if tag else ''}": row for (name, tag), row in sorted(totals.items())},
        )
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        workload.setup()
        run = run_untraced(workload, args.seconds)
        times = run["times"]
        attempted = len(times)
        tail_value, tail_pct = tail(times)
        fail_ratio = run["failed_ops"] / attempted
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "ops_per_s": attempted / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - fail_ratio,
        }
        metrics = {name: metrics[name] for name in units}
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes; wall median {statistics.median(w for w, _ in setups):.4f}",
            "ops_per_s": f"wall {attempted / run['wall']:.4f}",
            "op_s.p50": f"{attempted} samples; wall median {statistics.median(run['walls']):.4f}",
            "op_s.tail": f"p{tail_pct:.1f} of {attempted} samples",
            "ok_ratio": f"fail_ratio {fail_ratio!r}",
        }
        info.update(
            setup_samples=setups,
            op_samples=times,
            op_wall_samples=run["walls"],
            wall_s=run["wall"],
            speed_samples=run["speed_samples"],
            tail_percentile=tail_pct,
            fail_ratio=fail_ratio,
        )

    failed = run["failed_ops"]
    correct = failed == 0 and not missed
    info.update(gate_selftest_missed=missed, failures=run["failures"])
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": provenance(args.seed), "run": info, "result": result}, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  attempted {attempted}  failed {failed}")
    _print_result(args.workload, metrics, units, notes)
    for line in run["failures"][:10]:
        print(f"  FAILED {line}")
    if missed:
        print(f"  gate self-test missed: {', '.join(missed)}")
    print(f"  result file {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def bench_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true", help="check the correctness gate and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if args.self_test:
        missed = gate_selftest()
        print("gate self-test: " + (f"missed {', '.join(missed)}" if missed else "every corrupted result counted"))
        return 1 if missed else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).setup()
        SETUP_SPEED.stop()
        print(f"ready {SETUP_SPEED.speed()!r} {sum(SETUP_SPEED.samples)!r}", flush=True)
        return 0
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        return bench_all(args)
    return bench_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark harness under bench/, which they leave untouched.

`--trace 1` depends on bench/tracing.py finding every name it wraps, so a
refactor that renames or removes one breaks the benchmark, not the suite;
these tests make it break the suite too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    tracer = _tracer(monkeypatch)
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        assert all(_current(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert not tracer._patched
    assert all(_current(owner, attr) is original for owner, attr, original in patched)


def test_traced_matvecs_are_the_inner_iterations(monkeypatch):
    # one operator product per GMRES inner iteration, counted through the
    # tracer's operator wrapper as `--trace 1` counts it
    import ksl.sphere

    tracer = _tracer(monkeypatch)
    u0 = ksl.sphere.random_positive_field(ksl.sphere.make_grid(16), seed=22)
    try:
        tracer.install()
        rep = ksl.sphere.newton_solve(0.9, 2.0, u0)
    finally:
        tracer.uninstall()
    assert rep.converged and rep.trace, rep.message
    counts = tracer.count_totals([None])
    assert counts["sphere.pde.matvecs"] == sum(s.inner_iterations for s in rep.trace)
    assert counts["sphere.pde.newton_iterations"] == rep.iterations


def test_gate_self_test_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--self-test"],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

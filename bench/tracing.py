"""In-memory spans and counts, recorded around calls into ksl from outside.

Nothing in ksl is edited. A `Tracer` replaces a function on the object the
caller looks it up on (a module global such as `ksl.cli.optimize_k`, or a
class attribute such as `QuadratureGrid.synthesis`) with a wrapper that
records one span per call, and puts the original back on `uninstall`.

A span is (name, tag, op, parent, start, end): `tag` splits a layer by band
limit (`L16`), `op` is the operation id the runner set, `parent` is the index
of the enclosing span. Spans stay in a list until the run ends. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import ksl.algebra.checks
import ksl.cli
import ksl.report
import ksl.sphere
import ksl.sphere.pde
from ksl.sphere import QuadratureGrid
from scipy.sparse.linalg import LinearOperator

# one span per verifier, named after the function
VERIFIERS = sorted(name for name in dir(ksl.algebra.checks) if name.startswith("verify_"))

# closed forms the CLI calls directly; optimize_k is traced on its own
CLOSED_FORMS = ("base_threshold", "constants_report", "f_of_k", "k_interval", "riemannian_constants")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, op, parent, start, end]
        self.counts: dict = defaultdict(Counter)  # op -> Counter of count names
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, tag, self.op, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    # patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def _timed(self, name: str, tag_of=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, tag_of(*args) if tag_of else ""):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every traced name; `uninstall` restores the originals."""
        by_grid = lambda grid, *_: f"L{grid.L}"  # noqa: E731
        by_self = lambda self_, *_: f"L{self_.L}"  # noqa: E731
        by_field = lambda u, *_: f"L{u.grid.L}"  # noqa: E731
        # lam, q, u0: the band limit comes from the start field
        by_start = lambda lam, q, u0, *_: f"L{u0.grid.L}"  # noqa: E731

        # constants
        self._patch(ksl.cli, "optimize_k", self._timed("constants.optimize_k"))
        for name in CLOSED_FORMS:
            self._patch(ksl.cli, name, self._timed("constants.closed_forms"))

        # algebra
        def algebra_sizes(reports):
            self.count("algebra.steps", sum(len(r.steps) for r in reports))
            self.count("algebra.instantiations", sum(len(r.instantiations) for r in reports))

        self._patch(ksl.cli, "run_all", self._timed("algebra.run_all", after=algebra_sizes))
        for name in VERIFIERS:
            self._patch(ksl.algebra.checks, name, self._timed(f"algebra.{name}"))
        self._patch(ksl.algebra.checks, "rf_at_radexpr", self._timed("algebra.ring.rf_at_radexpr"))

        # sphere.grid, at class level so every caller is seen
        for name in ("synthesis", "analysis", "synth_gradient"):
            self._patch(QuadratureGrid, name, self._timed(f"sphere.grid.{name}", by_self))
        self._patch(ksl.cli, "make_grid", self._timed("sphere.grid.make_grid", lambda L, *_: f"L{L}"))

        # sphere.ops, where the CLI and the benchmark look them up
        for owner in (ksl.cli, ksl.sphere):
            self._patch(owner, "measure_lambda1", self._timed("sphere.ops.measure_lambda1", by_grid))
            self._patch(owner, "sobolev_check", self._timed("sphere.ops.sobolev_check", by_field))

        # sphere.pde
        def newton_iterations(report, *_):
            self.count("sphere.pde.newton_iterations", report.iterations)

        for owner in (ksl.cli, ksl.sphere):
            self._patch(
                owner,
                "newton_solve",
                self._timed("sphere.pde.newton_solve", by_start, after=newton_iterations),
            )
        self._patch(ksl.sphere.pde, "gmres", self._counted_gmres)

        # report and cli
        def payload_size(_text, report):
            self.count("report.payload_bytes", len(ksl.report.payload_bytes(report)))

        self._patch(ksl.cli, "render_json", self._timed("report.render_json", after=payload_size))
        self._patch(ksl.cli, "run", self._timed("cli.run"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted_gmres(self, gmres):
        """GMRES span; the operator is wrapped so each matvec is counted."""

        def wrapper(A, b, *args, **kwargs):
            inner = A.matvec

            def matvec(x):
                self.count("sphere.pde.matvecs")
                return inner(x)

            counted = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            with self.span("sphere.pde.gmres"):
                return gmres(counted, b, *args, **kwargs)

        return wrapper

    # aggregation -----------------------------------------------------------

    def layer_totals(self, ops) -> dict:
        """Per (name, tag): calls, inclusive seconds and self seconds over `ops`."""
        ops = set(ops)
        child_time = [0.0] * len(self.spans)
        for name, tag, op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, tag, op, parent, start, end) in enumerate(self.spans):
            if op not in ops:
                continue
            row = totals[(name, tag)]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return totals

    def count_totals(self, ops) -> Counter:
        total: Counter = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def dump(self) -> dict:
        return {
            "fields": ["name", "tag", "op", "parent", "start", "end"],
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }

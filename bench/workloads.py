"""The three benchmark workloads and the per-operation correctness gate.

A workload builds its grids once in `setup`, makes the inputs of operation
`i` from the workload seed alone (`inputs`), runs the program on them (`run`,
the timed part) and turns the result into `Check`s against the acceptance
tolerances (`checks`). The program sees only the generated inputs, never the
workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

import numpy as np

import ksl.cli
import ksl.sphere as sphere
from ksl.report import Report, payload_bytes

# Newton start fields are drawn from the seeds of acceptance criterion 10,
# which the package promises to solve. Starts outside it can fail (see
# bench/README.md), and a failed operation is a defect, not a workload.
START_POOL = 20


@dataclass(frozen=True)
class Check:
    """One acceptance test: `value < limit`, `value >= limit` or `value == limit`."""

    name: str
    value: object
    limit: object
    kind: str = "<"

    @property
    def ok(self) -> bool:
        if self.kind == "<":
            return bool(self.value < self.limit)
        if self.kind == ">=":
            return bool(self.value >= self.limit)
        return self.value == self.limit


def failed_checks(checks: list[Check]) -> list[Check]:
    return [c for c in checks if not c.ok]


class Workload:
    name = ""
    band_limits: tuple[int, ...] = ()
    census = 1  # operations whose spans give the per-layer metrics
    pass_size = 1  # a run is whole passes of this many operations

    def __init__(self, seed: int):
        self.seed = seed
        self.grids: dict[int, sphere.QuadratureGrid] = {}

    def setup(self, tracer=None) -> None:
        """Grids and their oversampled tables for every band limit used."""
        for L in self.band_limits:
            span = tracer.span("sphere.grid.make_grid", f"L{L}") if tracer else contextlib.nullcontext()
            with span:
                grid = sphere.make_grid(L)
                grid.over  # builds the oversampled tables now
            self.grids[L] = grid

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, args):
        raise NotImplementedError

    def checks(self, args, result) -> list[Check]:
        raise NotImplementedError


class ReportAll(Workload):
    """`ksl all` in-process: constants, interval, optimize-k, algebra, sphere, pde."""

    name = "report_all"
    band_limits = (16,)
    census = 2
    # relative to the checkout root, so the report payload is the same in every checkout
    out_dir = "bench/results/report_all.out"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.report_seed = random.Random(seed).randrange(START_POOL)
        self.first_digest = None

    def inputs(self, i: int):
        return [
            "all", "--n", "2", "--q-grid", "1.2:2.8:5",
            "--seed", str(self.report_seed), "--out", self.out_dir,
        ]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ksl.cli.run(argv)
        return code, out.getvalue()

    def checks(self, argv, result):
        code, text = result
        body = json.loads(text)
        digest = hashlib.sha256(payload_bytes(Report(**body))).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        return [
            Check("exit_code", code, 0, "=="),
            Check("payload_sha256", digest, self.first_digest, "=="),
        ]


class NewtonCorpus(Workload):
    """Newton solves at L=16 from seeded random starts, lam cycling 0.4, 0.9."""

    name = "newton_corpus"
    band_limits = (16,)
    lams = (0.4, 0.9)
    census = 12
    pass_size = START_POOL

    def __init__(self, seed: int):
        # each pass solves every start once, in an order drawn from the seed,
        # so each start weighs the same in every run; lam alternates with it
        super().__init__(seed)
        self.order = random.Random(seed).sample(range(START_POOL), START_POOL)

    def inputs(self, i: int):
        start = self.order[i % START_POOL]
        return self.lams[start % 2], sphere.random_positive_field(self.grids[16], start)

    def run(self, args):
        lam, u0 = args
        return sphere.newton_solve(lam, 2.0, u0)

    def checks(self, args, rep):
        lam, _ = args
        offset = abs(rep.constant_value - lam) if rep.constant_value is not None else float("inf")
        return [
            Check("newton_converged", rep.converged, True, "=="),
            Check("newton_constant", rep.is_constant, True, "=="),
            Check("newton_offset", offset, 1e-8),
        ]


class SphereSpectrum(Workload):
    """sphere-verify checks at L=16, 24, 32 plus a 100-trial corpus at L=64."""

    name = "sphere_spectrum"
    band_limits = (16, 24, 32, 64)
    census = 6
    verify_limits = (16, 24, 32)
    corpus_limit = 64
    corpus_trials = 100

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        draws = rng.integers(0, 2**31, size=len(self.verify_limits) + self.corpus_trials)
        return [int(d) for d in draws]

    def run(self, seeds):
        residuals: dict[str, list[float]] = {}

        def record(name, value):
            residuals.setdefault(name, []).append(float(value))

        for L, seed in zip(self.verify_limits, seeds):
            grid = self.grids[L]
            record("lambda1", abs(sphere.measure_lambda1(grid) - 1.0))
            z = sphere.coordinate_z(grid)
            record("z_moment", abs(sphere.avg_square(z) - 1.0 / 3.0))
            f = sphere.random_band_limited(grid, seed)
            g = sphere.random_band_limited(grid, seed + 1)
            lhs = grid.integrate(sphere.box_op(f).values * g.values)
            rhs = grid.integrate(f.values * sphere.box_op(g).values)
            record("box_self_adjoint", abs(lhs - rhs))
            self._field_checks(record, grid, f)
            trial = sphere.SphereField.constant(grid, 1.0) + z
            record("sobolev_margin", sphere.sobolev_check(trial, 2.0, 0.5, trial="1+z").margin)

        grid = self.grids[self.corpus_limit]
        for seed in seeds[len(self.verify_limits):]:
            f = sphere.random_band_limited(grid, seed)
            record("sobolev_margin", sphere.sobolev_check(f, 2.0, 0.5).margin)
            self._field_checks(record, grid, f)
        return residuals

    @staticmethod
    def _field_checks(record, grid, f):
        roundtrip = np.max(np.abs(grid.synthesis(grid.analysis(f.values)) - f.values))
        record("transform_roundtrip", roundtrip)
        gap = sphere.grad_energy(f, "spectral") - sphere.grad_energy(f, "quadrature")
        record("gradient_paths", abs(gap))

    def checks(self, seeds, residuals):
        # np.max / np.min propagate NaN, which then fails its check
        worst = {name: float(np.max(values)) for name, values in residuals.items()}
        return [
            Check("lambda1", worst["lambda1"], 1e-8),
            Check("z_moment", worst["z_moment"], 1e-10),
            Check("box_self_adjoint", worst["box_self_adjoint"], 1e-10),
            Check("transform_roundtrip", worst["transform_roundtrip"], 1e-10),
            Check("gradient_paths", worst["gradient_paths"], 1e-9),
            Check("sobolev_margin", float(np.min(residuals["sobolev_margin"])), -1e-9, ">="),
        ]


WORKLOADS = {w.name: w for w in (ReportAll, NewtonCorpus, SphereSpectrum)}

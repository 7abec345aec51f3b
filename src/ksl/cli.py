"""Command-line surface.

Subcommands:
    constants       closed-form constants at (n, q), optionally over a q grid
    interval        feasible k interval endpoints and their product
    optimize-k      threshold at the closed-form best k (or at a fixed k)
    algebra-verify  run every exact derivation verifier
    sphere-verify   quadrature, transform, and inequality checks on the sphere
    pde-solve       Newton solve of -box u + lambda u = u^q from a random start
    all             everything above in one report

Every option is one `_OPTIONS` entry, from which the parser, the config-file
reader, the defaults, the `RunConfig` attributes and the report's `config`
echo are all derived. Flags may go on either side of the subcommand. They can
also come from a config file (key = value per line, '#' starts a comment)
whose keys are the flag names; explicit flags win. Every float option, from
either source, must be a finite number. The KSL_OUT environment variable
overrides the output directory. Exit status: 0 when every invoked check
passes, 1 on a failed check or a domain error (reported verbatim on stderr),
2 on bad usage. An output directory that cannot be made is bad usage too,
found before any stage runs. A domain error replaces only the records of the
stage that raised it, so under `all` the other stages still report.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .algebra import RadExpr, run_all
# the algebra pillar's exact forms, the closed-form rows' second computation:
# 2C, the slack ceiling, the k interval's ends, and the refined chain's
# objective (weight, rest)
from .algebra.checks import _eps_max, _hi_end, _lo_end, _objective, _two_c
from .constants import (
    Dimensions,
    _boundary_zero,
    base_threshold,
    constants_report,
    epsilon_max,
    f_of_k,
    k_interval,
    optimize_k,
    riemannian_constants,
)
from .errors import DomainError
from .report import Record, build_report, render_csv, render_json
from .sphere import (
    QuadratureGrid,
    SphereField,
    avg_square,
    box_op,
    coordinate_z,
    grad_energy,
    make_grid,
    measure_lambda1,
    newton_solve,
    random_band_limited,
    random_positive_field,
    sobolev_check,
)

# first nonzero eigenvalue of -box (half the Laplace-Beltrami operator) on
# the unit 2-sphere: l(l + 1)/2 at l = 1
SPHERE_LAMBDA1 = 1.0

# most values a q grid may hold, checked before any value is built
MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- options


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
        if value < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _parse_k(text: str):
    s = text.strip()
    if s == "auto":
        return "auto"
    try:
        return _finite_float(s)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"k must be a finite number or 'auto', got {text!r}")


def _parse_grid(text: str) -> tuple[float, ...]:
    s = text.strip()
    try:
        if ":" in s:
            lo_s, hi_s, count_s = s.split(":")
            lo, hi, count = _finite_float(lo_s), _finite_float(hi_s), int(count_s)
            if not 2 <= count <= MAX_GRID_POINTS or not hi > lo:
                raise ValueError
            step = (hi - lo) / (count - 1)
            # finite ends can still lie too far apart for a finite step
            if not math.isfinite(step):
                raise ValueError
            return tuple(lo + i * step for i in range(count))
        # an empty entry is no value: float("") fails, so it is bad usage
        parts = s.split(",")
        if not 1 <= len(parts) <= MAX_GRID_POINTS:
            raise ValueError
        return tuple(_finite_float(p) for p in parts)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"grid must be 'lo:hi:count' or comma-separated finite values, got {text!r}"
        )


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise argparse.ArgumentTypeError(f"format must be json or csv, got {text!r}")
    return text


# flag -> (converter, default, help). The RunConfig attribute is the flag with
# '_' for '-', except for --lambda, a Python keyword, whose attribute is `lam`.
_OPTIONS = {
    "n": (int, 2, "complex dimension"),
    "q": (_finite_float, 2.0, "exponent"),
    "q-grid": (
        _parse_grid,
        None,
        f"exponent grid, 'lo:hi:count' or comma list, at most {MAX_GRID_POINTS} "
        "values; overrides --q for constants, interval and optimize-k only "
        "(pde-solve runs at --q, sphere-verify at q = 2)",
    ),
    "k": (_parse_k, "auto", "interpolation weight, number or 'auto'"),
    "lambda1": (_finite_float, 1.0, "spectral gap"),
    "lambda": (_finite_float, 0.5, "equation parameter"),
    "L": (int, 16, "band limit"),
    "seed": (_seed, 0, "random seed"),
    "out": (str, "reports", "output directory; KSL_OUT overrides it"),
    "format": (_format, "json", "report format, json or csv"),
}


def _attr(flag: str) -> str:
    return "lam" if flag == "lambda" else flag.replace("-", "_")


class RunConfig(SimpleNamespace):
    """The subcommand and one attribute per `_OPTIONS` entry, named by `_attr`."""

    @property
    def q_values(self) -> list[float]:
        return list(self.q_grid) if self.q_grid else [self.q]

    def echo(self) -> dict:
        return {
            "subcommand": self.subcommand,
            **{flag: getattr(self, _attr(flag)) for flag in _OPTIONS},
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksl", description="Sobolev constants, derivation checks, sphere experiments."
    )
    parser.add_argument("--version", action="version", version=f"ksl {__version__}")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    for flag, (convert, default, text) in _OPTIONS.items():
        # no parser default: an unset flag is None, so a config file can fill it
        if default is not None:
            text = f"{text} (default {default})"
        parser.add_argument(f"--{flag}", dest=flag, type=convert, help=text)
    parser.add_argument("--config", help="config file, key = value per line")
    return parser


def _read_config_file(path: str) -> dict:
    """Values by flag; a key is a flag name or its RunConfig attribute name."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    flags = {name: flag for flag in _OPTIONS for name in (flag, _attr(flag))}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        flag = flags.get(key.strip())
        if flag is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        try:
            values[flag] = _OPTIONS[flag][0](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}")
    return values


def _effective_config(ns: argparse.Namespace) -> RunConfig:
    values = {flag: default for flag, (_, default, _) in _OPTIONS.items()}
    if ns.config:
        values.update(_read_config_file(ns.config))
    for flag in _OPTIONS:
        if getattr(ns, flag) is not None:
            values[flag] = getattr(ns, flag)
    values["out"] = os.environ.get("KSL_OUT") or values["out"]
    return RunConfig(subcommand=ns.subcommand, **{_attr(flag): v for flag, v in values.items()})


# ---------------------------------------------------------------- handlers


def _checked(section: str, label: str, fields: dict, residual: float, tol: float) -> Record:
    status = "pass" if residual < tol else "fail"
    return Record(section, label, {**fields, "residual": residual, "status": status})


def _per_q(section: str, tol: float, row):
    """A stage with one checked record per q value, from `row(cfg, dims)`.

    `row` returns the record's fields after n and q, and its residual. On a
    q grid the records are labelled by index, otherwise they are unlabelled.
    """

    def stage(cfg: RunConfig) -> list[Record]:
        qs = cfg.q_values
        recs = []
        for i, qv in enumerate(qs):
            fields, residual = row(cfg, Dimensions(cfg.n, qv))
            label = "" if len(qs) == 1 else str(i)
            recs.append(_checked(section, label, {"n": cfg.n, "q": qv, **fields}, residual, tol))
        return recs

    return stage


def _surd(expr: RadExpr, dims: Dimensions) -> float:
    """base + coef*sqrt(rad) at (n, q), exact but for one float square root.

    A negative radicand at the boundary exponent is snapped to 0 by the
    closed forms' own rule, `_boundary_zero`.
    """
    pt = {"n": Fraction(dims.n), "q": Fraction(dims.q)}
    root = Fraction(math.sqrt(_boundary_zero(dims, expr.rad.evaluate(pt))))
    return float(expr.base.evaluate(pt) + expr.coef.evaluate(pt) * root)


def _gap(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _constants_row(cfg: RunConfig, dims: Dimensions) -> tuple[dict, float]:
    """c_s against C, and at n >= 2 the rigidity threshold against 1/(2C) and
    the slack budget against the base chain's ceiling.

    The ceiling is exactly 0 at the boundary exponent, where the float surd
    keeps an ulp-sized remainder, so its gap is taken relative to its
    rational part, which is positive on the whole domain.
    """
    rep = constants_report(dims)
    raw, _ = riemannian_constants(dims)
    fields = {
        "c_s": rep.c_s,
        "c_riem_raw": raw,
        "c_riem_bridged": rep.c_riem_bridged,
        "c_conj": rep.c_conj,
        "lambda1_lower": rep.lambda1_lower,
    }
    two_c = _surd(_two_c, dims)
    gaps = [_gap(rep.c_s, two_c / 2)]
    if dims.n >= 2:
        fields["threshold"] = base_threshold(dims)
        gaps.append(_gap(fields["threshold"], 1.0 / two_c))
        fields["epsilon_max"] = epsilon_max(dims)
        base = _eps_max.base.evaluate({"n": Fraction(dims.n), "q": Fraction(dims.q)})
        gaps.append(abs(fields["epsilon_max"] - _surd(_eps_max, dims)) / abs(float(base)))
    return fields, max(gaps)


def _interval_row(cfg: RunConfig, dims: Dimensions) -> tuple[dict, float]:
    ki = k_interval(dims)
    product = ki.k_lo * ki.k_hi
    fields = {"k_lo": ki.k_lo, "k_hi": ki.k_hi, "product": product}
    gap_lo = _gap(ki.k_lo, _surd(_lo_end, dims))
    gap_hi = _gap(ki.k_hi, _surd(_hi_end, dims))
    return fields, max(abs(product - 1.0), gap_lo, gap_hi)


def _optimize_k_row(cfg: RunConfig, dims: Dimensions) -> tuple[dict, float]:
    """The threshold at k* against the refined chain's objective.

    k* is optimize_k's closed-form maximizer with `--k auto`, else the given
    k. The objective weight*lam1 + rest is evaluated exactly at the float
    inputs, and the residual is the threshold's relative gap from it.
    """
    ki = k_interval(dims)
    if cfg.k == "auto":
        k_star, threshold = optimize_k(dims, cfg.lambda1)
    else:
        k_star = float(cfg.k)
        threshold = f_of_k(dims, k_star, cfg.lambda1)
    weight, rest = _objective
    pt = {"k": Fraction(k_star), "q": Fraction(dims.q), "n": Fraction(dims.n)}
    exact = weight.evaluate(pt) * Fraction(cfg.lambda1) + rest.evaluate(pt)
    agree = float(abs(Fraction(threshold) - exact) / exact)
    fields = {
        "lambda1": cfg.lambda1,
        "k_lo": ki.k_lo,
        "k_hi": ki.k_hi,
        "k_star": k_star,
        "threshold": threshold,
    }
    return fields, agree


def _cmd_algebra_verify(cfg: RunConfig) -> list[Record]:
    recs = []
    seen: dict[str, int] = {}
    for rep in run_all():
        seen[rep.name] = seen.get(rep.name, 0) + 1
        label = rep.name if seen[rep.name] == 1 else f"{rep.name}_{seen[rep.name]}"
        samples_agree = all(inst["agree"] for inst in rep.instantiations)
        recs.append(
            Record(
                "algebra",
                label,
                {
                    "status": "pass" if rep.passed else "fail",
                    "steps": len(rep.steps),
                    "instantiations": len(rep.instantiations),
                    "samples_agree": samples_agree,
                },
            )
        )
        for step in rep.steps:
            fields = {"status": "pass" if step.ok else "fail", "residual": step.residual}
            if step.note:
                fields["note"] = step.note
            recs.append(Record("algebra", f"{label}.{step.name}", fields))
    return recs


def _cmd_sphere_verify(cfg: RunConfig, grid: QuadratureGrid) -> list[Record]:
    recs = []

    lam1 = measure_lambda1(grid)
    recs.append(
        _checked("sphere", "lambda1", {"value": lam1}, abs(lam1 - SPHERE_LAMBDA1), 1e-8)
    )

    z = coordinate_z(grid)
    moment = avg_square(z)
    recs.append(
        _checked("sphere", "z_moment", {"value": moment}, abs(moment - 1.0 / 3.0), 1e-10)
    )

    f = random_band_limited(grid, cfg.seed)
    g = random_band_limited(grid, cfg.seed + 1)
    lhs = grid.integrate(box_op(f).values * g.values)
    rhs = grid.integrate(f.values * box_op(g).values)
    recs.append(
        _checked("sphere", "box_self_adjoint", {"lhs": lhs, "rhs": rhs}, abs(lhs - rhs), 1e-10)
    )

    roundtrip = float(np.max(np.abs(grid.synthesis(grid.analysis(f.values)) - f.values)))
    recs.append(_checked("sphere", "transform_roundtrip", {}, roundtrip, 1e-10))

    gap = abs(grad_energy(f, "spectral") - grad_energy(f, "quadrature"))
    recs.append(_checked("sphere", "gradient_paths", {}, gap, 1e-9))

    trial = SphereField.constant(grid, 1.0) + z
    ineq = sobolev_check(trial, 2.0, 0.5, trial="1+z")
    recs.append(
        Record(
            "sphere",
            "sobolev_sample",
            {
                "lhs": ineq.lhs,
                "rhs": ineq.rhs,
                "margin": ineq.margin,
                "constant": ineq.constant,
                "q": ineq.q,
                "status": "pass" if ineq.margin >= -1e-9 else "fail",
            },
        )
    )
    return recs


def _cmd_pde_solve(cfg: RunConfig, grid: QuadratureGrid) -> list[Record]:
    u0 = random_positive_field(grid, cfg.seed)
    rep = newton_solve(cfg.lam, cfg.q, u0)
    # rigidity: at (q - 1) lam <= lambda_1 every positive solution is constant
    # (Bidaut-Veron & Veron 1991), so there a non-constant one fails the stage
    rigid = (cfg.q - 1) * cfg.lam <= SPHERE_LAMBDA1
    # the one positive constant solution; the residual tolerance is absolute,
    # so a constant elsewhere is the trivial solution u = 0 (inf where the
    # positive constant overflows the float range)
    with np.errstate(over="ignore"):
        positive = float(np.float64(cfg.lam) ** (1.0 / (cfg.q - 1.0)))
    const = rep.constant_value
    at_positive = (
        const is not None
        and 0.0 < positive < math.inf
        and abs(const - positive) <= 1e-8 * positive
    )
    ok = rep.converged and (at_positive if rep.is_constant else not rigid)
    if const is not None and rep.converged and not at_positive:
        summary = (
            f"trivial solution: constant {const:.6f}, not the positive constant "
            f"lambda^(1/(q - 1)) = {positive:.6f}"
        )
    elif const is not None:
        summary = f"constant solution {const:.6f}"
    elif rep.converged and not ok:
        summary = "non-constant solution where (q - 1) lambda <= lambda_1 forces a constant"
    else:
        summary = rep.message
    return [
        Record(
            "pde",
            "",
            {
                "lambda": cfg.lam,
                "q": cfg.q,
                "L": cfg.L,
                "seed": cfg.seed,
                "converged": rep.converged,
                "iterations": rep.iterations,
                "residual_sup": rep.residual_sup,
                "is_constant": rep.is_constant,
                "constant_value": rep.constant_value,
                "summary": summary,
                "status": "pass" if ok else "fail",
            },
        )
    ]


_STAGES = {
    "constants": _per_q("constants", 1e-10, _constants_row),
    "interval": _per_q("interval", 1e-9, _interval_row),
    "optimize-k": _per_q("optimize_k", 1e-9, _optimize_k_row),
    "algebra-verify": _cmd_algebra_verify,
    "sphere-verify": _cmd_sphere_verify,
    "pde-solve": _cmd_pde_solve,
}

_SUBCOMMANDS = (*_STAGES, "all")

# stages that run on the grid at cfg.L; a run builds it once for them
_GRID_STAGES = ("sphere-verify", "pde-solve")


# ---------------------------------------------------------------- driver


def _unwritable(exc: OSError) -> int:
    """An output path that cannot hold the report is bad usage: exit 2."""
    print(f"error: cannot write report: {exc}", file=sys.stderr)
    return 2


def _emit(cfg: RunConfig, records: list[Record]) -> int:
    """Write the report to the output directory and stdout; the exit status."""
    report = build_report(__version__, cfg.echo(), records)
    if cfg.format == "csv":
        text = render_csv(records)
        suffix = "csv"
    else:
        text = render_json(report)
        suffix = "json"
    try:
        (Path(cfg.out) / f"{cfg.subcommand}.{suffix}").write_text(text)
    except OSError as exc:
        return _unwritable(exc)
    sys.stdout.write(text)
    return 0 if not any(rec.failed for rec in records) else 1


def run(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)

    try:
        cfg = _effective_config(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # an unusable output directory is found before any stage runs
    try:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _unwritable(exc)

    records = []
    grid = None
    for stage in _STAGES if cfg.subcommand == "all" else (cfg.subcommand,):
        try:
            if stage in _GRID_STAGES:
                if grid is None:
                    grid = make_grid(cfg.L)
                records.extend(_STAGES[stage](cfg, grid))
            else:
                records.extend(_STAGES[stage](cfg))
        except DomainError as exc:
            # the failure lands in the report in place of the stage's records,
            # and the module's message goes to stderr verbatim
            records.append(Record(stage, "error", {"status": "fail", "message": str(exc)}))
            print(str(exc), file=sys.stderr)

    return _emit(cfg, records)


def main() -> None:
    sys.exit(run())

"""Command-line surface.

Subcommands:
    constants       closed-form constants at (n, q), optionally over a q grid
    interval        feasible k interval endpoints and their root identities
    optimize-k      threshold at the closed-form best k (or at a fixed k)
    algebra-verify  run every exact derivation verifier
    sphere-verify   quadrature, transform, and inequality checks on the sphere
    pde-solve       Newton solve of -box u + lambda u = u^q from a random start
    all             everything above in one report

Flags can also come from a config file (key = value per line, '#' starts a
comment); explicit flags win. Every float option, from either source, must be
a finite number. The KSL_OUT environment variable overrides the output
directory. Exit status: 0 when every invoked check passes, 1 on a failed
check or a domain error (reported verbatim on stderr), 2 on bad usage. Under
`all`, a domain error replaces only the records of the stage that raised it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import run_all
from .constants import (
    Dimensions,
    base_threshold,
    constants_report,
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

_DEFAULTS = {
    "n": 2,
    "q": 2.0,
    "q_grid": None,
    "k": "auto",
    "lambda1": 1.0,
    "lam": 0.5,
    "L": 16,
    "seed": 0,
    "out": "reports",
    "format": "json",
}

# most values a q grid may hold, checked before any value is built
MAX_GRID_POINTS = 10_000

_SUBCOMMANDS = (
    "constants",
    "interval",
    "optimize-k",
    "algebra-verify",
    "sphere-verify",
    "pde-solve",
    "all",
)


@dataclass
class RunConfig:
    subcommand: str
    n: int
    q: float
    q_grid: tuple[float, ...] | None
    k: float | str
    lambda1: float
    lam: float
    L: int
    seed: int
    out: str
    format: str

    @property
    def q_values(self) -> list[float]:
        return list(self.q_grid) if self.q_grid else [self.q]

    def echo(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "n": self.n,
            "q": self.q,
            "q-grid": list(self.q_grid) if self.q_grid else None,
            "k": self.k,
            "lambda1": self.lambda1,
            "lambda": self.lam,
            "L": self.L,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
        }


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- parsing


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
        parts = [p for p in s.split(",") if p.strip()]
        if not 1 <= len(parts) <= MAX_GRID_POINTS:
            raise ValueError
        return tuple(_finite_float(p) for p in parts)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"grid must be 'lo:hi:count' or comma-separated finite values, got {text!r}"
        )


_CONVERTERS = {
    "n": int,
    "q": _finite_float,
    "q_grid": _parse_grid,
    "k": _parse_k,
    "lambda1": _finite_float,
    "lam": _finite_float,
    "L": int,
    "seed": _seed,
    "out": str,
    "format": str,
}

# flag spellings accepted in a config file, mapped to config attributes
_CONFIG_ALIASES = {"lambda": "lam", "q-grid": "q_grid"}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None, help="complex dimension (default 2)")
    common.add_argument("--q", type=_finite_float, default=None, help="exponent (default 2)")
    common.add_argument(
        "--q-grid",
        type=_parse_grid,
        default=None,
        help=f"exponent grid, 'lo:hi:count' or comma list, at most {MAX_GRID_POINTS} "
        "values; overrides --q",
    )
    common.add_argument(
        "--k", type=_parse_k, default=None, help="interpolation weight, number or 'auto'"
    )
    common.add_argument(
        "--lambda1", type=_finite_float, default=None, help="spectral gap (default 1)"
    )
    common.add_argument(
        "--lambda",
        dest="lam",
        type=_finite_float,
        default=None,
        help="equation parameter (default 0.5)",
    )
    common.add_argument("--L", type=int, default=None, help="band limit (default 16)")
    common.add_argument("--seed", type=_seed, default=None, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="output directory (default 'reports')")
    common.add_argument("--format", choices=["json", "csv"], default=None)
    common.add_argument("--config", default=None, help="config file, key = value per line")

    parser = argparse.ArgumentParser(
        prog="ksl", description="Sobolev constants, derivation checks, sphere experiments."
    )
    parser.add_argument("--version", action="version", version=f"ksl {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        key = _CONFIG_ALIASES.get(key, key.replace("-", "_"))
        if key not in _CONVERTERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONVERTERS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}")
    if values.get("format") not in (None, "json", "csv"):
        raise UsageError(f"format must be json or csv, got {values['format']!r}")
    return values


def _effective_config(ns: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if ns.config:
        merged.update(_read_config_file(ns.config))
    for key in _DEFAULTS:
        cli_value = getattr(ns, key)
        if cli_value is not None:
            merged[key] = cli_value
    merged["out"] = os.environ.get("KSL_OUT") or merged["out"]
    return RunConfig(subcommand=ns.subcommand, **merged)


# ---------------------------------------------------------------- handlers


def _checked(section: str, label: str, fields: dict, residual: float, tol: float) -> Record:
    status = "pass" if residual < tol else "fail"
    return Record(section, label, {**fields, "residual": residual, "status": status})


def _row_label(i: int, total: int) -> str:
    return "" if total == 1 else str(i)


def _cmd_constants(cfg: RunConfig) -> list[Record]:
    recs = []
    qs = cfg.q_values
    for i, qv in enumerate(qs):
        dims = Dimensions(cfg.n, qv)
        rep = constants_report(dims)
        raw, _ = riemannian_constants(dims)
        fields = {
            "n": cfg.n,
            "q": qv,
            "c_s": rep.c_s,
            "c_riem_raw": raw,
            "c_riem_bridged": rep.c_riem_bridged,
            "c_conj": rep.c_conj,
            "lambda1_lower": rep.lambda1_lower,
        }
        if cfg.n >= 2:
            # the two closed forms of the rigidity threshold must agree
            fields["threshold"] = base_threshold(dims)
            residual = abs(fields["threshold"] - 1.0 / (2.0 * rep.c_s))
        else:
            # at n = 1 the sharp constant collapses onto (q-1)/2
            residual = abs(rep.c_s - rep.c_conj)
        recs.append(_checked("constants", _row_label(i, len(qs)), fields, residual, 1e-10))
    return recs


def _cmd_interval(cfg: RunConfig) -> list[Record]:
    recs = []
    qs = cfg.q_values
    for i, qv in enumerate(qs):
        dims = Dimensions(cfg.n, qv)
        ki = k_interval(dims)
        product = ki.k_lo * ki.k_hi
        # both endpoints are roots of k^2 + (2 - 4(n+1)/((n-1)q)) k + 1
        c1 = 2.0 - 4.0 * (cfg.n + 1) / ((cfg.n - 1) * qv)
        root_lo = abs(ki.k_lo**2 + c1 * ki.k_lo + 1.0) / (1.0 + ki.k_lo**2)
        root_hi = abs(ki.k_hi**2 + c1 * ki.k_hi + 1.0) / (1.0 + ki.k_hi**2)
        fields = {
            "n": cfg.n,
            "q": qv,
            "k_lo": ki.k_lo,
            "k_hi": ki.k_hi,
            "product": product,
        }
        residual = max(abs(product - 1.0), root_lo, root_hi)
        recs.append(_checked("interval", _row_label(i, len(qs)), fields, residual, 1e-9))
    return recs


def _cmd_optimize_k(cfg: RunConfig) -> list[Record]:
    recs = []
    qs = cfg.q_values
    for i, qv in enumerate(qs):
        dims = Dimensions(cfg.n, qv)
        ki = k_interval(dims)
        if cfg.k == "auto":
            k_star, threshold = optimize_k(dims, cfg.lambda1)
        else:
            k_star = float(cfg.k)
            threshold = f_of_k(dims, k_star, cfg.lambda1)
        pad = 1e-12 * max(1.0, ki.k_hi)
        inside = ki.k_lo - pad <= k_star <= ki.k_hi + pad
        agree = abs(threshold - f_of_k(dims, k_star, cfg.lambda1))
        fields = {
            "n": cfg.n,
            "q": qv,
            "lambda1": cfg.lambda1,
            "k_lo": ki.k_lo,
            "k_hi": ki.k_hi,
            "k_star": k_star,
            "threshold": threshold,
        }
        residual = agree if inside else float("inf")
        recs.append(_checked("optimize_k", _row_label(i, len(qs)), fields, residual, 1e-9))
    return recs


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


def _cmd_sphere_verify(cfg: RunConfig, grid: QuadratureGrid | None = None) -> list[Record]:
    if grid is None:
        grid = make_grid(cfg.L)
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


def _cmd_pde_solve(cfg: RunConfig, grid: QuadratureGrid | None = None) -> list[Record]:
    if grid is None:
        grid = make_grid(cfg.L)
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
    "constants": _cmd_constants,
    "interval": _cmd_interval,
    "optimize-k": _cmd_optimize_k,
    "algebra-verify": _cmd_algebra_verify,
    "sphere-verify": _cmd_sphere_verify,
    "pde-solve": _cmd_pde_solve,
}


def _error_record(subcommand: str, exc: DomainError) -> Record:
    return Record(subcommand, "error", {"status": "fail", "message": str(exc)})


# stages that run on the grid at cfg.L; `all` builds it once for them
_GRID_STAGES = ("sphere-verify", "pde-solve")


def _cmd_all(cfg: RunConfig) -> list[Record]:
    """Every stage; a DomainError replaces that stage's records alone."""
    recs = []
    grid = None
    for subcommand, handler in _STAGES.items():
        try:
            if subcommand in _GRID_STAGES:
                if grid is None:
                    grid = make_grid(cfg.L)
                recs.extend(handler(cfg, grid))
            else:
                recs.extend(handler(cfg))
        except DomainError as exc:
            recs.append(_error_record(subcommand, exc))
            print(str(exc), file=sys.stderr)
    return recs


_HANDLERS = {**_STAGES, "all": _cmd_all}


# ---------------------------------------------------------------- driver


def _emit(cfg: RunConfig, records: list[Record]) -> None:
    report = build_report(__version__, cfg.echo(), records)
    if cfg.format == "csv":
        text = render_csv(records)
        suffix = "csv"
    else:
        text = render_json(report)
        suffix = "json"
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{cfg.subcommand}.{suffix}").write_text(text)
    sys.stdout.write(text)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)

    try:
        cfg = _effective_config(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        records = _HANDLERS[cfg.subcommand](cfg)
    except DomainError as exc:
        # the failure still lands in a structured report, then the module's
        # message goes to stderr verbatim
        records = [_error_record(cfg.subcommand, exc)]
        _emit(cfg, records)
        print(str(exc), file=sys.stderr)
        return 1

    _emit(cfg, records)
    return 0 if not any(rec.failed for rec in records) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

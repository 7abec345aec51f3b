"""Every function in `src/ksl` is reached by a CLI run or named here.

`EXAMPLES` is the one list of CLI examples: the CI's `runtime-deps` job, which
installs no test extra, runs this file and no example of its own, and
`test_workflow_restates_no_example` keeps it that way.

A subprocess under `-W error`, so that a warning from any example fails it,
installs a `sys.setprofile` hook before `import ksl.cli`, so import-time calls
count, and then runs `EXAMPLES` (one config file and two `--out` naming a file
among them) and the console-script example through `main`. It prints each
exit status and the file and first line of every function it saw called under
`src/ksl`. The test walks the same files with `ast`, keys each `def` by its
file and its first line (the first decorator's, as `co_firstlineno` counts
it), and fails on any `def` that is neither called nor in `ALLOWED`, and on
any `ALLOWED` entry that is gone or has since been wired in.
"""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = (Path(__file__).resolve().parents[1] / "src").resolve()
PKG = SRC / "ksl"
WORKFLOW = SRC.parent / ".github" / "workflows" / "tier1.yml"

# library paths no CLI stage reaches, each with the reason it stays
ALLOWED = {
    "ksl.constants.cs_general": "acceptance criterion 3: the constant at k_lo is lambda1-free",
    "ksl.constants.lambda1_coefficient": "acceptance criterion 3: its weight vanishes at k_lo",
    "ksl.constants.k_lower_bound_eps0": "acceptance criterion 4: the zero-slack k bound is k_lo",
    "ksl.report.payload_bytes": "the determinism test and the benchmark harness hash reports by it",
    "ksl.algebra.ring._pack": "Poly's tuple constructor, the ring tests' dict oracle",
    "ksl.algebra.ring.rf_equal": "the tests' exact-equality oracle",
    "ksl.algebra.ring.Poly.__setattr__": "immutability guard: raises on any write",
    "ksl.algebra.ring.RationalFunction.__setattr__": "immutability guard: raises on any write",
    "ksl.algebra.ring.RadExpr.__setattr__": "immutability guard: raises on any write",
    "ksl.algebra.terms.FormalExpr.__setattr__": "immutability guard: raises on any write",
    "ksl.algebra.ring.RadExpr.__repr__": "debugging display; no report prints a surd",
    "ksl.algebra.terms.FormalExpr.__repr__": "debugging display; no report prints a display",
    "ksl.sphere.field.SphereField.__mul__": "acceptance criterion 9: the u + h d probes",
    "ksl.sphere.field.SphereField.sup_norm": "perturbation_tcoeff's scale (criterion 8, item 8)",
    "ksl.sphere.ops._psi_curve": "perturbation_tcoeff's curve (criterion 8, item 8)",
    "ksl.sphere.ops.perturbation_tcoeff": "acceptance criterion 8; item 8 wires it into a stage",
    "ksl.sphere.pde._quotient_parts": "quotient's terms (criterion 9, item 10)",
    "ksl.sphere.pde.quotient": "acceptance criterion 9; item 10 wires it into a stage",
    "ksl.sphere.pde.quotient_gradient": "acceptance criterion 9; item 10 wires it into a stage",
}

# the CLI examples, as (argv, exit status), each with the reason it is here;
# "{out}" is a fresh output directory, "{taken}" an existing file and
# "{config}" a file holding CONFIG
EXAMPLES = [
    # every stage
    (["all", "--L", "8", "--out", "{out}"], 0),
    # the large transforms and measure_lambda1
    (["sphere-verify", "--L", "64", "--out", "{out}"], 0),
    # the smallest band limit: the m = L slice of the energy blocks and the
    # oversampled grid's build
    (["sphere-verify", "--L", "2", "--out", "{out}"], 0),
    # the algebra stage and the closed forms at the float boundary exponent
    # 5/3, where the exact radicand is negative and is snapped to 0
    (["all", "--n", "4", "--q-grid", "1.2:1.6666666666666667:3", "--L", "2", "--out", "{out}"], 0),
    # the sharp constant's n = 1 row, where its surd 2C collapses to q - 1
    # exactly, checked against the algebra pillar
    (["constants", "--n", "1", "--q-grid", "1.1:9:5", "--out", "{out}"], 0),
    # from this start the Newton steps take both the frozen-mean step (no
    # Jacobian product) and GMRES (products 0, 1, 0, 0, 2, 0)
    (["pde-solve", "--L", "32", "--lambda", "0.9", "--seed", "2", "--out", "{out}"], 0),
    # the solver at the smallest coefficient shape, (2, 3, 3), where each
    # layout member of the grid broadcasts over one degree-0 slot
    (["pde-solve", "--L", "2", "--lambda", "0.4", "--seed", "0", "--out", "{out}"], 0),
    # one GMRES cycle cannot meet the fifth Newton step from this start: the
    # stall path and its failure record
    (
        ["pde-solve", "--q", "20", "--lambda", "0.04736842105263158", "--L", "16", "--seed", "3",
         "--out", "{out}"],
        1,
    ),
    # the per-q stage loop and the CSV writer
    (
        ["optimize-k", "--n", "3", "--q-grid", "1.1:1.9:5", "--lambda1", "2", "--format", "csv",
         "--out", "{out}"],
        0,
    ),
    # the fixed-k threshold checked against the algebra pillar's exact objective
    (["optimize-k", "--n", "2", "--q", "2", "--k", "1.0", "--out", "{out}"], 0),
    # a bad --format is a usage error
    (["constants", "--format", "xml", "--out", "{out}"], 2),
    # at n = 10^13 the domain 1 < q <= 1 + 2e-13 is far narrower than
    # 1e-12 q_max, so the boundary window must scale with its width
    (["constants", "--n", "10000000000000", "--q", "1.0000000000009", "--out", "{out}"], 1),
    # --out naming an existing file is a usage error
    (["constants", "--out", "{taken}"], 2),
    # the output directory is made before the first stage runs, so this exits
    # at once instead of after every stage
    (["all", "--out", "{taken}"], 2),
    # the config reader, which no other example runs, and the slack budget's
    # check at n = 3 up to the boundary exponent 2; the report echoes n
    (["--config", "{config}", "constants", "--out", "{out}"], 0),
]
CONFIG = "n = 3\nq-grid = 1.1:2:4\n"
# the installed `ksl` console script is ksl.cli:main
CONSOLE_SCRIPT = (["--n", "2", "constants", "--out", "{out}"], 0)

PROBE = r"""
import contextlib, io, json, os, sys

pkg, spec = sys.argv[1], json.loads(sys.argv[2])
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
import ksl.cli

statuses = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in spec["examples"]:
        statuses.append(ksl.cli.run(argv))
    sys.argv = ["ksl", *spec["console_script"]]
    try:
        ksl.cli.main()
    except SystemExit as exc:
        statuses.append(exc.code)
sys.setprofile(None)

assert os.path.realpath(ksl.cli.__file__).startswith(pkg + os.sep), ksl.cli.__file__
print(json.dumps(statuses))
for code in called:
    path = os.path.realpath(code.co_filename)
    if path.startswith(pkg + os.sep):
        print(f"{path}\t{code.co_firstlineno}")
"""


def _defs() -> dict[tuple[str, int], str]:
    """Dotted name of every `def` under src/ksl, by (file, first line)."""
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        out[(str(path), first)] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), module)
    return out


def _called(tmp_path) -> set[tuple[str, int]]:
    taken = tmp_path / "taken"
    taken.touch()
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    fill = {"{taken}": str(taken), "{config}": str(config)}

    def argv(args, i):
        return [fill.get(a, str(tmp_path / f"out{i}") if a == "{out}" else a) for a in args]

    spec = {
        "examples": [argv(args, i) for i, (args, _) in enumerate(EXAMPLES)],
        "console_script": argv(CONSOLE_SCRIPT[0], len(EXAMPLES)),
    }
    env = {k: v for k, v in os.environ.items() if k != "KSL_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PROBE, str(PKG), json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first, *lines = proc.stdout.splitlines()
    assert json.loads(first) == [status for _, status in [*EXAMPLES, CONSOLE_SCRIPT]]
    i = next(i for i, (args, _) in enumerate(EXAMPLES) if "{config}" in args)
    report = json.loads((tmp_path / f"out{i}" / "constants.json").read_text())
    assert report["config"]["n"] == 3, report["config"]
    return {(path, int(line)) for path, line in (row.split("\t") for row in lines)}


def test_every_function_is_reached_or_allowed(tmp_path):
    defs = _defs()
    called = _called(tmp_path)
    unreached = {name for key, name in defs.items() if key not in called}
    dead = sorted(unreached - set(ALLOWED))
    assert not dead, f"no CLI run calls these, and ALLOWED does not name them: {dead}"
    gone = sorted(set(ALLOWED) - set(defs.values()))
    assert not gone, f"ALLOWED names functions that no longer exist: {gone}"
    wired = sorted(set(ALLOWED) - unreached)
    assert not wired, f"ALLOWED names functions a CLI run now calls: {wired}"


def test_workflow_restates_no_example():
    """The CI workflow runs no `-m ksl`, and the `ksl` script only with
    CONSOLE_SCRIPT's arguments, any `--out`: every other example is in
    EXAMPLES. Read as text, since the runtime-deps job installs no yaml."""
    script, _ = CONSOLE_SCRIPT
    strays = []
    for number, line in enumerate(WORKFLOW.read_text().splitlines(), 1):
        if line.lstrip(" -").startswith("name:"):
            continue
        words = shlex.split(line, comments=True)
        for i in (i for i, word in enumerate(words) if word == "ksl"):
            args = words[i + 1 :]
            console = len(args) == len(script) and all(
                s in (a, "{out}") for a, s in zip(args, script)
            )
            if words[i - 1 : i] == ["-m"] or not console:
                strays.append(f"{number}: {line.strip()}")
    assert not strays, f"the workflow runs CLI examples outside EXAMPLES: {strays}"

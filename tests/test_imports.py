"""Lints over the package source, parsed with ``ast`` (no pyflakes or ruff
is assumed).

Import lint: every name a package module imports is used or exported.  A
name counts as used when it appears as a load anywhere in the module
(string annotations included) or is listed in ``__all__``.  The package
``__init__`` is exempt, since its imports are the public re-exports.

Dead-definition lint: every module-level private function, class or
constant (a name with one leading underscore) is referenced somewhere in
the package, by name or as a module attribute.

Caller lint: every public function (one in a module's ``__all__`` or
exported by the package root) is referenced outside its own def, in the
package, ``scripts/``, ``tests/test_acceptance.py`` or ``perfbench/``; a
function that only its own unit tests call is API that no result needs.

Options lint: every defaulted parameter of a public function is passed,
by keyword or by position, at some call in the same caller files; a call
that unpacks ``*args`` or ``**kwargs`` passes every parameter.  An option
that no caller sets is a code path that no result needs.

Solution lint: a public function that takes a Floquet solution takes no
circuit, static spectrum, drive or Fourier element table beside it, since
the solution carries the ones its Fourier blocks were built from and the
tables are computed from it.

Fourier-block lint: no package module but ``floquet.py`` reads a
solution's ``fourier_blocks``; the tables built from them are properties of
the solution, so their layout is a decision of one module.

Runner lint: ``sweeps.py`` and ``cli.py`` read no task section of a
``RunConfig`` (no attribute load of a section-valued field but ``grid``),
so the generic runner names no task and a task stays one record in
``floqlux.tasks``.

README lints: every `` `[section] key` `` the README names is a key of the
config schema, and every keyword of a `` `fn(key=...)` `` call in a code span
that parses as Python is a parameter of the package function ``fn``, so the
docs cannot keep a key that the parser rejects or an option that is gone.

Benchmark lint: every function that ``perfbench/tracer.py`` wraps by name,
and every other name that ``perfbench/workloads.py`` reads, exists in the
package, so a deletion that would break traced benchmark runs fails here.

Version lint: ``floqlux.__version__``, which keys the cell cache, is the
``version`` of ``pyproject.toml``, so a bump cannot move one without the
other.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "floqlux"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):  # string annotations: "Derivatives | None"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_used(ast.parse(node.value)))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_lint_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n\nx: 'Sequence' = pi\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["os", "tau"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _references(trees) -> set[str]:
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_definitions(path):
    refs = _references(PACKAGE.values())
    dead = sorted(f"{name} (line {line})"
                  for name, line in _private_definitions(PACKAGE[path.name]).items()
                  if name not in refs)
    assert not dead, f"{path.name}: private definitions referenced nowhere {dead}"


def test_lint_flags_a_dead_definition():
    a = ast.parse("_LIMIT = 3\n_DEAD: int = 4\n\ndef _used():\n    return _LIMIT\n\n"
                  "def _unused():\n    return 1\n\nclass _Gone:\n    pass\n")
    b = ast.parse("import a\nfrom a import _used\n\nx = a._LIMIT + _used()\n")
    refs = _references([a, b])
    assert sorted(set(_private_definitions(a)) - refs) == ["_DEAD", "_Gone", "_unused"]


def _outside_own_def(trees) -> set[str]:
    """Names loaded, or read as attributes, outside a def of the same name."""
    refs = set()

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            refs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, frozenset())
    return refs


# callers outside the package whose use keeps a public function
CALLER_FILES = [*sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "perfbench").glob("*.py"))]

# public without a caller, each for the reason given
_UNCALLED_API = {
    "import_result": "reads the json export back, so the round-trip test can show "
                     "that export loses nothing",
}


def _public_functions() -> dict:
    """name -> function over the package root's exports and every ``__all__``."""
    public = {name: fn for name, fn in vars(importlib.import_module("floqlux")).items()
              if inspect.isfunction(fn)}
    for path in MODULES:
        module = importlib.import_module(f"floqlux.{path.stem}")
        public.update((name, getattr(module, name)) for name in getattr(module, "__all__", ())
                      if inspect.isfunction(getattr(module, name)))
    return public


def test_every_public_function_has_a_caller():
    callers = [ast.parse(p.read_text(), filename=str(p)) for p in CALLER_FILES]
    refs = _outside_own_def([*PACKAGE.values(), *callers])
    uncalled = sorted(f"{fn.__module__}.{name}" for name, fn in _public_functions().items()
                      if name not in refs and name not in _UNCALLED_API)
    assert not uncalled, f"public functions that only their unit tests call: {uncalled}"


def test_lint_flags_a_function_only_its_own_def_calls():
    tree = ast.parse("def walk(n):\n    return walk(n - 1) if n else 0\n\n"
                     "def run():\n    return fold()\n\nx = run\n")
    refs = _outside_own_def([tree])
    assert "walk" not in refs and {"run", "fold"} <= refs


def _calls(trees) -> dict[str, list]:
    """Callee name -> per call, (positional count, keyword names), or None
    for a call that unpacks ``*args`` or ``**kwargs``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name | ast.Attribute)):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                None if unpacks else (len(node.args), {k.arg for k in node.keywords}))
    return calls


def _unpassed_options(name: str, fn, calls) -> list[str]:
    """Defaulted parameters of ``fn`` that no call of ``name`` passes."""
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unpassed = []
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if p.default is inspect.Parameter.empty:
            continue
        if not any(call is None or p.name in call[1] or (p.kind in positional and i < call[0])
                   for call in calls.get(name, ())):
            unpassed.append(p.name)
    return unpassed


# defaulted parameters that no caller passes, each for the reason given
_UNPASSED_OPTIONS = {
    ("synth_ramsey_signal", "weights"): "the seam through which the estimator tests "
                                        "build multi-component Ramsey signals",
}


def test_every_option_is_passed_somewhere():
    calls = _calls([*PACKAGE.values(),
                    *(ast.parse(p.read_text(), filename=str(p)) for p in CALLER_FILES)])
    unpassed = sorted(f"{fn.__module__}.{name}({option})"
                      for name, fn in _public_functions().items() if name not in _UNCALLED_API
                      for option in _unpassed_options(name, fn, calls)
                      if (name, option) not in _UNPASSED_OPTIONS)
    assert not unpassed, f"defaulted parameters that no caller passes: {unpassed}"


def test_lint_flags_an_option_no_caller_passes():
    def solve(x, tol=1e-8, width=3, *, fast=False, verbose=False):
        return x

    calls = _calls([ast.parse("solve(1, 1e-6)\nm.solve(2, verbose=True)\nwidth(3)\n")])
    assert _unpassed_options("solve", solve, calls) == ["width", "fast"]
    calls = _calls([ast.parse("solve(1)\nsolve(**options)\n")])
    assert _unpassed_options("solve", solve, calls) == []


# coherence_rates may also solve, so it keeps its inputs and checks a given
# solution against them
_SOLVES_OR_CHECKS = {"coherence_rates"}


def test_no_second_copy_beside_a_solution():
    offenders = []
    for path in MODULES:
        module = importlib.import_module(f"floqlux.{path.stem}")
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if not inspect.isfunction(fn) or name in _SOLVES_OR_CHECKS:
                continue
            args = inspect.signature(fn).parameters.values()
            if not any(a.name == "sol" or "FloquetSolution" in str(a.annotation) for a in args):
                continue
            offenders += [f"{name}({a.name})" for a in args
                          if a.name in ("params", "spectrum", "drive", "elems")
                          or any(t in str(a.annotation)
                                 for t in ("CircuitParams", "StaticSpectrum", "DriveParams",
                                           "FourierMatrixElements"))]
    assert not offenders, f"second copies beside a solution: {offenders}"


def _fourier_block_reads(tree: ast.Module) -> list[str]:
    """The attribute loads of ``fourier_blocks`` in ``tree``."""
    return [f"fourier_blocks (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr == "fourier_blocks"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "floquet.py"],
                         ids=lambda p: p.name)
def test_only_floquet_reads_fourier_blocks(path):
    reads = _fourier_block_reads(PACKAGE[path.name])
    assert not reads, f"{path.name} reads the Fourier-block layout: {reads}"


def test_lint_flags_a_fourier_block_read():
    tree = ast.parse("bras = sol.fourier_blocks[:2]\nsol.phi_elements.table\n"
                     "fourier_blocks = 1\nx = getattr(sol, 'fourier_blocks')\n"
                     "replace(sol, fourier_blocks=b)\nn = a.b.fourier_blocks.shape\n")
    assert _fourier_block_reads(tree) == ["fourier_blocks (line 1)", "fourier_blocks (line 6)"]


def _task_section_reads(tree: ast.Module) -> list[str]:
    """The attribute loads in ``tree`` of a ``RunConfig`` task section."""
    from floqlux.config import RunConfig

    sections = {f.name for f in dataclasses.fields(RunConfig)
                if dataclasses.is_dataclass(f.default)} - {"grid"}
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in sections]


@pytest.mark.parametrize("name", ["sweeps.py", "cli.py"])
def test_runner_reads_no_task_section(name):
    reads = _task_section_reads(PACKAGE[name])
    assert not reads, f"{name} reads task sections of the config: {reads}"


def test_lint_flags_a_task_section_read():
    tree = ast.parse("from .circuit import x\nconfig.grid.xi\nconfig.output\n"
                     "path = config.polariton.data_file\nconfig.noise = None\n")
    assert _task_section_reads(tree) == ["polariton (line 4)"]


def _unknown_config_keys(text: str) -> list[str]:
    """The `` `[section] key` `` names in ``text`` that the config schema lacks."""
    from floqlux.config import _SCHEMA

    named = re.findall(r"`\[(\w+)\]\s+(\w+)", text)
    return sorted({f"[{sec}] {key}" for sec, key in named if key not in _SCHEMA.get(sec, ())})


def test_readme_names_only_config_keys():
    unknown = _unknown_config_keys((ROOT / "README.md").read_text())
    assert not unknown, f"README names config keys that do not exist: {unknown}"


def test_lint_flags_a_readme_key_that_is_gone():
    text = "`[grid] xi`, `[polariton]`, `[polariton] span = 0.1`, `[gird] xi`"
    assert _unknown_config_keys(text) == ["[gird] xi", "[polariton] span"]


def _unknown_readme_options(text: str) -> list[str]:
    """The `` `fn(key=...)` `` keywords in the code spans of ``text`` that are
    not parameters of the package's public function ``fn``, and the calls
    that pass ``fn`` more positional arguments than it takes; spans that do
    not parse as Python, and calls of other functions, are skipped."""
    functions = _public_functions()
    gone = set()
    for span in re.findall(r"`+([^`]+)`+", text):
        try:
            tree = ast.parse(span)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in functions:
                continue
            params = inspect.signature(functions[name]).parameters
            gone.update(f"{name}({k.arg}=)" for k in node.keywords
                        if k.arg is not None and k.arg not in params)
            kinds = [p.kind for p in params.values()]
            takes = sum(k <= inspect.Parameter.POSITIONAL_OR_KEYWORD for k in kinds)
            open_ended = inspect.Parameter.VAR_POSITIONAL in kinds or any(
                isinstance(a, ast.Starred) for a in node.args)
            if len(node.args) > takes and not open_ended:
                gone.add(f"{name}({len(node.args)} positional, takes {takes})")
    return sorted(gone)


def test_readme_names_only_existing_options():
    gone = _unknown_readme_options((ROOT / "README.md").read_text())
    assert not gone, f"README passes options that the package functions lack: {gone}"


def test_lint_flags_a_readme_option_that_is_gone():
    text = ("`solve_floquet(params, drive, tol=1e-8)`, `coherence_rates(fd=True)`,"
            " `[grid] xi`, `phi(t) = xi cos(Omega t)`\n```python\n"
            "rates = coherence_rates(params, drive, NoiseModel(), fdd=True, **kw)\n"
            "m = sol.splitting(alpha=1)\n```\n```sh\nff coherence --config run.cfg\n```\n"
            "`probe_population(sol, noise, probe, probe_freqs)`, `probe_population(*args)`,"
            " `depolarization_rates(sol, noise)`")
    assert _unknown_readme_options(text) == ["coherence_rates(fdd=)",
                                             "probe_population(4 positional, takes 3)",
                                             "solve_floquet(tol=)"]


def _tracer_targets() -> tuple:
    """The ``(module, function)`` pairs of ``perfbench/tracer.py``'s ``TARGETS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_benchmark_names_exist():
    missing = [f"{mod}.{name}" for mod, name in _tracer_targets()
               if not callable(getattr(importlib.import_module(f"floqlux.{mod}"), name, None))]
    assert not missing, f"functions the benchmark tracer wraps are gone: {missing}"
    # read by perfbench/workloads.py
    from floqlux import config, decoherence, floquet

    assert config.SweetSpotSpec().tol_d > 0
    assert "fd" in inspect.signature(decoherence.coherence_rates).parameters
    assert "tracking_break" in {f.name for f in dataclasses.fields(
        decoherence.QuasienergyDerivatives)}
    for fn in (floquet.solve_floquet, floquet.monodromy_oracle):
        assert "spectrum" in inspect.signature(fn).parameters
    # the tracer wraps every binding of one function object: a second
    # definition in decoherence would leave the traced table count at 0
    assert decoherence.fourier_operator_elements is floquet.fourier_operator_elements


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10, which lacks it
    import floqlux

    found = re.search(r'^version = "([^"]*)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert found, "pyproject.toml states no version"
    assert found.group(1) == floqlux.__version__

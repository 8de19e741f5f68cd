"""Every task's numbers on small driven grids, pinned in ``tests/golden/``.

Each ``<task>.cfg`` there runs with one worker and is compared with the
exported ``<task>.json`` beside it; ``tests/golden/regenerate.py`` writes
both.  Values are pinned, not digests: OpenBLAS picks its kernels by CPU, so
bit-equality across machines is not promised.

- A data column matches within DEFAULT_TOL of the column's largest |value|;
  non-finite entries match exactly.
- Fitted numbers (ramsey's estimator columns and window amplitudes, the
  polariton fit) match within FIT_TOL: a fit carries a one-ulp change of
  its input to about 1e-10 (ramsey's ``t2r_est`` moved 3.7e-10 so).
- Axes, masks, failure reasons, strings, integers and flags match exactly.
- Sweet spots match in kind exactly, in coordinates and derivatives within
  SPOT_TOL absolute and in their times within SPOT_TOL relative.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import floqlux
from floqlux.tasks import REGISTRY

GOLDEN = Path(__file__).resolve().parent / "golden"

DEFAULT_TOL = 1e-13
FIT_TOL = 1e-8
SPOT_TOL = 1e-12

# task -> column or extra keys that hold fitted numbers
_FITTED = {
    "ramsey": {"t2r_est", "t2r_stderr", "beat_fit", "window_amplitudes"},
    "polariton": {"fit"},
}


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numbers(values) -> bool:
    return all(isinstance(v, float | int) and not isinstance(v, bool) for v in values)


def _compare_numbers(got, want, tol: float, where: str) -> list[str]:
    """|got - want| <= tol * max|want| over the finite entries; the rest equal."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{where}: shape {got.shape} != {want.shape}"]
    finite = np.isfinite(want)
    if not np.array_equal(got[~finite], want[~finite], equal_nan=True) or \
            not np.isfinite(got[finite]).all():
        return [f"{where}: non-finite entries differ"]
    if not finite.any():
        return []
    scale = np.max(np.abs(want[finite]))
    dev = np.max(np.abs(got[finite] - want[finite])) / (scale if scale else 1.0)
    return [f"{where}: deviation {dev:.2e} of the largest |value| > {tol:.0e}"] if dev > tol else []


def _compare_tree(got, want, tol: float, fitted: set, where: str) -> list[str]:
    """Lists of numbers relative to their largest |value|, numbers relative
    to themselves, everything else exactly; a key in ``fitted`` and all
    below it at FIT_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in _compare_tree(
            got[k], want[k], FIT_TOL if k in fitted else tol, fitted, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        if want and _numbers(want) and _numbers(got):
            return _compare_numbers(got, want, tol, where)
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_tree(g, w, tol, fitted, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return _compare_numbers([got], [want], tol, where)
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _compare_spots(got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"spots: {len(got)} found, {len(want)} pinned"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g["kind"] != w["kind"]:
            problems.append(f"spot {i}: kind {g['kind']} != {w['kind']}")
        problems += [f"spot {i}: {k} {g[k]!r} != {w[k]!r}" for k in
                     ("phi_dc", "xi", "omega", "d_flux", "d_xi") if abs(g[k] - w[k]) > SPOT_TOL]
        problems += [f"spot {i}: {k} {g[k]!r} != {w[k]!r}" for k in ("t1", "tphi", "t2r")
                     if not math.isclose(g[k], w[k], rel_tol=SPOT_TOL, abs_tol=0.0)]
    return problems


def _compare(got, want) -> list[str]:
    """What differs between a sweep result and its pinned export."""
    head = [f"{name}: {getattr(got, name)!r} != {getattr(want, name)!r}"
            for name in ("task", "columns", "units", "reasons")
            if getattr(got, name) != getattr(want, name)]
    head += [] if list(got.axes.items()) == list(want.axes.items()) else ["axes differ"]
    head += [] if np.array_equal(got.mask, want.mask) else ["masks differ"]
    if head:
        return head
    fitted = _FITTED.get(want.task, set())
    n_axes, live = len(want.axes), ~want.mask
    problems = [p for i, name in enumerate(want.columns)
                for p in _compare_numbers(got.rows[live, n_axes + i], want.rows[live, n_axes + i],
                                          FIT_TOL if name in fitted else DEFAULT_TOL, name)]
    extra, pinned = dict(got.extra), dict(want.extra)
    if want.task == "sweetspot":
        problems += _compare_spots(extra.pop("spots"), pinned.pop("spots"))
    return problems + _compare_tree(extra, pinned, DEFAULT_TOL, fitted, "extra")


def test_corpus_covers_every_task():
    assert {p.stem for p in GOLDEN.glob("*.cfg")} == set(REGISTRY)
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(REGISTRY)


@pytest.mark.parametrize("task", sorted(REGISTRY))
def test_golden_corpus(task, tmp_path):
    got = _regenerate().run(task, GOLDEN, tmp_path)
    want = floqlux.import_result(GOLDEN / f"{task}.json")
    problems = _compare(got, want)
    assert not problems, f"{task} moved from its pinned export: {problems}"


def test_comparison_flags_a_moved_number():
    want = floqlux.import_result(GOLDEN / "sweetspot.json")
    assert _compare(want, want) == []
    rows = want.rows.copy()
    rows[:, -1] *= 1 + 1e-12
    extra = {**want.extra, "spots": [dict(s) for s in want.extra["spots"]]}
    extra["spots"][-2]["t2r"] *= 1 + 1e-11
    extra["diagnostics"] = {**extra["diagnostics"], "refine_failures": 2}
    moved = floqlux.SweepResult(**{**want.__dict__, "rows": rows, "extra": extra})
    problems = _compare(moved, want)
    assert [p.split(":")[0] for p in problems] == ["d_xi", "spot 3",
                                                   "extra.diagnostics.refine_failures"]

"""Grid-sweep orchestration: run a task per grid cell, cache, export.

Each task's record in ``floqlux.tasks`` decomposes it into independent jobs
(one per grid cell or per spectroscopy sweep column, plus an optional
whole-grid job).  Jobs are pure functions of the physics part of the config
plus their coordinates, so completed cells are cached on disk under
``<output>/.cells/<config_hash>/`` and reruns only recompute what is
missing or failed.  Aggregation is order-independent and float formatting
is fixed, which makes exports byte-identical regardless of worker count.

Wall-clock timings are kept on the result object for profiling but excluded
from both equality and exports; everything else round-trips through the JSON
export losslessly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import RunConfig, emit_config
from .errors import ExportError
from .tasks import REGISTRY, Task

SCHEMA_VERSION = 1

_AXIS_UNITS = {"phi_dc": "Phi0", "xi": "Phi0", "omega": "GHz", "omega_p": "GHz"}


def config_hash(config: RunConfig) -> str:
    """Hash of the physics content of a config (execution keys excluded)."""
    return hashlib.sha256(emit_config(config, physics_only=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# result table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One row per grid cell: axis coordinates followed by derived columns.

    Attributes:
        axes: ordered axis name -> ascending coordinate values; row order is
            lexicographic over these axes.
        columns: derived-quantity names; ``rows[:, len(axes):]`` holds them.
        units: units for the axis columns then the data columns.
        rows: (n_cells, n_axes + n_columns) floats; failed cells hold NaN in
            their data columns.
        mask: True where the cell failed; ``reasons`` maps its row index to
            a short error string.
        extra: task-specific non-tabular payload (fit results, sweet spots,
            branch overlays); always JSON-plain.
        timings: per-row compute seconds (0 for cache hits), excluded from
            equality and from exports.
    """

    task: str
    axes: dict
    columns: tuple
    units: tuple
    rows: np.ndarray
    mask: np.ndarray
    reasons: dict
    extra: dict
    config_hash: str
    schema_version: int = SCHEMA_VERSION
    timings: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.rows.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def axis_names(self) -> tuple:
        return tuple(self.axes)

    @property
    def header(self) -> tuple:
        return self.axis_names + self.columns

    def column(self, name: str) -> np.ndarray:
        """One named column (axis or derived) as a flat array."""
        idx = self.header.index(name)
        return self.rows[:, idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return (
            self.schema_version == other.schema_version
            and self.task == other.task
            and list(self.axes.items()) == list(other.axes.items())
            and self.columns == other.columns
            and self.units == other.units
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows, equal_nan=True)
            and np.array_equal(self.mask, other.mask)
            and self.reasons == other.reasons
            and self.extra == other.extra
            and self.config_hash == other.config_hash
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# planning and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Job:
    jid: int
    fn: Callable
    coords: dict
    row_indices: tuple


def _execute(config: RunConfig, job: _Job) -> dict:
    """Run one job; solver failures become data, not aborts."""
    start = time.perf_counter()
    try:
        out = job.fn(config, job.coords)
    except Exception as exc:  # noqa: BLE001, per-cell failures are masked
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["seconds"] = time.perf_counter() - start
    return out


def _plan(task: Task, config: RunConfig):
    """Axes and job list for one task; the grid job, if any, comes last."""
    if task.plan is not None:
        axes, cells = task.plan(config)
    else:
        axes = {a: tuple(sorted(float(v) for v in getattr(config.grid, a))) for a in task.axes}
        cells = [(dict(zip(axes, point)), (i,))
                 for i, point in enumerate(itertools.product(*axes.values()))]
    jobs = [_Job(i, task.job, coords, rows) for i, (coords, rows) in enumerate(cells)]
    if task.grid_job is not None and task.wants_grid_job(config):
        jobs.append(_Job(len(jobs), task.grid_job, {}, ()))
    return axes, jobs


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_path(cache_dir: Path, job: _Job) -> Path:
    return cache_dir / f"{job.jid:06d}.json"


def _load_cache(path: Path, job: _Job, n_cols: int):
    try:
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    rows = out.get("rows")
    if not isinstance(rows, list) or len(rows) != len(job.row_indices):
        return None
    if any(not isinstance(r, list) or len(r) != n_cols for r in rows):
        return None
    return out


def _write_cache(path: Path, out: dict) -> None:
    payload = {"rows": out["rows"]}
    if out.get("extra") is not None:
        payload["extra"] = out["extra"]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_sweep(config: RunConfig) -> SweepResult:
    """Evaluate the configured task over its grid.

    Jobs already present in the cell cache are loaded instead of recomputed;
    per-cell solver failures mask the affected rows with a reason and never
    abort the sweep.  Output directory I/O errors do abort.

    Raises:
        ConfigError: the grid or sections do not fit the task.
    """
    task = REGISTRY[config.task]
    if task.check is not None:
        task.check(config)
    axes, jobs = _plan(task, config)
    columns = tuple(name for name, _ in task.columns)
    units = tuple(_AXIS_UNITS[a] for a in axes) + tuple(unit for _, unit in task.columns)
    chash = config_hash(config)
    cache_dir = Path(config.output) / ".cells" / chash
    cache_dir.mkdir(parents=True, exist_ok=True)

    coords_mat = np.array(list(itertools.product(*axes.values())), dtype=float)
    n_rows = coords_mat.shape[0]

    data = np.full((n_rows, len(columns)), np.nan)
    mask = np.zeros(n_rows, dtype=bool)
    reasons: dict = {}
    timings = np.zeros(n_rows)

    results: dict[int, tuple[dict, bool]] = {}
    pending: list[_Job] = []
    for job in jobs:
        cached = _load_cache(_cache_path(cache_dir, job), job, len(columns))
        if cached is not None:
            results[job.jid] = (cached, False)
        else:
            pending.append(job)

    if pending:
        n_workers = min(config.workers, len(pending))
        if n_workers <= 1:
            for job in pending:
                results[job.jid] = (_execute(config, job), True)
        else:
            chunk = max(1, len(pending) // (4 * n_workers))
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                outs = pool.map(_execute, itertools.repeat(config), pending, chunksize=chunk)
                for job, out in zip(pending, outs):
                    results[job.jid] = (out, True)

    extras: list[dict] = []  # in job order
    for job in jobs:
        out, fresh = results[job.jid]
        secs = float(out.get("seconds", 0.0))
        per_row = secs / max(len(job.row_indices), 1)
        if "error" in out:
            for r in job.row_indices:
                mask[r] = True
                reasons[r] = out["error"]
                timings[r] = per_row
            if not job.row_indices:  # the grid job
                extras.append({task.grid_key: {"error": out["error"]}})
            continue
        for r, vals in zip(job.row_indices, out["rows"]):
            data[r] = vals
            timings[r] = per_row
        if out.get("extra") is not None:
            extras.append(out["extra"])
        if fresh:
            _write_cache(_cache_path(cache_dir, job), out)

    return SweepResult(
        task=config.task,
        axes=axes,
        columns=columns,
        units=units,
        rows=np.hstack([coords_mat, data]) if n_rows else np.empty((0, len(columns))),
        mask=mask,
        reasons=reasons,
        extra=(task.finalize(config, extras) if task.finalize is not None
               else {k: v for piece in extras for k, v in piece.items()}),
        config_hash=chash,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return "%.17g" % value


def _render_csv(result: SweepResult) -> str:
    lines = [
        ",".join(result.header + ("mask",)),
        ",".join(result.units + ("bool",)),
    ]
    for i in range(result.rows.shape[0]):
        cells = [_fmt(v) for v in result.rows[i]]
        cells.append(str(int(result.mask[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(result: SweepResult) -> str:
    doc = {
        "schema_version": result.schema_version,
        "task": result.task,
        "config_hash": result.config_hash,
        "axes": {k: list(v) for k, v in result.axes.items()},
        "columns": list(result.columns),
        "units": list(result.units),
        "rows": result.rows.tolist(),
        "mask": result.mask.tolist(),
        "reasons": {str(k): result.reasons[k] for k in sorted(result.reasons)},
        "extra": result.extra,
    }
    return json.dumps(doc, indent=1) + "\n"


def _render_plotdata(result: SweepResult) -> str:
    """Long-form x, y, value, series table; masked cells are dropped.

    With one axis y is 0; with more than two the trailing coordinates are
    folded into the series label.
    """
    names = result.axis_names
    n_axes = len(names)
    lines = ["x,y,value,series"]
    for ci, col in enumerate(result.columns):
        for r in range(result.rows.shape[0]):
            if result.mask[r]:
                continue
            x = result.rows[r, 0]
            y = result.rows[r, 1] if n_axes > 1 else 0.0
            series = col
            if n_axes > 2:
                tail = ";".join(
                    f"{names[a]}={_fmt(result.rows[r, a])}" for a in range(2, n_axes)
                )
                series = f"{col}|{tail}"
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(result.rows[r, n_axes + ci])},{series}")
    return "\n".join(lines) + "\n"


# format -> (renderer, file name)
_EXPORTERS = {
    "csv": (_render_csv, "{task}.csv"),
    "json": (_render_json, "{task}.json"),
    "plotdata": (_render_plotdata, "{task}_plot.csv"),
}


def export(result: SweepResult, directory, fmt: str = "csv",
           overwrite: bool = False) -> tuple[Path, ...]:
    """Write the result table under ``directory`` in the chosen format.

    csv carries two header rows (names, units) plus a mask column; json is a
    lossless document ``import_result`` reads back; plotdata is a long-form
    table for generic plotting tools.  Failure reasons appear only in json.

    Raises:
        ExportError: the target exists and ``overwrite`` is not set.
    """
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(_EXPORTERS)}")
    render, filename = _EXPORTERS[fmt]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename.format(task=result.task)
    if path.exists() and not overwrite:
        raise ExportError(f"{path} exists; pass overwrite to replace it")
    path.write_text(render(result), encoding="utf-8")
    return (path,)


def import_result(path) -> SweepResult:
    """Rebuild a SweepResult from a json export; equals the original."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    axes = {k: tuple(v) for k, v in doc["axes"].items()}
    n_cols = len(axes) + len(doc["columns"])
    rows = np.asarray(doc["rows"], dtype=float).reshape(-1, n_cols)
    return SweepResult(
        task=doc["task"],
        axes=axes,
        columns=tuple(doc["columns"]),
        units=tuple(doc["units"]),
        rows=rows,
        mask=np.asarray(doc["mask"], dtype=bool).reshape(rows.shape[0]),
        reasons={int(k): v for k, v in doc["reasons"].items()},
        extra=doc["extra"],
        config_hash=doc["config_hash"],
        schema_version=doc["schema_version"],
        timings=None,
    )

"""Grid-sweep orchestration: run a task per grid cell, cache, export.

Each task's record in ``floqlux.tasks`` decomposes it into independent cell
jobs (one per grid cell or per spectroscopy sweep column).  A cell job is a
pure function of the physics part of the config without its grid plus the
job's coordinates, and is cached on disk as ``<output>/.cells/<key>.json``,
where the key hashes exactly those (and the schema and package versions).
Finished cells are written at least once a second and when the sweep stops
for any reason, so reruns, refined or extended grids and interrupted
sweeps recompute only what is missing or failed.  A task's optional
whole-grid step then runs in this process on the result table, the
cells' extras (the sweet-spot scan refines the field in the table's
columns) and the array its check read (the polariton peak table); its
key takes the full config hash and that array's shape and bytes.
Aggregation is by row index and float formatting is fixed, which makes
exports byte-identical regardless of worker count.

A sweep's memory is bounded by its result table: jobs are planned and
looked up in the cache one at a time, each finished cell is written into
the preallocated table at once and kept otherwise only as its extra and
its serialized cache file, at most two jobs per worker are in flight,
and exports stream a block of rows at a time.

Wall-clock timings are kept on the result object for profiling but excluded
from both equality and exports; everything else round-trips through the JSON
export losslessly.

Every solver runs OpenBLAS at one thread (``circuit._one_blas_thread``).  A
sweep also holds that count for its whole length, so the steps between the
solves (the polariton fit, the Ramsey estimator) run at it too, and every
worker process pins it when it starts: more threads would oversubscribe the
cores under the workers.  So exports depend neither on the core count nor
on ``OPENBLAS_NUM_THREADS``.  Parallelism comes from cells across at most
one worker process per usable core.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .circuit import _one_blas_thread, _openblas_controls
from .config import GridSpec, RunConfig, emit_config
from .errors import ExportError
from .tasks import REGISTRY, Task

SCHEMA_VERSION = 1

_AXIS_UNITS = {"phi_dc": "Phi0", "xi": "Phi0", "omega": "GHz", "omega_p": "GHz"}

# finished cells are written in batches at most this far apart: on a 2-core
# VM a file written between two solves took about 1 ms against 0.1-0.4 ms in
# a batch, and a hard kill of the sweep loses at most this much finished work
_SAVE_INTERVAL_S = 1.0


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
# worker count
# ---------------------------------------------------------------------------


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# planning and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Job:
    jid: int
    fn: Callable
    coords: dict
    row_indices: tuple
    key: str


def _execute(config: RunConfig, job: _Job) -> dict:
    """Run one job; solver failures become data, not aborts."""
    start = time.perf_counter()
    try:
        out = job.fn(config, job.coords)
    except Exception as exc:  # noqa: BLE001, per-cell failures are masked
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["seconds"] = time.perf_counter() - start
    return out


# the RunConfig of a pool worker, sent once by the pool initializer
_worker_config: RunConfig | None = None


def _init_worker(config: RunConfig) -> None:
    global _worker_config
    _worker_config = config
    with warnings.catch_warnings():  # a missing build was reported by the parent
        warnings.simplefilter("ignore")
        for setter, _ in _openblas_controls():
            setter(1)


def _execute_in_worker(job: _Job) -> dict:
    return _execute(_worker_config, job)


def _job_key(identity: str, coords: dict) -> str:
    """sha256 of a job's inputs; json writes each float coordinate as its exact repr."""
    text = json.dumps([identity, SCHEMA_VERSION, __version__, coords])
    return hashlib.sha256(text.encode()).hexdigest()


def _plan(task: Task, config: RunConfig):
    """Axes and a lazy iterator of cell jobs for one task.

    A cell job is keyed by the physics config without its grid plus its
    coordinates, so every grid holding the cell shares its cache entry.
    Jobs are drawn, and their keys hashed, one at a time.
    """
    if task.plan is not None:
        axes, cells = task.plan(config)
    else:
        axes = {a: tuple(sorted(float(v) for v in getattr(config.grid, a))) for a in task.axes}
        cells = ((dict(zip(axes, point)), (i,))
                 for i, point in enumerate(itertools.product(*axes.values())))
    cell_identity = config_hash(replace(config, grid=GridSpec()))
    jobs = (_Job(i, task.job, coords, rows, _job_key(cell_identity, coords))
            for i, (coords, rows) in enumerate(cells))
    return axes, jobs


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_path(cache_dir: str, job: _Job) -> str:
    # a plain string: pathlib would parse and intern every cell's file name
    return os.path.join(cache_dir, f"{job.key}.json")


def _load_cache(path: str, job: _Job, n_cols: int):
    """The cached output of ``job``, or None if absent, unreadable or not its cell."""
    try:
        with open(path, encoding="utf-8") as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(out, dict) or out.get("coords") != job.coords:
        return None
    rows = out.get("rows")
    if not isinstance(rows, list) or len(rows) != len(job.row_indices):
        return None
    if any(not isinstance(r, list) or len(r) != n_cols for r in rows):
        return None
    if not {type(v) for r in rows for v in r} <= {int, float}:  # no strings, bools or nulls
        return None
    return out


def _write_whole(path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` whole or not at all: through a
    sibling ``.tmp`` file renamed onto it, which is removed also when the
    write or the rename is cut, so neither a truncated target nor the temp
    file stays."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cache_text(job: _Job, out: dict) -> str:
    payload = {"coords": job.coords, "rows": out["rows"]}
    if out.get("extra") is not None:
        payload["extra"] = out["extra"]
    return json.dumps(payload)


def _grid_step(task: Task, config: RunConfig, table: SweepResult, extras: list,
               data: np.ndarray | None, cache_dir: str) -> dict:
    """The whole-grid step's payload; keyed by the full config and ``data``'s
    shape and bytes, and cached only when non-empty and every cell it read ran."""
    identity = config_hash(config)
    if data is not None:
        identity += f" {data.shape} " + hashlib.sha256(data.tobytes()).hexdigest()
    job = _Job(0, lambda cfg, _: task.grid_job(cfg, table, extras, data), {}, (),
               _job_key(identity, {}))
    path = _cache_path(cache_dir, job)
    out = _load_cache(path, job, 0)
    if out is None:
        out = _execute(config, job)
        if out.get("extra") and not table.mask.any():
            _write_whole(path, (_cache_text(job, out),))
    return {task.grid_key: {"error": out["error"]}} if "error" in out else out["extra"]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


# jobs submitted to the pool per worker and not yet recorded: enough to keep
# every worker busy while the parent records a result, and no more, so the
# pending work does not grow with the grid
_IN_FLIGHT_PER_WORKER = 2


@_one_blas_thread()
def run_sweep(config: RunConfig) -> SweepResult:
    """Evaluate the configured task over its grid.

    Cells already present in the cell cache are loaded instead of recomputed,
    and computed cells are cached within a second and whenever the sweep
    stops, so a sweep cut by Ctrl-C or a dead worker keeps its finished
    cells.  Each cell's rows go into the result table as the cell finishes;
    the sweep keeps besides only the cells' extras and a bounded number of
    jobs in flight.  Once every cell has finished, the task's whole-grid
    step, if it has one, runs here on the table, the extras and what the
    task's check returned.  Per-cell solver failures mask the affected rows
    with a reason and never abort the sweep.  Output directory I/O errors
    do abort.  The sweep runs OpenBLAS at one thread, in at most one worker
    process per usable core, and restores the caller's BLAS thread counts
    when it returns or raises.

    Raises:
        ConfigError: the grid or sections do not fit the task.
    """
    task = REGISTRY[config.task]
    data = task.check(config)
    axes, jobs = _plan(task, config)
    columns = tuple(name for name, _ in task.columns)
    units = tuple(_AXIS_UNITS[a] for a in axes) + tuple(unit for _, unit in task.columns)
    cache_dir = os.path.join(config.output, ".cells")
    os.makedirs(cache_dir, exist_ok=True)

    n_axes = len(axes)
    shape = tuple(len(values) for values in axes.values())
    table = np.full((math.prod(shape), n_axes + len(columns)), np.nan)
    for k, grid in enumerate(np.meshgrid(*axes.values(), indexing="ij", copy=False)):
        table[:, k] = grid.ravel()
    mask = np.zeros(table.shape[0], dtype=bool)
    reasons: dict = {}
    timings = np.zeros(table.shape[0])
    extras: dict[int, dict] = {}  # jid -> extra, of the cells that return one

    def record(job: _Job, out: dict) -> None:
        rows = list(job.row_indices)
        if "error" in out:
            mask[rows] = True
            reasons.update(dict.fromkeys(rows, out["error"]))
        else:
            table[rows, n_axes:] = out["rows"]
            if "extra" in out:
                extras[job.jid] = out["extra"]
        timings[rows] = float(out.get("seconds", 0.0)) / len(rows)  # 0 for cache hits

    def uncached():
        for job in jobs:
            cached = _load_cache(_cache_path(cache_dir, job), job, len(columns))
            if cached is None:
                yield job
            else:
                record(job, cached)

    unsaved: list[tuple] = []  # (path, text) of finished cells not yet on disk
    saved_at = time.monotonic()

    def save() -> None:
        nonlocal saved_at
        for path, text in unsaved:
            _write_whole(path, (text,))
        unsaved.clear()
        saved_at = time.monotonic()

    def finish(job: _Job, out: dict) -> None:
        record(job, out)
        if "error" not in out:
            unsaved.append((_cache_path(cache_dir, job), _cache_text(job, out)))
        if time.monotonic() - saved_at >= _SAVE_INTERVAL_S:
            save()

    try:
        todo = uncached()
        n_max = min(config.workers, _usable_cores())
        first = list(itertools.islice(todo, n_max))  # no more workers than cells to compute
        todo = itertools.chain(first, todo)
        if len(first) <= 1:
            for job in todo:
                finish(job, _execute(config, job))
        else:
            n_workers = len(first)
            with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                     initargs=(config,)) as pool:
                in_flight: dict = {}  # future -> job; dropped once its result is recorded

                def collect(limit: int) -> None:
                    while len(in_flight) > limit:
                        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                        for fut in done:
                            finish(in_flight.pop(fut), fut.result())

                try:
                    for job in todo:
                        collect(_IN_FLIGHT_PER_WORKER * n_workers - 1)
                        in_flight[pool.submit(_execute_in_worker, job)] = job
                    collect(0)
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    finally:  # also on Ctrl-C or a dead worker: finished cells are kept
        save()

    result = SweepResult(
        task=config.task,
        axes=axes,
        columns=columns,
        units=units,
        rows=table,
        mask=mask,
        reasons=reasons,
        extra={},
        config_hash=config_hash(config),
        timings=timings,
    )
    extras_in_order = [extras[jid] for jid in sorted(extras)]
    if task.grid_job is not None:
        extra = _grid_step(task, config, result, extras_in_order, data, cache_dir)
    else:
        extra = {k: v for e in extras_in_order for k, v in e.items()}
    return replace(result, extra=extra)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return "%.17g" % value


# rows rendered into one text chunk at a time: an export holds at most this
# many row strings at once, not one per row of the table
_CSV_BLOCK_ROWS = 4096
# json's encoder holds about 150 bytes per value of the block it encodes
# (its list of chunks), so json rows go in smaller blocks
_JSON_BLOCK_ROWS = 1024


def _render_csv(result: SweepResult):
    n_axes = len(result.axes)
    # each distinct axis value, told apart by its bits, is formatted once
    axis_bits, axis_text = [], []
    for col in result.rows[:, :n_axes].T:
        bits = np.unique(col.view(np.uint64))
        axis_bits.append(bits)
        axis_text.append(np.array([_fmt(v) for v in bits.view(np.float64)], dtype=object))
    yield ",".join(result.header + ("mask",)) + "\n" + ",".join(result.units + ("bool",)) + "\n"
    for lo in range(0, result.rows.shape[0], _CSV_BLOCK_ROWS):
        block = result.rows[lo:lo + _CSV_BLOCK_ROWS]
        axis_cells = [text[np.searchsorted(bits, col.view(np.uint64))]
                      for bits, text, col in zip(axis_bits, axis_text, block[:, :n_axes].T)]
        rows = zip(*axis_cells, block[:, n_axes:].tolist(),
                   result.mask[lo:lo + _CSV_BLOCK_ROWS].tolist())
        yield "".join(",".join([*coords, *map(_fmt, data), "1\n" if masked else "0\n"])
                      for *coords, data, masked in rows)


def _render_json(result: SweepResult):
    doc = {
        "schema_version": result.schema_version,
        "task": result.task,
        "config_hash": result.config_hash,
        "axes": {k: list(v) for k, v in result.axes.items()},
        "columns": list(result.columns),
        "units": list(result.units),
        "rows": [],
        "mask": [],
        "reasons": {str(k): result.reasons[k] for k in sorted(result.reasons)},
        "extra": result.extra,
    }
    # the bytes of json.dumps(doc, indent=1) with the table streamed in; a raw
    # newline occurs only between items, never inside a string
    head, _, tail = json.dumps(doc, indent=1).partition('\n "rows": [],\n "mask": []')
    yield head + '\n "rows": '
    yield from _json_list(result.rows)
    yield ',\n "mask": '
    yield from _json_list(result.mask)
    yield tail + "\n"


def _json_list(table):
    """``table.tolist()`` as json.dumps(doc, indent=1) writes a value of doc,
    a block of rows at a time: each block is dumped as such a value itself."""
    if not len(table):
        yield "[]"
        return
    for lo in range(0, len(table), _JSON_BLOCK_ROWS):
        text = json.dumps({"": table[lo:lo + _JSON_BLOCK_ROWS].tolist()}, indent=1)
        yield ("," if lo else "[") + text[len('{\n "": ['):-len('\n ]\n}')]
    yield "\n ]"


def _render_plotdata(result: SweepResult):
    """Long-form x, y, value, series table; masked cells are dropped.

    With one axis y is 0; with more than two the trailing coordinates are
    folded into the series label.
    """
    names = result.axis_names
    n_axes = len(names)
    yield "x,y,value,series\n"
    for ci, col in enumerate(result.columns):
        for lo in range(0, result.rows.shape[0], _CSV_BLOCK_ROWS):
            block = result.rows[lo:lo + _CSV_BLOCK_ROWS][~result.mask[lo:lo + _CSV_BLOCK_ROWS]]
            lines = []
            for row in block.tolist():
                y = row[1] if n_axes > 1 else 0.0
                series = col
                if n_axes > 2:
                    tail = ";".join(f"{names[a]}={_fmt(row[a])}" for a in range(2, n_axes))
                    series = f"{col}|{tail}"
                lines.append(f"{_fmt(row[0])},{_fmt(y)},{_fmt(row[n_axes + ci])},{series}\n")
            yield "".join(lines)


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
    The file is written whole or not at all, also when the export is cut.

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
    _write_whole(path, render(result))
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

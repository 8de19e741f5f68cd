"""Sweep orchestration: determinism, caching, exports, failure masking."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import _blas_threads
from scipy.optimize import brentq

from floqlux import (
    CavityParams,
    CircuitParams,
    ConfigError,
    DiagnosticError,
    DriveParams,
    ExportError,
    FluxBias,
    GridSpec,
    NoiseModel,
    PolaritonSpec,
    ProbeParams,
    RamseyConfig,
    RunConfig,
    SambeConfig,
    SweepResult,
    config_hash,
    diagonalize_static,
    export,
    import_result,
    parse_config,
    run_sweep,
    solve_floquet,
    spectroscopy_map,
    synth_polariton_data,
    transition_spline,
)
import floqlux.circuit
import floqlux.decoherence
import floqlux.floquet
import floqlux.spectroscopy
import floqlux.tasks
from floqlux.cli import main
from floqlux import sweeps
from floqlux.tasks import REGISTRY, Task


@pytest.fixture()
def small_cfg(tmp_path):
    return RunConfig(
        task="floquet",
        grid=GridSpec(phi_dc=(0.48, 0.5), xi=(0.0, 0.04), omega=(0.4,)),
        output=str(tmp_path / "out"),
    )


def test_row_order_and_axis_columns(small_cfg):
    res = run_sweep(small_cfg)
    assert res.axis_names == ("phi_dc", "xi", "omega")
    assert res.rows.shape[0] == small_cfg.grid.size
    # lexicographic over (phi_dc, xi, omega)
    want = [(0.48, 0.0), (0.48, 0.04), (0.5, 0.0), (0.5, 0.04)]
    got = [tuple(r) for r in res.rows[:, :2]]
    assert got == want
    assert not res.mask.any()


def test_single_cell_matches_direct_call(tmp_path, params):
    cfg = RunConfig(task="static-spectrum", grid=GridSpec(phi_dc=(0.47,)),
                    output=str(tmp_path / "o"))
    res = run_sweep(cfg)
    spec = diagonalize_static(params, FluxBias(0.47))
    assert res.column("f01")[0] == pytest.approx(spec.transition(0, 1), abs=1e-15)
    assert res.column("n01_abs")[0] == pytest.approx(abs(spec.n_elements[0, 1]), abs=1e-15)


def test_worker_count_invariance(small_cfg, tmp_path):
    a = dataclasses.replace(small_cfg, output=str(tmp_path / "w1"), workers=1)
    b = dataclasses.replace(small_cfg, output=str(tmp_path / "w3"), workers=3)
    ra, rb = run_sweep(a), run_sweep(b)
    assert ra == rb
    for fmt in ("csv", "json", "plotdata"):
        pa = export(ra, tmp_path / "ea", fmt)[0].read_bytes()
        pb = export(rb, tmp_path / "eb", fmt)[0].read_bytes()
        assert pa == pb


def test_cache_resumability(small_cfg):
    first = run_sweep(small_cfg)
    assert np.all(first.timings > 0)
    second = run_sweep(small_cfg)
    assert second == first
    assert np.all(second.timings == 0)  # every cell came from cache


def test_cache_partial_invalidation(small_cfg, tmp_path):
    first = run_sweep(small_cfg)
    cells = sorted((tmp_path / "out" / ".cells").rglob("*.json"))
    assert len(cells) == small_cfg.grid.size
    cells[2].unlink()
    again = run_sweep(small_cfg)
    assert again == first
    assert int(np.count_nonzero(again.timings)) == 1  # only the evicted cell


def test_corrupt_cache_recomputed(small_cfg):
    first = run_sweep(small_cfg)
    cells = sorted((Path(small_cfg.output) / ".cells").rglob("*.json"))
    cells[0].write_text("{not json")
    again = run_sweep(small_cfg)
    assert again == first


def _cell_files(cfg) -> list:
    return sorted((Path(cfg.output) / ".cells").glob("*.json"))


def _computed(result) -> int:
    return int(np.count_nonzero(result.timings))


def _string_in_row(cells):
    doc = json.loads(cells[0].read_text())
    doc["rows"][0][0] = "x"
    cells[0].write_text(json.dumps(doc))


def _other_cells_content(cells):
    cells[0].write_text(cells[1].read_text())  # well-formed, filed under the wrong key


@pytest.mark.parametrize("corrupt", [_string_in_row, _other_cells_content],
                         ids=["type", "coords"])
def test_invalid_cell_recomputed(small_cfg, corrupt):
    first = run_sweep(small_cfg)
    corrupt(_cell_files(small_cfg))
    again = run_sweep(small_cfg)
    assert again == first
    assert _computed(again) == 1


def test_cell_of_another_package_version_recomputed(small_cfg, monkeypatch):
    # a change to cell outputs bumps the version, so cells it wrote are never read back
    first = run_sweep(small_cfg)
    monkeypatch.setattr(sweeps, "__version__", sweeps.__version__ + ".other")
    again = run_sweep(small_cfg)
    assert _computed(again) == small_cfg.grid.size
    assert again == first
    assert len(_cell_files(small_cfg)) == 2 * small_cfg.grid.size


def test_extended_axes_compute_only_new_cells(tmp_path):
    # the refinement pattern: 4 -> 7 xi, then 2 -> 4 omega on shared linspaces
    def cfg(n_xi, n_om, out="out"):
        text = (f'task = "floquet"\n[grid]\nphi_dc = 0.48\nxi = "0:0.06:{n_xi}"\n'
                f'omega = "0.4:0.7:{n_om}"\n')
        return dataclasses.replace(parse_config(text), output=str(tmp_path / out))

    assert _computed(run_sweep(cfg(4, 2))) == 8
    assert _computed(run_sweep(cfg(7, 2))) == 14 - 8
    refined = run_sweep(cfg(7, 4))
    assert _computed(refined) == 28 - 14
    assert _computed(run_sweep(cfg(7, 4))) == 0
    assert refined == run_sweep(cfg(7, 4, out="fresh"))


@pytest.mark.parametrize("task", list(REGISTRY))
def test_cell_jobs_ignore_the_grid(task, tmp_path):
    # a cell's output is a function of its coords and the grid-free config,
    # which is all its cache key holds
    probe = ProbeParams(omega_p=(0.6, 0.7, 0.8))
    cfg = RunConfig(task=task, probe=probe, output=str(tmp_path / "o"))
    other = dataclasses.replace(
        cfg, grid=GridSpec(phi_dc=(0.45, 0.5), xi=(0.05, 0.0), omega=(0.6, 0.5)))
    _, jobs = sweeps._plan(REGISTRY[task], cfg)
    job = next(iter(jobs))
    a, b = job.fn(cfg, job.coords), job.fn(other, job.coords)
    assert "error" not in a
    assert json.dumps(a) == json.dumps(b)


def test_spectroscopy_fixed_axis_change_recomputes(tmp_path):
    cfg = RunConfig(
        task="spectroscopy",
        grid=GridSpec(phi_dc=(0.45, 0.46), xi=(0.0,), omega=(0.5,)),
        probe=ProbeParams(omega_p=(0.70, 0.72, 0.74)),
        output=str(tmp_path / "o"),
    )
    first = run_sweep(cfg)
    moved = run_sweep(dataclasses.replace(cfg, grid=GridSpec(phi_dc=(0.45, 0.46), xi=(0.05,),
                                                             omega=(0.5,))))
    assert _computed(moved) == 6
    assert moved.extra["fixed"] == {"xi": 0.05, "omega": 0.5}
    assert not np.array_equal(moved.column("p1"), first.column("p1"))
    # a longer sweep at the first drive point reuses its two columns
    longer = run_sweep(dataclasses.replace(cfg, grid=GridSpec(phi_dc=(0.45, 0.455, 0.46),
                                                              xi=(0.0,), omega=(0.5,))))
    assert _computed(longer) == 3
    assert np.array_equal(longer.column("p1")[[0, 1, 2, 6, 7, 8]], first.column("p1"))


def _interrupt_on_third_cell(job):
    calls = []

    def flaky(config, coords):
        calls.append(coords)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return job(config, coords)

    return flaky


def test_interrupted_sweep_keeps_finished_cells(small_cfg, monkeypatch):
    task = REGISTRY["floquet"]
    with monkeypatch.context() as m:
        m.setitem(REGISTRY, "floquet",
                  dataclasses.replace(task, job=_interrupt_on_third_cell(task.job)))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(small_cfg)
    assert len(_cell_files(small_cfg)) == 2
    again = run_sweep(small_cfg)
    assert _computed(again) == small_cfg.grid.size - 2
    assert again == run_sweep(dataclasses.replace(small_cfg, output=small_cfg.output + "-fresh"))


_FLOQUET_JOB = REGISTRY["floquet"].job


def _die_after_the_others(config, coords):
    # the last cell kills its worker, but only once every other cell is on
    # disk; if they never get there while the pool runs, no worker dies
    if coords["xi"] == 0.04 and coords["phi_dc"] == 0.5:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if len(list((Path(config.output) / ".cells").glob("*.json"))) == 3:
                os._exit(1)
            time.sleep(0.01)
    return _FLOQUET_JOB(config, coords)


def test_dead_worker_keeps_finished_cells(small_cfg, monkeypatch):
    monkeypatch.setattr(sweeps, "_SAVE_INTERVAL_S", 0.0)  # save each cell as it returns
    # two usable cores whatever the host has, so the dying cell runs in a worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = dataclasses.replace(small_cfg, workers=2)
    with monkeypatch.context() as m:
        m.setitem(REGISTRY, "floquet",
                  dataclasses.replace(REGISTRY["floquet"], job=_die_after_the_others))
        with pytest.raises(BrokenProcessPool):
            run_sweep(cfg)
    assert len(_cell_files(cfg)) == 3
    assert _computed(run_sweep(cfg)) == 1


def _job_reporting_blas_threads(config, coords):
    numpy_threads, scipy_threads = _blas_threads()
    return {"rows": [[numpy_threads, scipy_threads, 0.0, 0.0, 0.0, 0.0, 0.0]]}


@pytest.mark.parametrize("workers", [1, 2])
def test_jobs_run_at_one_blas_thread(small_cfg, two_blas_threads, monkeypatch, workers):
    monkeypatch.setitem(REGISTRY, "floquet",
                        dataclasses.replace(REGISTRY["floquet"], job=_job_reporting_blas_threads))
    res = run_sweep(dataclasses.replace(small_cfg, workers=workers))
    assert res.column("eps01_natural").tolist() == [1.0] * small_cfg.grid.size  # numpy's
    assert res.column("eps01_folded").tolist() == [1.0] * small_cfg.grid.size  # scipy's
    assert _blas_threads() == (2, 2)


def test_blas_threads_restored_when_a_sweep_raises(small_cfg, two_blas_threads, monkeypatch):
    task = REGISTRY["floquet"]
    monkeypatch.setitem(REGISTRY, "floquet",
                        dataclasses.replace(task, job=_interrupt_on_third_cell(task.job)))
    with pytest.raises(KeyboardInterrupt):
        run_sweep(small_cfg)
    assert _blas_threads() == (2, 2)


def test_missing_blas_symbol_warns_once(small_cfg, tmp_path, monkeypatch):
    circuit = floqlux.circuit
    monkeypatch.setattr(circuit, "_OPENBLAS",
                        circuit._OPENBLAS[:1] + (("scipy", "no_such_setter", "no_such_getter"),))
    circuit._openblas_controls.cache_clear()
    try:
        with pytest.warns(RuntimeWarning) as caught:
            for name in ("a", "b"):
                cfg = dataclasses.replace(small_cfg, output=str(tmp_path / name), workers=2)
                export(run_sweep(cfg), tmp_path / name)
        blas = [w for w in caught if "OpenBLAS" in str(w.message)]
        assert len(blas) == 1 and "no_such_setter" in str(blas[0].message)
        assert (tmp_path / "b" / "floquet.csv").read_text().count("\n") == 2 + small_cfg.grid.size
    finally:
        circuit._openblas_controls.cache_clear()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs jobs inline."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, cores, sizes", [
    (8, 3, [3]), (2, 3, [2]), (8, 64, [4]), (8, 1, []),
], ids=["cores", "workers", "jobs", "serial"])
def test_pool_capped_at_usable_cores(small_cfg, monkeypatch, workers, cores, sizes):
    made = []
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor",
                        lambda **kwargs: _InlinePool(made, **kwargs))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    res = run_sweep(dataclasses.replace(small_cfg, workers=workers))
    assert made == sizes
    assert not res.mask.any()


def _stub_job(config, coords):
    return {"rows": [[coords["phi_dc"], coords["xi"], 0.0, 0.0, 0.0, 0.0, 0.0]]}


def _stub_sweep(tmp_path, monkeypatch, n_phi, n_xi, workers=1, job=_stub_job) -> RunConfig:
    """A floquet-shaped sweep of n_phi x n_xi cells whose job costs nothing."""
    monkeypatch.setitem(REGISTRY, "floquet", dataclasses.replace(REGISTRY["floquet"], job=job))
    grid = GridSpec(phi_dc=tuple(np.linspace(0.4, 0.5, n_phi)),
                    xi=tuple(np.linspace(0.0, 0.1, n_xi)), omega=(0.4,))
    return RunConfig(task="floquet", grid=grid, output=str(tmp_path / "o"), workers=workers)


def test_pool_keeps_two_jobs_per_worker_in_flight(tmp_path, monkeypatch):
    cfg = _stub_sweep(tmp_path, monkeypatch, 10, 3, workers=2)
    unread, most_unread = [0], [0]

    class CountedFuture(Future):
        def result(self, timeout=None):
            unread[0] -= 1
            return super().result(timeout)

    class CountingPool(_InlinePool):
        def submit(self, fn, *args):
            unread[0] += 1
            most_unread[0] = max(most_unread[0], unread[0])
            future = CountedFuture()
            future.set_result(fn(*args))
            return future

    made = []
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor",
                        lambda **kwargs: CountingPool(made, **kwargs))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    res = run_sweep(cfg)
    assert made == [2] and not res.mask.any()
    assert np.array_equal(res.column("eps01_natural"), res.column("phi_dc"))
    assert most_unread[0] == 2 * 2 and unread[0] == 0


def test_sweep_plans_lazily(tmp_path, monkeypatch):
    # the first job runs once its own key is hashed, not after every key
    hashed, hashed_at_first_job = [], []
    job_key = sweeps._job_key
    monkeypatch.setattr(sweeps, "_job_key", lambda *args: hashed.append(1) or job_key(*args))

    def job(config, coords):
        hashed_at_first_job.append(len(hashed))
        return _stub_job(config, coords)

    run_sweep(_stub_sweep(tmp_path, monkeypatch, 10, 10, job=job))
    assert hashed_at_first_job[0] == 1 and len(hashed) == 100


def test_sweep_memory_is_bounded_by_its_table(tmp_path, monkeypatch):
    # disk writes are stubbed out and each cell is saved as it finishes, so the
    # traced peak is what the sweep itself holds: its table, the plan and the
    # jobs in flight, not every cell's output
    cfg = _stub_sweep(tmp_path, monkeypatch, 100, 100)
    monkeypatch.setattr(sweeps, "_write_whole", lambda path, chunks: None)
    monkeypatch.setattr(sweeps, "_SAVE_INTERVAL_S", 0.0)
    tracemalloc.start()
    try:
        res = run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rows.shape == (10**4, 10) and not res.mask.any()
    assert peak < 2 * res.rows.nbytes + 10**6


_EXPORT_CSV_AND_JSON = """
import sys
from floqlux.cli import main
for fmt in ("csv", "json"):
    if main(["coherence", "--config", sys.argv[1], "--out", sys.argv[2], "--format", fmt]):
        sys.exit(1)
"""


def test_exports_ignore_the_blas_thread_setting(tmp_path):
    # one interpreter per setting: OpenBLAS reads it when it loads
    config = tmp_path / "run.cfg"
    config.write_text('task = "coherence"\n[grid]\nphi_dc = 0.451\n'
                      'xi = "0.0:0.12:4"\nomega = [0.7, 0.8]\n')
    src = str(Path(__file__).resolve().parents[1] / "src")
    exports = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-c", _EXPORT_CSV_AND_JSON, str(config), str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        exports.append({p.name: p.read_bytes() for p in out.glob("coherence.*")})
    assert sorted(exports[0]) == ["coherence.csv", "coherence.json"]
    assert exports[0] == exports[1] == exports[2]


def _peak_file(path: Path, g0: float) -> str:
    # transmission peaks around the m = 0 crossing of the 0 -> 3 line
    cavity = CavityParams()
    curve = transition_spline(CircuitParams(), 0, 3, 0.28, 0.33, 61)
    star = brentq(lambda p: float(curve(p)) - cavity.omega_c, 0.281, 0.329)
    phis = np.linspace(star - 3e-3, star + 3e-3, 15)
    np.savetxt(path, synth_polariton_data(cavity, curve, 0.2, {0: g0}, None, phis))
    return str(path)


def test_polariton_fit_follows_data_file_contents(tmp_path):
    data = tmp_path / "peaks.txt"
    cfg = RunConfig(
        task="polariton",
        grid=GridSpec(phi_dc=(0.3,), xi=(0.05,), omega=(0.2,)),
        polariton=PolaritonSpec(data_file=_peak_file(data, 0.02)),
        output=str(tmp_path / "o"),
    )
    first = run_sweep(cfg).extra["fit"]
    _peak_file(data, 0.04)  # same path, new contents
    second = run_sweep(cfg).extra["fit"]
    assert first["g_m"]["0"] == pytest.approx(0.02, rel=1e-2)
    assert second["g_m"]["0"] == pytest.approx(0.04, rel=1e-2)


def test_polariton_run_reads_its_data_file_once(tmp_path, monkeypatch, capsys):
    # the check reads and validates the peak table; the fit and its key use that copy
    data = _peak_file(tmp_path / "peaks.txt", 0.02)
    cfg = tmp_path / "run.cfg"
    cfg.write_text('task = "polariton"\n[grid]\nphi_dc = 0.3\nxi = 0.05\nomega = 0.2\n'
                   f'[polariton]\ndata_file = "{data}"\n')
    reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: reads.append(a[0]) or loadtxt(*a, **k))
    assert main(["polariton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert reads == [data]


def test_polariton_run_without_data_file_caches_only_its_cell(tmp_path, capsys):
    # with no peak table the whole-grid step has nothing to keep
    cfg = tmp_path / "run.cfg"
    cfg.write_text('task = "polariton"\n[grid]\nphi_dc = 0.3\nxi = 0.05\nomega = 0.2\n')
    out = tmp_path / "o"
    assert main(["polariton", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "polariton.csv").read_bytes()
    assert len(list((out / ".cells").glob("*.json"))) == 1
    assert main(["polariton", "--config", str(cfg), "--out", str(out), "--overwrite"]) == 0
    capsys.readouterr()
    assert (out / "polariton.csv").read_bytes() == first
    assert len(list((out / ".cells").glob("*.json"))) == 1


def test_polariton_fit_cache_ignores_comments_and_whitespace(tmp_path, monkeypatch):
    # the fit's key hashes the parsed table, not the file's bytes
    data = tmp_path / "peaks.txt"
    cfg = RunConfig(
        task="polariton",
        grid=GridSpec(phi_dc=(0.3,), xi=(0.05,), omega=(0.2,)),
        polariton=PolaritonSpec(data_file=_peak_file(data, 0.02)),
        output=str(tmp_path / "o"),
    )
    first = run_sweep(cfg)
    rows = data.read_text().splitlines()
    data.write_text("# phi_dc freq_ghz\n\n"
                    + "".join("  " + "\t".join(r.split()) + "  # peak\n" for r in rows))
    monkeypatch.setattr(floqlux.tasks, "fit_polariton", lambda *a, **k: pytest.fail("refit"))
    assert run_sweep(cfg) == first


def test_grid_step_key_covers_the_table_shape(tmp_path):
    # a (6, 2) and a (4, 3) table of the same 12 floats are different inputs
    shapes = []

    def step(config, table, extras, data):
        shapes.append(data.shape)
        return {"rows": [], "extra": {"shape": list(data.shape)}}

    task = Task(columns=(), job=None, grid_job=step, grid_key="step")
    table = SimpleNamespace(mask=np.zeros(0, dtype=bool))
    values = np.arange(12.0)
    for shape in ((6, 2), (4, 3), (6, 2)):
        sweeps._grid_step(task, RunConfig(task="polariton"), table, [],
                          values.reshape(shape), str(tmp_path))
    assert shapes == [(6, 2), (4, 3)]  # the third step came from the cache


def test_config_hash_ignores_execution_keys(small_cfg):
    other = dataclasses.replace(small_cfg, output="elsewhere", workers=7,
                                format="json", overwrite=True)
    assert config_hash(other) == config_hash(small_cfg)
    physics = dataclasses.replace(small_cfg, grid=GridSpec(phi_dc=(0.49,)))
    assert config_hash(physics) != config_hash(small_cfg)


def test_csv_layout(small_cfg, tmp_path):
    res = run_sweep(small_cfg)
    path = export(res, tmp_path / "csv", "csv")[0]
    lines = path.read_text().splitlines()
    assert len(lines) == small_cfg.grid.size + 2
    header = lines[0].split(",")
    assert header[:3] == ["phi_dc", "xi", "omega"]
    assert header[-1] == "mask"
    units = lines[1].split(",")
    assert units[0] == "Phi0" and units[-1] == "bool"
    assert all(len(line.split(",")) == len(header) for line in lines[2:])


def test_csv_formats_every_cell_as_its_own_value(monkeypatch):
    # repeated, signed-zero, non-finite and masked values, over two row
    # blocks; each cell must read as "%.17g" of its own value, as a per-cell
    # loop writes it
    monkeypatch.setattr(sweeps, "_CSV_BLOCK_ROWS", 4)
    rows = np.array([[0.5, 0.0, 1.0 / 3.0], [0.5, -0.0, np.nan], [-0.0, 0.1, np.inf],
                     [0.0, 0.1, -np.inf], [0.5, 0.1, 1.0 / 3.0], [1e-300, 0.1, -0.0]])
    res = SweepResult(task="floquet", axes={"phi_dc": (-0.0, 0.0, 1e-300, 0.5), "xi": (0.0, 0.1)},
                      columns=("eps",), units=("Phi0", "Phi0", "GHz"), rows=rows,
                      mask=np.array([False, True, False, False, False, True]),
                      reasons={}, extra={}, config_hash="")
    text = "".join(sweeps._render_csv(res))
    assert text.endswith("\n") and not text.endswith("\n\n")
    body = text.splitlines()[2:]
    assert body == [",".join(["%.17g" % v for v in row] + [str(int(m))])
                    for row, m in zip(rows, res.mask)]


def _csv_reference(result) -> str:
    """The csv as one string, formatted one cell at a time."""
    lines = [",".join(result.header + ("mask",)), ",".join(result.units + ("bool",))]
    lines += [",".join(["%.17g" % v for v in row] + [str(int(m))])
              for row, m in zip(result.rows.tolist(), result.mask)]
    return "\n".join(lines) + "\n"


def _plotdata_reference(result) -> str:
    """The plotdata table as one string, one row of the table at a time."""
    names = result.axis_names
    lines = ["x,y,value,series"]
    for ci, col in enumerate(result.columns):
        for row, masked in zip(result.rows.tolist(), result.mask):
            if not masked:
                tail = ";".join(f"{names[a]}=%.17g" % row[a] for a in range(2, len(names)))
                lines.append("%.17g,%.17g,%.17g,%s" % (row[0], row[1], row[len(names) + ci],
                                                       f"{col}|{tail}"))
    return "\n".join(lines) + "\n"


def test_streamed_exports_match_one_string_renderings(tmp_path):
    # more than two csv blocks plus a partial one, with repeated, masked and
    # non-finite values
    axes = {"phi_dc": tuple(np.linspace(0.4, 0.5, 41)), "xi": tuple(np.linspace(0.0, 0.1, 101)),
            "omega": (0.4, 0.7)}
    n = 41 * 101 * 2
    assert 2 * sweeps._CSV_BLOCK_ROWS < n < 3 * sweeps._CSV_BLOCK_ROWS
    rng = np.random.default_rng(3)
    data = rng.normal(size=(n, 2))
    data[rng.integers(0, n, 50), 0] = np.nan
    data[rng.integers(0, n, 5), 1] = -np.inf
    rows = np.hstack([np.array(list(itertools.product(*axes.values()))), data])
    mask = rng.random(n) < 0.1
    res = SweepResult(task="floquet", axes=axes, columns=("a", "b"),
                      units=("Phi0", "Phi0", "GHz", "GHz", "1"), rows=rows, mask=mask,
                      reasons={int(r): "DiagnosticError: masked" for r in np.flatnonzero(mask)},
                      extra={"note": [1.5, None]}, config_hash="abc")
    doc = {
        "schema_version": res.schema_version,
        "task": "floquet",
        "config_hash": "abc",
        "axes": {k: list(v) for k, v in axes.items()},
        "columns": ["a", "b"],
        "units": list(res.units),
        "rows": rows.tolist(),
        "mask": mask.tolist(),
        "reasons": {str(r): res.reasons[r] for r in sorted(res.reasons)},
        "extra": {"note": [1.5, None]},
    }
    want = {"csv": _csv_reference(res), "json": json.dumps(doc, indent=1) + "\n",
            "plotdata": _plotdata_reference(res)}
    for fmt, text in want.items():
        assert export(res, tmp_path, fmt)[0].read_bytes() == text.encode(), fmt


def test_json_roundtrip(small_cfg, tmp_path):
    res = run_sweep(small_cfg)
    path = export(res, tmp_path / "json", "json")[0]
    assert import_result(path) == res
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == res.schema_version


def test_plotdata_long_form(small_cfg, tmp_path):
    res = run_sweep(small_cfg)
    path = export(res, tmp_path / "plot", "plotdata")[0]
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value,series"
    assert len(lines) == 1 + len(res.columns) * res.rows.shape[0]
    series = {line.split(",")[3] for line in lines[1:]}
    # the third axis is folded into the series labels
    assert any("omega=" in s for s in series)


def test_export_overwrite_refusal(small_cfg, tmp_path):
    res = run_sweep(small_cfg)
    export(res, tmp_path / "once", "csv")
    with pytest.raises(ExportError, match="overwrite"):
        export(res, tmp_path / "once", "csv")
    export(res, tmp_path / "once", "csv", overwrite=True)


@pytest.mark.parametrize("fmt", ["csv", "json", "plotdata"])
def test_interrupted_export_leaves_no_file(small_cfg, tmp_path, monkeypatch, fmt):
    res = run_sweep(small_cfg)

    def interrupt(src, dst):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            export(res, tmp_path, fmt)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    path = export(res, tmp_path, fmt)[0]  # nothing to refuse without overwrite
    assert path.read_bytes() == export(res, tmp_path / "again", fmt)[0].read_bytes()


def test_failed_cache_save_leaves_no_temp_file(small_cfg, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            run_sweep(small_cfg)
    cells = Path(small_cfg.output) / ".cells"
    assert not list(cells.glob("*.tmp")) and not _cell_files(small_cfg)
    assert _computed(run_sweep(small_cfg)) == small_cfg.grid.size


def test_masked_failure_rows(tmp_path):
    # a step too coarse for the beat leaves that cell masked with a reason
    cfg = RunConfig(
        task="ramsey",
        grid=GridSpec(phi_dc=(0.451,), xi=(0.0855831,), omega=(0.7743211,)),
        ramsey=RamseyConfig(omega0=1.013950289332, step=2e-9),
        output=str(tmp_path / "o"),
    )
    res = run_sweep(cfg)
    assert res.mask[0]
    assert "AliasingError" in res.reasons[0]
    assert np.all(np.isnan(res.rows[0, 3:]))
    # masked cells are not cached: the rerun recomputes them
    again = run_sweep(cfg)
    assert again.timings[0] > 0
    path = export(res, tmp_path / "e", "csv")[0]
    assert path.read_text().splitlines()[2].endswith(",1")


def test_ramsey_grid_validation(tmp_path):
    cfg = RunConfig(task="ramsey", grid=GridSpec(phi_dc=(0.45, 0.5)),
                    output=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="single drive point"):
        run_sweep(cfg)


def test_spectroscopy_grid_validation(tmp_path):
    cfg = RunConfig(task="spectroscopy",
                    grid=GridSpec(phi_dc=(0.45, 0.5), xi=(0.0, 0.1), omega=(0.5,)),
                    output=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="grid xi"):
        run_sweep(cfg)


def test_polariton_level_validation(tmp_path):
    cfg = RunConfig(task="polariton", floquet=SambeConfig(n_levels=3),
                    output=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="address level 3"):
        run_sweep(cfg)


def test_polariton_missing_data_file(tmp_path):
    cfg = RunConfig(task="polariton",
                    polariton=PolaritonSpec(data_file=str(tmp_path / "absent.txt")),
                    output=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="not found"):
        run_sweep(cfg)


def test_spectroscopy_axes_and_extra(tmp_path):
    cfg = RunConfig(
        task="spectroscopy",
        grid=GridSpec(phi_dc=(0.49, 0.5), xi=(0.0,), omega=(0.5,)),
        probe=ProbeParams(omega_p=(0.70, 0.72, 0.74), sweep="phi_dc"),
        output=str(tmp_path / "o"),
    )
    res = run_sweep(cfg)
    assert res.axis_names == ("phi_dc", "omega_p")
    assert res.rows.shape == (6, 3)
    assert res.extra["fixed"] == {"xi": 0.0, "omega": 0.5}
    assert len(res.extra["branches"]["points"]) == 2
    assert np.all((res.column("p1") >= 0) & (res.column("p1") <= 1))


def _fail_solves_at(monkeypatch, xi, *modules) -> str:
    """Make ``solve_floquet`` fail at drive amplitude ``xi`` where ``modules``
    call it; returns the masked cell's reason."""
    for module in modules:
        def failing(params, drive, *args, _solve=module.solve_floquet, **kwargs):
            if drive.xi == xi:
                raise DiagnosticError(f"no solution at xi={xi}")
            return _solve(params, drive, *args, **kwargs)

        monkeypatch.setattr(module, "solve_floquet", failing)
    return f"DiagnosticError: no solution at xi={xi}"


@pytest.mark.parametrize("sweep,values,lineshape", [
    ("phi_dc", (0.45, 0.46, 0.47), {}),
    ("xi", (0.0, 0.02, 0.05), {}),
    ("phi_dc", (0.45, 0.46), {"rabi": 3e-4, "linewidth": 0.02}),
], ids=["phi_dc-values0", "xi-values1", "phi_dc-lineshape"])
def test_spectroscopy_task_matches_the_library_map(tmp_path, monkeypatch, sweep, values,
                                                  lineshape):
    # each column is the map's point, bit for bit, with the record's lineshape;
    # a failed solve is masked in both
    if sweep == "xi":
        reason = _fail_solves_at(monkeypatch, 0.0, floqlux.tasks, floqlux.spectroscopy)
    fixed = {"phi_dc": 0.45, "xi": 0.05, "omega": 0.5}
    probe_freqs = (0.70, 0.72, 0.74, 0.9)
    probe = ProbeParams(omega_p=probe_freqs, sweep=sweep, **lineshape)
    res = run_sweep(RunConfig(
        task="spectroscopy",
        grid=GridSpec(**{**{k: (v,) for k, v in fixed.items()}, sweep: values}),
        probe=probe,
        output=str(tmp_path / "o"),
    ))
    m = spectroscopy_map(CircuitParams(), NoiseModel(), DriveParams(FluxBias(0.45), 0.05, 0.5),
                         probe, values)
    n_p = len(probe_freqs)
    assert np.array_equal(res.column("p1"), m.population.ravel(), equal_nan=True)
    assert np.array_equal(res.mask, np.repeat(m.mask, n_p))
    assert res.reasons == {i * n_p + j: m.failures[i] for i in m.failures for j in range(n_p)}
    if sweep == "xi":
        assert m.failures == {0: reason}
    points = res.extra["branches"]["points"]
    assert [p["value"] for p in points] == [v for v, bad in zip(values, m.mask) if not bad]
    k = np.array(res.extra["branches"]["k"])
    assert k.tolist() == list(range(-4, 5))
    for p in points:
        d = {**fixed, sweep: p["value"]}
        drive = DriveParams(FluxBias(d["phi_dc"]), d["xi"], d["omega"])
        sol = solve_floquet(CircuitParams(), drive)
        assert p["freqs"] == (sol.splitting(1, 0) + k * sol.drive.omega).tolist()


def test_only_the_floquet_task_runs_the_truncation_check(tmp_path, monkeypatch):
    # a solve whose flag no job reads assembles no N_s + 2 band and runs no
    # unpolished continuation; the floquet task's converged column reads it once a cell
    bands, polished = [], []
    band, cont = floqlux.floquet._sambe_band, floqlux.floquet._continue
    monkeypatch.setattr(floqlux.floquet, "_sambe_band",
                        lambda *a: bands.append(a[-1]) or band(*a))
    monkeypatch.setattr(floqlux.floquet, "_continue",
                        lambda *a, polish=False: polished.append(polish)
                        or cont(*a, polish=polish))
    grid = GridSpec(phi_dc=(0.30, 0.451), xi=(0.05, 0.12), omega=(0.25,))
    wide = SambeConfig().sideband_cutoff + 2
    for task in ("coherence", "polariton", "floquet"):
        bands.clear()
        polished.clear()
        res = run_sweep(RunConfig(task=task, grid=grid, output=str(tmp_path / task)))
        assert not res.mask.any(), (task, res.reasons)
        checks = 4 if task == "floquet" else 0
        assert (bands.count(wide), polished.count(False)) == (checks, checks), task
        assert bands.count(wide - 2) == 4 and polished.count(True) >= 4, task


def test_every_task_runs_with_defaults(tmp_path):
    # validation completeness: all-defaults config, a small probe axis for
    # spectroscopy; every registered task is covered
    small = {"spectroscopy": '[probe]\nomega_p = "0.6:0.9:4"\n'}
    for task in REGISTRY:
        cfg = parse_config(f'task = "{task}"\n' + small.get(task, ""))
        cfg = dataclasses.replace(cfg, output=str(tmp_path / task))
        res = run_sweep(cfg)
        assert res.rows.shape == (4 if task in small else 1, len(res.header)), task
        assert not res.mask.any(), (task, res.reasons)


def test_spectroscopy_runs_with_defaults_small_probe(tmp_path):
    cfg = parse_config(
        'task = "spectroscopy"\n[probe]\nomega_p = "0.6:0.9:4"\n')
    cfg = dataclasses.replace(cfg, output=str(tmp_path / "sp"))
    res = run_sweep(cfg)
    assert res.rows.shape == (4, 3)
    assert not res.mask.any()


def test_spectroscopy_undefined_balance_masked(tmp_path, capsys):
    # no noise and no probe: every rate is zero and P1 = 0/0; the columns are
    # masked with the reason, left out of the cache, and ff exits 2
    text = (
        'task = "spectroscopy"\n[grid]\nphi_dc = [0.45, 0.46]\n'
        "[noise]\na_dc = 0.0\na_ac = 0.0\ntan_delta_c = 0.0\n"
        '[probe]\nrabi = 0.0\nomega_p = "0.6:0.9:4"\n'
    )
    cfg = dataclasses.replace(parse_config(text), output=str(tmp_path / "o"))
    res = run_sweep(cfg)
    assert res.mask.all()
    assert all(res.reasons[r].startswith("DiagnosticError: ") for r in range(8))
    assert not list((tmp_path / "o" / ".cells").rglob("*.json"))
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["spectroscopy", "--config", str(path), "--out", str(tmp_path / "cli")]) == 2
    assert "DiagnosticError" in capsys.readouterr().err


def test_every_task_field_is_set_by_some_record():
    # a Task field that every record leaves at its default is a hook no task needs
    unset = [f.name for f in dataclasses.fields(Task) if f.default is not dataclasses.MISSING
             and all(getattr(task, f.name) == f.default for task in REGISTRY.values())]
    assert not unset, f"Task fields no REGISTRY record sets: {unset}"


_SPOT_GRID = GridSpec(phi_dc=(0.451,), xi=(0.0, 0.06, 0.12), omega=(0.7, 0.8))


def _solved_points(monkeypatch) -> list:
    """Drive points of every solve the sweet-spot cells and scan run."""
    points = []
    for module in (floqlux.tasks, floqlux.decoherence):
        def counting(params, drive, *args, _solve=module.solve_floquet, **kwargs):
            points.append((drive.bias.phi_dc, drive.xi, drive.omega))
            return _solve(params, drive, *args, **kwargs)

        monkeypatch.setattr(module, "solve_floquet", counting)
    return points


def _grid_step_files(cfg) -> list:
    """The run's cache files that hold no cell: the whole-grid step's."""
    _, jobs = sweeps._plan(REGISTRY[cfg.task], cfg)
    keys = {job.key for job in jobs}
    return [p for p in _cell_files(cfg) if p.stem not in keys]


def test_sweetspot_run_solves_each_drive_point_once(tmp_path, monkeypatch):
    # the scan refines the field its cells computed instead of solving the grid again
    points = _solved_points(monkeypatch)
    res = run_sweep(RunConfig(task="sweetspot", grid=_SPOT_GRID, output=str(tmp_path / "o")))
    assert "double" in [s["kind"] for s in res.extra["spots"]]
    assert set(itertools.product(*dataclasses.astuple(_SPOT_GRID))) <= set(points)
    assert len(points) == len(set(points))


def test_missing_grid_step_alone_is_recomputed(tmp_path, monkeypatch):
    cfg = RunConfig(task="sweetspot", grid=_SPOT_GRID, output=str(tmp_path / "o"))
    first = run_sweep(cfg)
    (step_file,) = _grid_step_files(cfg)
    step_file.unlink()
    steps = []
    task = REGISTRY["sweetspot"]
    monkeypatch.setitem(REGISTRY, "sweetspot", dataclasses.replace(
        task, grid_job=lambda *inputs: steps.append(1) or task.grid_job(*inputs)))
    points = _solved_points(monkeypatch)
    again = run_sweep(cfg)
    assert again == first
    assert _computed(again) == 0 and steps == [1]  # every cell came from the cache
    assert points and not set(points) & set(itertools.product(*dataclasses.astuple(_SPOT_GRID)))
    assert _grid_step_files(cfg) == [step_file]
    run_sweep(cfg)
    assert steps == [1]  # now the step is cached too


def test_failed_field_cell_fails_the_scan_uncached(tmp_path, monkeypatch):
    reason = _fail_solves_at(monkeypatch, 0.0, floqlux.decoherence)
    cfg = RunConfig(task="sweetspot", grid=GridSpec(phi_dc=(0.451,), xi=(0.0, 0.05, 0.1),
                                                    omega=(0.7, 0.8)),
                    output=str(tmp_path / "o"))
    res = run_sweep(cfg)
    assert res.reasons == {0: reason, 1: reason}
    assert res.extra == {"scan": {"error": reason}}
    assert _cell_files(cfg) and not _grid_step_files(cfg)


def test_grid_step_that_read_a_masked_cell_is_not_cached(tmp_path, monkeypatch):
    # the branch overlay skips the failed column; a rerun must recompute it
    _fail_solves_at(monkeypatch, 0.0, floqlux.tasks)
    cfg = RunConfig(task="spectroscopy",
                    grid=GridSpec(phi_dc=(0.45,), xi=(0.0, 0.02), omega=(0.5,)),
                    probe=ProbeParams(omega_p=(0.70, 0.72), sweep="xi"),
                    output=str(tmp_path / "o"))
    res = run_sweep(cfg)
    assert res.mask.tolist() == [True, True, False, False]
    assert [p["value"] for p in res.extra["branches"]["points"]] == [0.02]
    assert len(_cell_files(cfg)) == 1 and not _grid_step_files(cfg)


@pytest.mark.parametrize("task", ["sweetspot", "spectroscopy", "polariton"])
def test_grid_step_exports_ignore_workers_and_cache(task, tmp_path, monkeypatch):
    # two usable cores whatever the host has, so two workers make a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = {
        "sweetspot": RunConfig(task="sweetspot", grid=_SPOT_GRID),
        "spectroscopy": RunConfig(task="spectroscopy",
                                  grid=GridSpec(phi_dc=(0.45, 0.46, 0.47), xi=(0.05,),
                                                omega=(0.5,)),
                                  probe=ProbeParams(omega_p=(0.70, 0.72, 0.74))),
        "polariton": RunConfig(task="polariton",
                               grid=GridSpec(phi_dc=(0.3, 0.31), xi=(0.05,), omega=(0.2,)),
                               polariton=PolaritonSpec(
                                   data_file=_peak_file(tmp_path / "peaks.txt", 0.02))),
    }[task]
    exports = set()
    for workers in (1, 2):
        cfg = dataclasses.replace(base, output=str(tmp_path / f"w{workers}"), workers=workers)
        for run in ("cold", "warm"):
            res = run_sweep(cfg)
            assert _computed(res) == (0 if run == "warm" else res.rows.shape[0])
            exports.add(export(res, tmp_path / f"{workers}-{run}", "json")[0].read_bytes())
    assert len(exports) == 1
    assert json.loads(exports.pop())["extra"]

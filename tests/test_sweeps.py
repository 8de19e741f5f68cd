"""Sweep orchestration: determinism, caching, exports, failure masking."""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from floqlux import (
    CavityParams,
    CircuitParams,
    ConfigError,
    ExportError,
    FluxBias,
    GridSpec,
    PolaritonSpec,
    ProbeSpec,
    RamseySpec,
    RunConfig,
    config_hash,
    diagonalize_static,
    export,
    import_result,
    parse_config,
    run_sweep,
    synth_polariton_data,
    transition_spline,
)
from floqlux.cli import main
from floqlux import sweeps
from floqlux.tasks import REGISTRY


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
    probe = ProbeSpec(omega_p=(0.6, 0.7, 0.8))
    cfg = RunConfig(task=task, probe=probe, output=str(tmp_path / "o"))
    other = dataclasses.replace(
        cfg, grid=GridSpec(phi_dc=(0.45, 0.5), xi=(0.05, 0.0), omega=(0.6, 0.5)))
    _, jobs = sweeps._plan(REGISTRY[task], cfg)
    job = jobs[0]
    a, b = job.fn(cfg, job.coords), job.fn(other, job.coords)
    assert "error" not in a
    assert json.dumps(a) == json.dumps(b)


def test_spectroscopy_fixed_axis_change_recomputes(tmp_path):
    cfg = RunConfig(
        task="spectroscopy",
        grid=GridSpec(phi_dc=(0.45, 0.46), xi=(0.0,), omega=(0.5,)),
        probe=ProbeSpec(omega_p=(0.70, 0.72, 0.74)),
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
    cfg = dataclasses.replace(small_cfg, workers=2)
    with monkeypatch.context() as m:
        m.setitem(REGISTRY, "floquet",
                  dataclasses.replace(REGISTRY["floquet"], job=_die_after_the_others))
        with pytest.raises(BrokenProcessPool):
            run_sweep(cfg)
    assert len(_cell_files(cfg)) == 3
    assert _computed(run_sweep(cfg)) == 1


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


def test_masked_failure_rows(tmp_path):
    # a step too coarse for the beat leaves that cell masked with a reason
    cfg = RunConfig(
        task="ramsey",
        grid=GridSpec(phi_dc=(0.451,), xi=(0.0855831,), omega=(0.7743211,)),
        ramsey=RamseySpec(omega0=1.013950289332, step=2e-9),
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
    cfg = RunConfig(task="polariton", circuit=CircuitParams(n_levels=3),
                    output=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="n_levels"):
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
        probe=ProbeSpec(omega_p=(0.70, 0.72, 0.74), sweep="phi_dc"),
        output=str(tmp_path / "o"),
    )
    res = run_sweep(cfg)
    assert res.axis_names == ("phi_dc", "omega_p")
    assert res.rows.shape == (6, 3)
    assert res.extra["fixed"] == {"xi": 0.0, "omega": 0.5}
    assert len(res.extra["branches"]["points"]) == 2
    assert np.all((res.column("p1") >= 0) & (res.column("p1") <= 1))


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

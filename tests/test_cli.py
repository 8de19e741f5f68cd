"""End-to-end CLI behavior: exit codes, overrides, echoed config."""

from __future__ import annotations

import numpy as np
import pytest

import floqlux.tasks
from floqlux.cli import main

MINIMAL = 'task = "static-spectrum"\n[grid]\nphi_dc = "0.48:0.52:3"\n'


def _write(tmp_path, text=MINIMAL, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_happy_path_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path)
    code = main(["static-spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert 'task = "static-spectrum"' in out  # canonical echo
    assert "wrote" in out
    assert (tmp_path / "out" / "static-spectrum.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["floquet", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_config_error_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, 'task = "floquet"\n[gird]\nxi = "0"\n')
    assert main(["floquet", "--config", str(cfg)]) == 1
    assert "did you mean 'grid'" in capsys.readouterr().err


def test_invalid_section_exit_one(tmp_path, capsys):
    # rejected at parse time, before any cell is masked for it
    cfg = _write(tmp_path, 'task = "ramsey"\n[ramsey]\nstep = 1e-7\n')
    assert main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "invalid [ramsey] settings: step must be smaller than window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_polariton_wide_drive_exit_zero(tmp_path, capsys):
    # each cell's zeta spline covers its own bias +- xi, so no drive is too wide
    cfg = _write(tmp_path, 'task = "polariton"\n[grid]\nphi_dc = 0.3\nxi = 0.15\nomega = 0.2\n')
    assert main(["polariton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    header, _units, row = (tmp_path / "o" / "polariton.csv").read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert np.isfinite([values[f"gR_abs_{m}"] for m in range(-2, 4)]).all()


@pytest.mark.parametrize("cutoff,flag", [("3", 0.0), (None, 1.0)], ids=["cutoff_3", "default"])
def test_floquet_exports_the_truncation_flag(tmp_path, capsys, cutoff, flag):
    # the converged column is the one export that reads the truncation check
    text = 'task = "floquet"\n[grid]\nphi_dc = 0.451\nxi = 0.12\nomega = 0.25\n'
    if cutoff:
        text += f"[floquet]\nsideband_cutoff = {cutoff}\n"
    cfg = _write(tmp_path, text)
    assert main(["floquet", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    header, _units, row = (tmp_path / "o" / "floquet.csv").read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert (values["converged"], values["mask"]) == (flag, 0.0)


def test_circuit_n_levels_key_is_gone(tmp_path, capsys):
    # a diagonalization keeps as many static levels as the driven problem needs
    cfg = _write(tmp_path, MINIMAL + "[circuit]\nn_levels = 10\n")
    assert main(["static-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'n_levels' in [circuit]" in capsys.readouterr().err


def test_polariton_span_key_is_gone(tmp_path, capsys):
    cfg = _write(tmp_path, 'task = "polariton"\n[polariton]\nspan = 0.2\n')
    assert main(["polariton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'span' in [polariton]" in capsys.readouterr().err


POLARITON_FIT = 'task = "polariton"\n[grid]\nphi_dc = 0.3\nxi = 0.05\nomega = 0.2\n[polariton]\n'


@pytest.mark.parametrize("table,reason", [
    ("1 2 3 4\n" * 6, "must have columns phi_dc, freq_ghz[, sigma_ghz]; got shape (6, 4)"),
    ("0.30 7.3\n0.31 peak\n", "is not numeric"),
    ("0.30 7.3\n" * 3, "peak table needs at least 5 rows; got 3"),
    ("0.30 7.3\n" * 5 + "0.31 nan\n", "peak table must hold finite values only"),
    ("0.30 7.3 0.01\n" * 5 + "0.31 7.3 -0.01\n", "peak table sigma_ghz must be positive"),
    (None, "cannot be read: Is a directory"),
], ids=["four_columns", "text", "three_rows", "nan", "negative_sigma", "directory"])
def test_polariton_data_file_of_wrong_shape_exit_one(tmp_path, capsys, monkeypatch,
                                                     table, reason):
    # the data file is checked with the config, before any solve
    monkeypatch.setattr(floqlux.tasks, "solve_floquet", lambda *a, **k: pytest.fail("solved"))
    data = tmp_path / "peaks.txt"
    if table is None:
        data.mkdir()
    else:
        data.write_text(table)
    cfg = _write(tmp_path, POLARITON_FIT + f'data_file = "{data}"\n')
    assert main(["polariton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_failed_whole_grid_step_exit_two(tmp_path, capsys):
    # every cell succeeds, but the well-formed peaks cover no sideband crossing
    data = tmp_path / "peaks.txt"
    np.savetxt(data, [[phi, 7.3] for phi in np.linspace(0.450, 0.455, 6)])
    cfg = _write(tmp_path, POLARITON_FIT + f'data_file = "{data}"\n')
    assert main(["polariton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "FitError: no sideband crossing is covered by the data" in capsys.readouterr().err


def test_non_finite_grid_exit_one(tmp_path, capsys, monkeypatch):
    # rejected at parse time, not masked cell by cell
    monkeypatch.setattr(floqlux.tasks, "solve_floquet", lambda *a, **k: pytest.fail("solved"))
    cfg = _write(tmp_path, 'task = "coherence"\n[grid]\nxi = [0.0, nan]\n')
    assert main(["coherence", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "invalid [grid] settings: grid axis xi must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task,section,line,reason", [
    ("coherence", "noise", "a_dc = nan", "a_dc must be finite and non-negative"),
    ("coherence", "noise", "temperature = inf", "temperature must be finite and non-negative"),
    ("coherence", "circuit", "e_j = nan", "e_j must be finite and non-negative"),
    ("spectroscopy", "probe", "rabi = nan", "rabi must be finite"),
    ("ramsey", "ramsey", "omega0 = nan", "omega0 must be finite"),
])
def test_non_finite_physics_setting_exit_one(tmp_path, capsys, monkeypatch,
                                             task, section, line, reason):
    # rejected at parse time by the record the section feeds, before any solve
    monkeypatch.setattr(floqlux.tasks, "solve_floquet", lambda *a, **k: pytest.fail("solved"))
    cfg = _write(tmp_path, f'task = "{task}"\n[grid]\nphi_dc = 0.451\nxi = 0.05\n'
                           f'omega = 0.7\n[{section}]\n{line}\n')
    assert main([task, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid [{section}] settings: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", sorted(set(floqlux.tasks.REGISTRY) - {"static-spectrum"}))
def test_circuit_levels_below_floquet_levels_exit_one(tmp_path, capsys, monkeypatch, task):
    # the driven problem keeps 7 levels of a 6-state basis: rejected before any solve
    monkeypatch.setattr(floqlux.tasks, "solve_floquet", lambda *a, **k: pytest.fail("solved"))
    cfg = _write(tmp_path, f'task = "{task}"\n[circuit]\nbasis_dim = 6\n[floquet]\nn_levels = 7\n'
                           '[grid]\nphi_dc = 0.45\nxi = 0.05\nomega = 0.7\n')
    assert main([task, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "[floquet] n_levels = 7 must not exceed [circuit] basis_dim = 6" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", sorted(set(floqlux.tasks.REGISTRY) - {"static-spectrum"}))
@pytest.mark.parametrize("axes,reason", [
    ("xi = [-0.05, 0.0]\nomega = 0.7", "drive amplitude xi must be non-negative"),
    ("xi = 0.05\nomega = 0.0", "drive frequency omega must be strictly positive"),
    ("xi = 0.05\nomega = [-0.3, 0.7]", "drive frequency omega must be strictly positive"),
], ids=["xi", "omega_zero", "omega_negative"])
def test_drive_outside_its_domain_exit_one(tmp_path, capsys, monkeypatch, task, axes, reason):
    # rejected by the task's check before any solve, not masked cell by cell
    monkeypatch.setattr(floqlux.tasks, "solve_floquet", lambda *a, **k: pytest.fail("solved"))
    cfg = _write(tmp_path, f'task = "{task}"\n[grid]\nphi_dc = 0.45\n{axes}\n')
    assert main([task, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid [grid] settings: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_static_spectrum_ignores_the_drive_axes(tmp_path):
    cfg = _write(tmp_path, MINIMAL + "xi = [-0.05, 0.0]\nomega = 0.0\n")
    assert main(["static-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_static_spectrum_needs_no_floquet_levels(tmp_path):
    cfg = _write(tmp_path, MINIMAL + "[floquet]\nn_levels = 100\n")
    assert main(["static-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_task_mismatch_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path)
    assert main(["floquet", "--config", str(cfg)]) == 1
    assert "static-spectrum" in capsys.readouterr().err


def test_bad_usage_exit_one(capsys):
    assert main(["static-spectrum"]) == 1  # --config is required
    assert main(["frobnicate", "--config", "x"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "static-spectrum" in capsys.readouterr().out


def test_overwrite_refusal_exit_three(tmp_path, capsys):
    cfg = _write(tmp_path)
    args = ["static-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(args) == 0
    assert main(args) == 3
    assert "overwrite" in capsys.readouterr().err
    assert main(args + ["--overwrite"]) == 0


def test_partial_failure_exit_two(tmp_path, capsys):
    text = (
        'task = "ramsey"\n'
        "[grid]\nphi_dc = 0.451\nxi = 0.0855831\nomega = 0.7743211\n"
        "[ramsey]\nomega0 = 1.013950289332\nstep = 2e-9\n"
    )
    cfg = _write(tmp_path, text)
    code = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "AliasingError" in err


def test_workers_flag_beats_env(tmp_path, capsys):
    # the flag overrides the config's worker count
    cfg = _write(tmp_path, MINIMAL.replace("[grid]", "workers = 2\n[grid]"))
    code = main(["static-spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--workers", "1"])
    assert code == 0
    assert "workers = 1" in capsys.readouterr().out


def test_sweetspot_refine_key_is_gone(tmp_path, capsys):
    # every scan refines its brackets; there is no switch to turn that off
    cfg = _write(tmp_path, 'task = "sweetspot"\n[sweetspot]\nrefine = true\n')
    assert main(["sweetspot", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'refine' in [sweetspot]" in capsys.readouterr().err


def test_format_override(tmp_path, capsys):
    cfg = _write(tmp_path)
    code = main(["static-spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--format", "json"])
    assert code == 0
    assert (tmp_path / "o" / "static-spectrum.json").exists()
    assert not (tmp_path / "o" / "static-spectrum.csv").exists()
    capsys.readouterr()

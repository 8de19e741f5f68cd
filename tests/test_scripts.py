"""Smoke runs of each script in scripts/ on tiny grids."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (arguments, file it writes under the output directory)
CASES = {
    "quasienergy_spectrum": (["--phi-num", "2", "--xi", "0.0", "0.05", "--cutoff", "8",
                              "-o", "{out}/spectra.csv"], "spectra.csv"),
}


def test_every_script_has_a_case():
    assert set(CASES) == {p.stem for p in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    args, written = CASES[name]
    assert module.main([a.format(out=tmp_path) for a in args]) == 0
    assert capsys.readouterr().out
    assert (tmp_path / written).stat().st_size > 0

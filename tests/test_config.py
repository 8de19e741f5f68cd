"""Config parsing, validation messages, and canonical emission."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlux import ConfigError, GridSpec, RunConfig, config_hash, emit_config, parse_config
from floqlux.tasks import REGISTRY

MINIMAL = 'task = "static-spectrum"\n'

FULL = """
# run plan for a driven coherence map
task = "coherence"
output = "runs/cmap"
workers = 4
format = "json"
overwrite = true

[circuit]
e_c = 1.17
e_j = 2.65
e_l = 0.54

[grid]
phi_dc = 0.451
xi = "0:0.12:13"          # linspace range
omega = [0.7, 0.75, 0.8]

[noise]
a_dc = 7.5e-6
a_ac = 6e-6
tan_delta_c = 2.8e-6
temperature = 0.085
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.task == "static-spectrum"
    assert cfg.grid == GridSpec()
    assert cfg.workers == 1
    assert cfg.format == "csv"
    assert cfg.circuit.e_c == 1.17


def test_full_config_values():
    cfg = parse_config(FULL)
    assert cfg.task == "coherence"
    assert cfg.workers == 4
    assert cfg.overwrite is True
    assert len(cfg.grid.xi) == 13
    assert cfg.grid.xi[0] == 0.0
    assert cfg.grid.xi[-1] == pytest.approx(0.12)
    assert cfg.grid.omega == (0.7, 0.75, 0.8)
    assert cfg.noise.temperature == 0.085


def test_roundtrip_equality():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        again = parse_config(emit_config(cfg))
        assert again == cfg
        # emission is a fixed point
        assert emit_config(again) == emit_config(cfg)


def test_physics_only_drops_execution_keys():
    a = parse_config(FULL)
    b = parse_config(emit_config(a).replace('workers = 4', 'workers = 9'))
    assert emit_config(a, physics_only=True) == emit_config(b, physics_only=True)
    assert "output" not in emit_config(a, physics_only=True)


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError, match=r"line 3.*'xii'.*did you mean 'xi'"):
        parse_config('task = "floquet"\n[grid]\nxii = 0.1\n')


def test_unknown_section_suggestion():
    with pytest.raises(ConfigError, match=r"unknown section \[gird\]; did you mean \'grid\'"):
        parse_config('task = "floquet"\n[gird]\nphi_dc = 0.5\n')


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config('task = "floquet"\n[grid]\nxi = 0.1\nxi = 0.2\n')


def test_missing_value_position():
    with pytest.raises(ConfigError, match="line 3, column 9"):
        parse_config('task = "floquet"\n[grid]\nphi_dc =\n')


def test_missing_task_has_no_position():
    with pytest.raises(ConfigError, match=r"^missing required key 'task'$"):
        parse_config("[grid]\nphi_dc = 0.5\n")


def test_unknown_task_lists_choices():
    with pytest.raises(ConfigError, match="ramsey"):
        parse_config('task = "quasiblorp"\n')


def test_bad_number_reported_with_position():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config('task = "floquet"\n[circuit]\ne_c = fast\n')


def test_bad_workers_rejected():
    with pytest.raises(ConfigError, match="workers"):
        parse_config('task = "floquet"\nworkers = 0\n')


def test_bad_format_rejected():
    with pytest.raises(ConfigError, match="format"):
        parse_config('task = "floquet"\nformat = "xml"\n')


def test_empty_grid_axis_rejected():
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config('task = "floquet"\n[grid]\nxi = []\n')


def test_comment_inside_quoted_string_preserved():
    cfg = parse_config('task = "floquet"\noutput = "runs/#7"  # real comment\n')
    assert cfg.output == "runs/#7"


def test_linspace_endpoints_exact():
    cfg = parse_config('task = "floquet"\n[grid]\nomega = "0.2:0.8:4"\n')
    assert cfg.grid.omega[0] == 0.2
    assert cfg.grid.omega[-1] == 0.8
    assert len(cfg.grid.omega) == 4


@settings(max_examples=30, deadline=None)
@given(
    workers=st.integers(1, 32),
    xi=st.lists(st.floats(0, 0.2, allow_nan=False), min_size=1, max_size=5, unique=True),
    fmt=st.sampled_from(["csv", "json", "plotdata"]),
)
def test_emit_parse_roundtrip_random(workers, xi, fmt):
    cfg = RunConfig(task="floquet", grid=GridSpec(xi=tuple(xi)),
                    workers=workers, format=fmt)
    assert parse_config(emit_config(cfg)) == cfg


# config_hash of each task's default config; a change here orphans every
# existing cell cache
DEFAULT_HASHES = {
    "static-spectrum": "3a31f61688f5a00af40dd96354d8f7c181a7ced1e031ad46443d99c03ca54e14",
    "floquet": "799852d64ce73a531abe3c6add082a9bef4be76351d4283a2ca5bce495ce9797",
    "spectral-function": "0bbb89aca71e1073696a6d30022523f42fd58611e06d0232b23542b5d243b187",
    "polariton": "f7d3ca95878029bbe9eee96caff2956778da0b8a7765d4ba0e99ab3d90f3f300",
    "spectroscopy": "569ee384ed311d67bc65e605c6ae04ab251b63954c47a596a54778252819b05d",
    "coherence": "7261c2e2842aa865b1f36de0963782bae99c32822525b209ae5d8f65c94143cd",
    "sweetspot": "26cabb7e4d00de4301e0bfaf60eb02c6861fda1f7a1092aaca4e75e3b5da1596",
    "ramsey": "8e30ee0057d580004da017d5916ff1b07c01c6894a0fec4f4fbd251693288d87",
}


def test_default_config_hashes_are_stable():
    assert set(DEFAULT_HASHES) == set(REGISTRY)
    for task, digest in DEFAULT_HASHES.items():
        assert config_hash(RunConfig(task=task)) == digest, task


def _perturbed(value):
    """A valid non-default value of the same kind (strings stay as they are)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.01 if value else 1e-3
    if isinstance(value, tuple):
        return tuple(v * 1.01 for v in value)
    return value


SECTION_FIELDS = [(sec.name, f.name) for sec in dataclasses.fields(RunConfig)
                  if dataclasses.is_dataclass(sec.default)
                  for f in dataclasses.fields(sec.default)]


@pytest.mark.parametrize("section,key", SECTION_FIELDS,
                         ids=[f"{s}.{k}" for s, k in SECTION_FIELDS])
def test_every_record_field_is_a_config_key(section, key):
    record = getattr(RunConfig, section)
    value = _perturbed(getattr(record, key))
    cfg = RunConfig(task="floquet", **{section: dataclasses.replace(record, **{key: value})})
    text = emit_config(cfg)
    assert f"\n[{section}]\n" in text
    assert parse_config(text) == cfg


@pytest.mark.parametrize("section,line,reason", [
    ("ramsey", "step = 1e-7", "step must be smaller than window"),
    ("ramsey", "step = 0.0", "step must be positive"),
    ("ramsey", "step = -1e-9", "step must be positive"),
    ("ramsey", "window = -2e-8\nstep = -4e-8", "window must be positive"),
    ("ramsey", "omega0 = -0.5", "omega0 must be non-negative"),
    ("ramsey", "delays = [2e-6, 1e-6]", "delays must be non-empty and strictly ascending"),
    ("ramsey", "delays = [0.0, 2e-6]", "delays must hold at least 3 windows"),
    ("probe", "linewidth = 0.0", "linewidth must be positive"),
    ("probe", "rabi = -1e-4", "rabi must be non-negative"),
    ("floquet", "sideband_cutoff = 1", "sideband_cutoff must be at least 2"),
    ("floquet", "sideband_cutoff = 600",
     "Sambe dimension 6005 exceeds the safety cap 5200; reduce n_levels or sideband_cutoff"),
    ("sweetspot", "tol_d = -1.0", "tol_d must be positive"),
    ("polariton", "capture_window = -0.1", "capture_window must be positive"),
    ("grid", "xi = [0.0, nan]", "grid axis xi must be finite"),
    ("grid", "phi_dc = [0.45, inf]", "grid axis phi_dc must be finite"),
    ("grid", "omega = -inf", "grid axis omega must be finite"),
    ("grid", "phi_dc = [0.451, 0.451]", "grid axis phi_dc repeats a value"),
    ("grid", "omega = [0.7, 0.5, 0.7]", "grid axis omega repeats a value"),
    ("grid", 'xi = "0.4:0.4:3"', "grid axis xi repeats a value"),
    ("noise", "a_dc = nan", "a_dc must be finite and non-negative"),
    ("noise", "a_ac = inf", "a_ac must be finite and non-negative"),
    ("noise", "tan_delta_c = nan", "tan_delta_c must be finite and non-negative"),
    ("noise", "temperature = inf", "temperature must be finite and non-negative"),
    ("circuit", "e_c = inf", "e_c and e_l must be finite and strictly positive"),
    ("circuit", "e_j = nan", "e_j must be finite and non-negative"),
    ("circuit", "e_l = inf", "e_c and e_l must be finite and strictly positive"),
    ("probe", "rabi = nan", "rabi must be finite"),
    ("probe", "linewidth = inf", "linewidth must be finite"),
    ("ramsey", "omega0 = nan", "omega0 must be finite"),
    ("ramsey", "window = inf", "window must be finite"),
    ("ramsey", "delays = [0.0, 2e-6, inf]", "delays must be finite"),
    ("ramsey", "delays = [0.0, nan, 4e-6]", "delays must be finite"),
    ("probe", "omega_p = [nan, 0.7]", "probe omega_p must be finite"),
    ("probe", "omega_p = [-0.3, 0.0, 0.3]", "probe omega_p must be positive"),
    ("probe", "omega_p = [0.7, 0.9, 0.8]", "probe omega_p must be strictly ascending"),
    ("probe", "omega_p = [0.7, 0.8, 0.8]", "probe omega_p must be strictly ascending"),
    ("sweetspot", "tol_d = inf", "tol_d must be finite"),
    ("polariton", "capture_window = inf", "capture_window must be finite"),
    ("cavity", "omega_c = inf", "omega_c must be finite and positive, g_cap finite and non-negative"),
    ("cavity", "g_cap = inf", "omega_c must be finite and positive, g_cap finite and non-negative"),
])
def test_section_rejected_by_the_record_it_feeds(section, line, reason):
    with pytest.raises(ConfigError, match=rf"^invalid \[{section}\] settings: {reason}$"):
        parse_config(f'task = "ramsey"\n[{section}]\n{line}\n')


# the config keys that hold a float or a list of floats
NUMBER_FIELDS = [(s, k) for s, k in SECTION_FIELDS
                 if isinstance(getattr(getattr(RunConfig, s), k), (float, tuple))]


@pytest.mark.parametrize("section,key", NUMBER_FIELDS, ids=[f"{s}.{k}" for s, k in NUMBER_FIELDS])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_physics_value_must_be_finite(section, key, value):
    # t2r_true = inf is the one exception: an undamped Ramsey signal
    listed = isinstance(getattr(getattr(RunConfig, section), key), tuple)
    text = f'task = "ramsey"\n[{section}]\n{key} = {f"[0.1, {value}]" if listed else value}\n'
    if (key, value) == ("t2r_true", "inf"):
        assert parse_config(text).ramsey.t2r_true == float("inf")
    else:
        with pytest.raises(ConfigError, match=rf"^invalid \[{section}\] settings: "):
            parse_config(text)

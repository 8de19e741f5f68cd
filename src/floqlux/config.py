"""Run configuration: a small sectioned key-value format, validation, and
canonical emission.

The format is a flat TOML-style subset chosen for diffability in experiment
logs: ``[section]`` headers, ``key = value`` lines, ``#`` comments.  Values
are numbers, booleans, double-quoted strings (no escapes), ``[a, b, c]``
lists of numbers, or quoted range strings ``"start:stop:num"`` that expand
to inclusive linspace grids.  Unknown sections and keys are rejected with a
close-match suggestion; all errors carry line and column.

``emit_config`` writes a canonical form (fixed ordering, 17-significant-
digit floats) whose reparse compares equal; the physics-only variant drops
execution keys (output, workers, format, overwrite) and is what sweep
results hash to identify their cache.
"""
from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .circuit import CircuitParams
from .decoherence import NoiseModel, SweetSpotSpec
from .errors import ConfigError
from .floquet import SambeConfig
from .polariton import CavityParams, PolaritonSpec
from .spectroscopy import ProbeParams, RamseyConfig
from .tasks import REGISTRY

__all__ = [
    "GridSpec",
    "RunConfig",
    "TASKS",
    "FORMATS",
    "parse_config",
    "emit_config",
]

TASKS = tuple(REGISTRY)

FORMATS = ("csv", "json", "plotdata")


@dataclass(frozen=True)
class GridSpec:
    """Sweep axes over bias, drive amplitude, and drive frequency; no axis
    may repeat a value."""

    phi_dc: tuple = (0.5,)
    xi: tuple = (0.0,)
    omega: tuple = (0.5,)

    def __post_init__(self) -> None:
        for name in ("phi_dc", "xi", "omega"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise ValueError(f"grid axis {name} must be non-empty")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"grid axis {name} must be finite")
            if np.any(np.diff(np.sort(vals)) == 0):
                raise ValueError(f"grid axis {name} repeats a value")

    @property
    def size(self) -> int:
        return len(self.phi_dc) * len(self.xi) * len(self.omega)


@dataclass(frozen=True)
class RunConfig:
    """Validated input for one sweep run."""

    task: str
    circuit: CircuitParams = CircuitParams()
    grid: GridSpec = GridSpec()
    floquet: SambeConfig = SambeConfig()
    noise: NoiseModel = NoiseModel()
    cavity: CavityParams = CavityParams()
    probe: ProbeParams = ProbeParams()
    polariton: PolaritonSpec = PolaritonSpec()
    ramsey: RamseyConfig = RamseyConfig()
    sweetspot: SweetSpotSpec = SweetSpotSpec()
    output: str = "out"
    workers: int = 1
    format: str = "csv"
    overwrite: bool = False

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {', '.join(TASKS)}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; choose from {', '.join(FORMATS)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _keys(record) -> dict:
    """key -> value kind of a record's fields, section-valued fields excluded.

    The kind is the annotation ("float", "int", "bool", "str"; the record
    modules postpone annotations, so they are strings), except that
    ``tuple`` is "grid": a scalar, list, or "start:stop:num" range,
    normalized to a tuple of floats.
    """
    return {f.name: "grid" if f.type == "tuple" else f.type
            for f in fields(record) if not is_dataclass(f.default)}


# named sections in emission order: the RunConfig fields whose default is a
# record; each section's keys are the fields of that record
_SECTIONS = tuple(f.name for f in fields(RunConfig) if is_dataclass(f.default))

# section -> key -> value kind; "" holds the top-level keys
_SCHEMA = {"": _keys(RunConfig), **{sec: _keys(getattr(RunConfig, sec)) for sec in _SECTIONS}}


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _parse_scalar(tok: str, line: int, col: int):
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        if any(c in tok for c in ".eE") or low in ("inf", "-inf", "nan"):
            return float(tok)
        return int(tok)
    except ValueError:
        raise ConfigError(f"cannot parse value {tok!r} as a number", line, col) from None


def _parse_value(raw: str, line: int, col: int):
    """One value token: quoted string, list, boolean, or number."""
    raw = raw.strip()
    if not raw:
        raise ConfigError("missing value after '='", line, col)
    if raw.startswith('"'):
        if not (raw.endswith('"') and len(raw) >= 2):
            raise ConfigError("unterminated string", line, col)
        return raw[1:-1]
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError("unterminated list", line, col)
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        items = [s.strip() for s in inner.split(",")]
        return tuple(_parse_scalar(s, line, col) for s in items)
    return _parse_scalar(raw, line, col)


def _to_grid(value, line: int, col: int) -> tuple:
    """Normalize a parsed value to a tuple of floats (grid axis)."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"range string must be \"start:stop:num\", got {value!r}", line, col)
        try:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad range string {value!r}", line, col) from None
        if num < 1:
            raise ConfigError("range num must be >= 1", line, col)
        return tuple(float(x) for x in np.linspace(start, stop, num))
    if isinstance(value, tuple):
        return tuple(float(v) for v in value)
    if isinstance(value, bool):
        raise ConfigError("grid axis cannot be a boolean", line, col)
    return (float(value),)


def _coerce(kind: str, value, line: int, col: int):
    if kind == "grid":
        return _to_grid(value, line, col)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"expected a quoted string, got {value!r}", line, col)
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"expected true or false, got {value!r}", line, col)
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}", line, col)
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}", line, col)
        return float(value)
    raise AssertionError(kind)


def _strip_comment(text: str) -> str:
    out = []
    in_str = False
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a RunConfig.

    Raises:
        ConfigError: with line/column for syntax problems, unknown sections
            or keys (with a nearest-match suggestion), duplicates, and
            invalid values; task-specific requirements produce actionable
            messages.
    """
    values: dict = {sec: {} for sec in _SCHEMA}
    section = ""
    seen: set = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(rawline).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        body = stripped.strip()
        if body.startswith("["):
            if not body.endswith("]"):
                raise ConfigError("unterminated section header", lineno, indent + 1)
            name = body[1:-1].strip()
            if name not in _SCHEMA or name == "":
                raise ConfigError(
                    f"unknown section [{name}]" + _suggest(name, _SECTIONS),
                    lineno, indent + 1)
            section = name
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value' or '[section]'", lineno, indent + 1)
        key, _, raw_val = body.partition("=")
        key = key.strip()
        col = indent + 1
        if not key:
            raise ConfigError("missing key before '='", lineno, col)
        schema = _SCHEMA[section]
        if key not in schema:
            where = f"[{section}]" if section else "the top level"
            raise ConfigError(
                f"unknown key {key!r} in {where}" + _suggest(key, schema), lineno, col)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r}", lineno, col)
        seen.add((section, key))
        val_col = indent + body.index("=") + 2
        parsed = _parse_value(raw_val, lineno, val_col)
        values[section][key] = _coerce(schema[key], parsed, lineno, val_col)

    if "task" not in values[""]:
        raise ConfigError("missing required key 'task'")

    def build(sec: str):
        # a section's type is the type of its RunConfig default
        try:
            return type(getattr(RunConfig, sec))(**values[sec])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid [{sec}] settings: {exc}") from None

    try:
        return RunConfig(**values[""], **{sec: build(sec) for sec in _SECTIONS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# canonical emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot format {value!r}")


def emit_config(config: RunConfig, physics_only: bool = False) -> str:
    """Canonical text form of a config; reparses to an equal RunConfig.

    With ``physics_only`` the execution keys (output, workers, format,
    overwrite) are omitted; the remaining text is the identity a sweep's
    cache and result hash are keyed on.
    """
    lines = [f"{key} = {_fmt(getattr(config, key))}" for key in _SCHEMA[""]
             if key == "task" or not physics_only]
    for sec in _SECTIONS:
        obj = getattr(config, sec)
        lines.append("")
        lines.append(f"[{sec}]")
        for key in _SCHEMA[sec]:
            val = getattr(obj, key)
            lines.append(f"{key} = {_fmt(_normalize(val))}")
    return "\n".join(lines) + "\n"


def _normalize(val):
    if isinstance(val, tuple):
        return tuple(float(v) for v in val)
    return val

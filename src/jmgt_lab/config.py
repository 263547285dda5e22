"""Line-based config files: `[section]` headers, `key = value` pairs.

The format is deliberately small: UTF-8 text, `#` starts a comment, booleans
would be `true`/`false`, lists are comma-separated.  Parsing collects every
problem with its line number instead of stopping at the first one; duplicate
keys follow a last-wins policy and are recorded as warnings.  The rules and
defaults of the model, signal and discretization keys live in their
dataclasses; this module maps their violations to lines and checks only the
file format, the command-line rules and beta = 0 under bc = neumann.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .exceptions import ConfigFileError, InvalidParameters
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text"]

#: section -> key -> kind; kind in {"float", "int", "float_list", "str"}
_SCHEMA: dict[str, dict[str, str]] = {
    "model": {"c2": "float", "delta": "float", "tau": "float", "k": "float", "beta": "float"},
    "signal": {
        "amplitude": "float", "frequency": "float", "onset_power": "int", "decay_rate": "float"
    },
    "discretization": {
        "dt": "float", "t_final": "float", "n_modes": "int", "length": "float",
        "picard_tol": "float", "picard_max": "int",
    },
    "experiment": {"variant": "str", "bc": "str", "tau_sweep": "float_list", "mms_levels": "int"},
}

#: section -> the model dataclass that checks and defaults its keys
_OWNERS = {"model": ModelParams, "signal": WindowedSignal, "discretization": SolverConfig}

#: defaults of the keys that no model dataclass owns
_DEFAULTS = {
    "length": math.pi, "variant": "full", "bc": "neumann", "tau_sweep": None, "mms_levels": 3
}

#: keys a file may omit; an omitted dataclass key takes the dataclass default
_OPTIONAL = {"picard_tol", "picard_max", *_DEFAULTS}


@dataclass
class ExperimentConfig:
    """Fully validated experiment description."""

    params: ModelParams
    signal: WindowedSignal
    solver: SolverConfig
    length: float
    bc: BoundaryKind
    tau_sweep: tuple[float, ...] | None = None
    mms_levels: int = 3
    warnings: list[str] = field(default_factory=list, compare=False)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _cast(kind: str, raw: str):
    if kind == "float":
        return _finite(raw)
    if kind == "int":
        value = _finite(raw)
        if value != int(value):
            raise ValueError(f"expected an integer, got {raw!r}")
        return int(value)
    if kind == "float_list":
        entries = [entry.strip() for entry in raw.split(",")]
        return tuple(_finite(entry) for entry in entries if entry)
    if kind == "str":
        return raw.strip()
    raise AssertionError(kind)


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """Parse and validate config text; raises ConfigFileError listing all problems."""
    errors: list[str] = []
    warnings: list[str] = []
    values: dict[tuple[str, str], object] = {}
    lines_of: dict[tuple[str, str], int] = {}
    section: str | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        raw_value = raw_value.strip()
        kind = _SCHEMA[section].get(key)
        if kind is None:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        if (section, key) in values:
            warnings.append(
                f"line {lineno}: duplicate key {key!r} in [{section}]; last value wins"
            )
        lines_of[(section, key)] = lineno
        try:
            values[(section, key)] = _cast(kind, raw_value)
        except ValueError as exc:
            values.pop((section, key), None)
            errors.append(f"line {lineno}: invalid value for {key!r}: {exc}")

    # a key that did not parse is reported once; its section builds no dataclass
    failed = {pair for pair in lines_of if pair not in values}
    unbuilt = {section_name for section_name, _ in failed}
    for section_name, keys in _SCHEMA.items():
        for key in keys:
            if key not in _OPTIONAL and (section_name, key) not in lines_of:
                errors.append(f"{source}: missing required key {key!r} in [{section_name}]")
                unbuilt.add(section_name)

    def fail(section_name: str, key: str, message: str) -> None:
        """Report the first broken rule of a key; defaults break none, so it has a line."""
        if (section_name, key) not in failed:
            failed.add((section_name, key))
            errors.append(f"line {lines_of[(section_name, key)]}: {key} {message}")

    def get(section_name: str, key: str):
        return values.get((section_name, key), _DEFAULTS.get(key))

    built = {}
    for section_name, owner in _OWNERS.items():
        if section_name in unbuilt:
            continue
        kwargs = {
            item.name: values[(section_name, item.name)]
            for item in fields(owner)
            if (section_name, item.name) in values
        }
        try:
            built[section_name] = owner(**kwargs)
        except InvalidParameters as exc:
            for key, rule in exc.violations:
                fail(section_name, key, rule)

    onset_power = get("signal", "onset_power")  # None when missing or unparsable
    if onset_power is not None and onset_power < 5:
        fail("signal", "onset_power", "must be at least 5 (compatibility up to fourth order)")
    if get("discretization", "length") <= 0:
        fail("discretization", "length", "must be positive")
    variant_raw = get("experiment", "variant").lower()
    if variant_raw != "full":
        fail(
            "experiment",
            "variant",
            f"must be full, got {variant_raw!r}; the subcommand picks the model "
            "(solve-relaxed, solve-westervelt)",
        )
    bc_raw = get("experiment", "bc").lower()
    try:
        bc = BoundaryKind(bc_raw)
    except ValueError:
        fail("experiment", "bc", f"must be one of neumann|mixed, got {bc_raw!r}")
        bc = BoundaryKind.PURE_NEUMANN
    model = built.get("model")  # None when [model] already has an error
    if bc_raw == BoundaryKind.PURE_NEUMANN.value and model is not None and model.beta != 0.0:
        fail("model", "beta", f"must be 0 under bc = neumann (no absorbing end), got {model.beta}")
    sweep = get("experiment", "tau_sweep")
    if sweep is not None:
        if not sweep:
            fail("experiment", "tau_sweep", "must list at least one tau")
        elif any(value <= 0 for value in sweep):
            fail("experiment", "tau_sweep", "entries must be positive")
        elif any(b >= a for a, b in zip(sweep, sweep[1:])):
            fail("experiment", "tau_sweep", "must be strictly decreasing")
    if get("experiment", "mms_levels") < 2:
        fail("experiment", "mms_levels", "must be at least 2")

    if errors:
        raise ConfigFileError(errors)
    return ExperimentConfig(
        params=built["model"],
        signal=built["signal"],
        solver=built["discretization"],
        length=get("discretization", "length"),
        bc=bc,
        tau_sweep=sweep,
        mms_levels=get("experiment", "mms_levels"),
        warnings=warnings,
    )


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFileError([f"{path}: {exc}"]) from exc
    return parse_config_text(text, source=str(path))


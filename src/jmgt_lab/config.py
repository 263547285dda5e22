"""Line-based config files: `[section]` headers, `key = value` pairs.

The format is deliberately small: UTF-8 text, `#` starts a comment, booleans
would be `true`/`false`, lists are comma-separated.  Parsing collects every
problem with its line number instead of stopping at the first one; duplicate
keys follow a last-wins policy and are recorded as warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .exceptions import ConfigFileError
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text"]

_SECTIONS = ("model", "signal", "discretization", "experiment")

#: section -> key -> (kind, required, default); kind in
#: {"float", "int", "float_list", "str"}
_SCHEMA: dict[str, dict[str, tuple[str, bool, object]]] = {
    "model": {
        "c2": ("float", True, None),
        "delta": ("float", True, None),
        "tau": ("float", True, None),
        "k": ("float", True, None),
        "beta": ("float", True, None),
    },
    "signal": {
        "amplitude": ("float", True, None),
        "frequency": ("float", True, None),
        "onset_power": ("int", True, None),
        "decay_rate": ("float", True, None),
    },
    "discretization": {
        "dt": ("float", True, None),
        "t_final": ("float", True, None),
        "n_modes": ("int", True, None),
        "length": ("float", False, math.pi),
        "quad_points": ("int", False, None),
        "picard_tol": ("float", False, 1e-8),
        "picard_max": ("int", False, 25),
        "eval_grid": ("int", False, None),
    },
    "experiment": {
        "variant": ("str", False, "full"),
        "bc": ("str", False, "neumann"),
        "tau_sweep": ("float_list", False, None),
        "mms_levels": ("int", False, 3),
    },
}


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
        parts = [part.strip() for part in raw.split(",")]
        return tuple(_finite(part) for part in parts if part)
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
            if name not in _SECTIONS:
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
        spec = _SCHEMA[section].get(key)
        if spec is None:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        if (section, key) in values:
            warnings.append(
                f"line {lineno}: duplicate key {key!r} in [{section}]; last value wins"
            )
        try:
            values[(section, key)] = _cast(spec[0], raw_value)
            lines_of[(section, key)] = lineno
        except ValueError as exc:
            errors.append(f"line {lineno}: invalid value for {key!r}: {exc}")

    for section_name, keys in _SCHEMA.items():
        for key, (kind, required, default) in keys.items():
            if (section_name, key) not in values:
                if required:
                    errors.append(
                        f"{source}: missing required key {key!r} in [{section_name}]"
                    )
                else:
                    values[(section_name, key)] = default
                    lines_of[(section_name, key)] = 0

    if errors:
        raise ConfigFileError(errors)

    def fail(section_name: str, key: str, message: str) -> None:
        lineno = lines_of.get((section_name, key), 0)
        prefix = f"line {lineno}: " if lineno else f"{source}: "
        errors.append(f"{prefix}{key} {message}")

    def get(section_name: str, key: str):
        return values[(section_name, key)]

    if get("model", "c2") <= 0:
        fail("model", "c2", "must be positive")
    if get("model", "delta") <= 0:
        fail("model", "delta", "must be positive")
    if get("model", "tau") < 0:
        fail("model", "tau", "must be nonnegative")
    if get("model", "beta") < 0:
        fail("model", "beta", "must be nonnegative")
    if get("signal", "onset_power") < 5:
        fail("signal", "onset_power", "must be at least 5 (compatibility up to fourth order)")
    if get("signal", "decay_rate") < 0:
        fail("signal", "decay_rate", "must be nonnegative")
    if get("discretization", "dt") <= 0:
        fail("discretization", "dt", "must be positive")
    if get("discretization", "t_final") <= get("discretization", "dt"):
        fail("discretization", "t_final", "must exceed dt")
    if get("discretization", "n_modes") < 1:
        fail("discretization", "n_modes", "must be at least 1")
    if get("discretization", "length") <= 0:
        fail("discretization", "length", "must be positive")
    quad_points = get("discretization", "quad_points")
    if quad_points is not None and quad_points < 4 * get("discretization", "n_modes"):
        fail("discretization", "quad_points", "must be at least 4 * n_modes")
    if get("discretization", "picard_tol") <= 0:
        fail("discretization", "picard_tol", "must be positive")
    if get("discretization", "picard_max") < 1:
        fail("discretization", "picard_max", "must be at least 1")
    eval_grid = get("discretization", "eval_grid")
    if eval_grid is not None and eval_grid < 2:
        fail("discretization", "eval_grid", "must be at least 2")
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

    try:
        params = ModelParams(
            c2=get("model", "c2"),
            delta=get("model", "delta"),
            tau=get("model", "tau"),
            k=get("model", "k"),
            beta=get("model", "beta"),
        )
        signal = WindowedSignal(
            amplitude=get("signal", "amplitude"),
            frequency=get("signal", "frequency"),
            onset_power=get("signal", "onset_power"),
            decay_rate=get("signal", "decay_rate"),
        )
        solver = SolverConfig(
            dt=get("discretization", "dt"),
            t_final=get("discretization", "t_final"),
            n_modes=get("discretization", "n_modes"),
            quad_points=quad_points,
            picard_tol=get("discretization", "picard_tol"),
            picard_max=get("discretization", "picard_max"),
            eval_grid=eval_grid,
        )
    except ValueError as exc:
        raise ConfigFileError([f"{source}: {exc}"]) from exc
    return ExperimentConfig(
        params=params,
        signal=signal,
        solver=solver,
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


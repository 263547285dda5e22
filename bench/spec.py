"""Workload definitions and seeded config generation.

Pure Python (no numpy), so the orchestrating process can generate configs
without importing anything the workload processes measure.  The program
under test receives only the config text written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The tau sweep of the paper's vanishing-relaxation-time study (criterion 05).
TAU_SWEEP = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: drive parameter -> (low, high); seed 0 takes the midpoint of each range.
    drive: dict
    #: fixed config entries, section -> key -> value text.
    fixed: dict


def _fixed(n_modes, t_final, beta, bc, picard_tol="1e-8", mms_levels=3):
    return {
        "model": {"c2": "1.0", "delta": "1.0", "tau": "0.1", "k": "0.4", "beta": beta},
        "discretization": {
            "dt": "0.005",
            "t_final": t_final,
            "n_modes": str(n_modes),
            "picard_tol": picard_tol,
            "picard_max": "30",
        },
        "experiment": {
            "variant": "full",
            "bc": bc,
            "tau_sweep": ", ".join(repr(tau) for tau in TAU_SWEEP),
            "mms_levels": str(mms_levels),
        },
    }


# The limit_sweep ranges are narrow on purpose: the Picard iteration count,
# and with it the pass time, follows the drive's amplitude and decay rate
# (decay 1.8 -> 2.2 moves the study from 57 to 47 linear solves, and even
# drives within 2% of the centre took 47 to 53), so a wide range would turn
# seed-to-seed cost differences into benchmark noise.  The linear
# workloads cost the same for any drive, so their ranges are wide.
WORKLOADS = {
    "limit_sweep": Workload(
        name="limit_sweep",
        why=(
            "CLI limit-study, criterion-05 config: 52 Picard-driven 48x48 solves, so "
            "loads, coefficient closures and Picard bookkeeping dominate"
        ),
        drive={"amplitude": (0.49, 0.51), "frequency": (1.95, 2.05), "decay_rate": (1.99, 2.01)},
        fixed=_fixed(16, "2.0", "0.0", "neumann", picard_tol="1e-10"),
    ),
    "wide_linear": Workload(
        name="wide_linear",
        why=(
            "one alpha=1 SMGT solve at n=128, mixed boundary: 200 dense 384x384 step "
            "solves and 401 mass assemblies dominate; no Picard, energy or CSV work"
        ),
        drive={"amplitude": (0.3, 0.7), "frequency": (1.5, 2.5), "decay_rate": (1.0, 3.0)},
        fixed=_fixed(128, "1.0", "1.0", "mixed"),
    ),
    "cli_audit": Workload(
        name="cli_audit",
        why=(
            "CLI energy-audit (5 taus, mixed, n=32) then mms (4 levels): constant-"
            "coefficient solves, projected loads, energy audits and 17-digit CSV writes"
        ),
        drive={"amplitude": (0.3, 0.7), "frequency": (1.5, 2.5), "decay_rate": (1.0, 3.0)},
        fixed=_fixed(32, "2.0", "1.0", "mixed", mms_levels=4),
    ),
}


def drive_for(workload: Workload, seed: int) -> dict[str, float]:
    """Drive parameters for one seed: range midpoints for seed 0, else uniform draws."""
    if seed == 0:
        return {key: round((lo + hi) / 2, 6) for key, (lo, hi) in workload.drive.items()}
    rng = random.Random(f"{workload.name}:{seed}")
    return {key: round(rng.uniform(lo, hi), 6) for key, (lo, hi) in workload.drive.items()}


def config_text(workload: Workload, seed: int) -> str:
    """The config file the program receives for this workload and seed."""
    drive = drive_for(workload, seed)
    sections = dict(workload.fixed)
    sections["signal"] = {
        "amplitude": repr(drive["amplitude"]),
        "frequency": repr(drive["frequency"]),
        "onset_power": "5",
        "decay_rate": repr(drive["decay_rate"]),
    }
    lines = [f"# {workload.name}, seed {seed}"]
    for section in ("model", "signal", "discretization", "experiment"):
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in sections[section].items()]
    return "\n".join(lines) + "\n"

"""Experiment drivers and the `jmgt-lab` command line interface.

Every run writes CSV artifacts into the output directory: ``trajectory.csv``
(coefficient series), ``energy.csv`` (energy records) and ``report.csv``
(run-specific summary table).  Exit codes: 0 success, 1 config error,
2 solver failure.  Outputs are byte-deterministic for a fixed config.  The
members of a sweep are stepped together, and their failures and warnings are
reported as if they were solved one after another in sweep order.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .assembly import constant_field
from .basis import SpectralBasis, build_basis
from .config import ExperimentConfig, parse_config
from .energy import (
    AuditMode,
    AuditReport,
    BoundaryFlux,
    DataNorms,
    HigherEnergy,
    LowerEnergy,
    audit_estimate,
    boundary_flux,
    data_norms,
    energy_higher,
    energy_lower,
)
from .exceptions import ConfigFileError, InvalidParameters, NonDegeneracyViolated, SolverFailure
from .integrate import Trajectory, _solve_linear, solve_smgt_linear, solve_westervelt_linearized
from .nonlinear import (
    NonlinearVariant,
    PicardReport,
    _picard_loop,
    solve_jmgt,
    solve_westervelt_nonlinear,
)

__all__ = ["main", "run", "limit_study", "mms_study", "LimitRow", "LimitStudyResult", "MmsRow"]

#: Variant solved by each single-run subcommand; None is the alpha = 1 linear solve.
_SOLVE_VARIANTS = {
    "solve-linear": None,
    "solve-jmgt": NonlinearVariant.FULL_JMGT,
    "solve-relaxed": NonlinearVariant.RELAXED_JMGT,
    "solve-westervelt": NonlinearVariant.WESTERVELT,
}
SUBCOMMANDS = (*_SOLVE_VARIANTS, "limit-study", "energy-audit", "mms")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Numeric table, one column per array, every value with 17 significant digits."""
    table = np.column_stack(columns)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    n = traj.n_modes
    header = (
        ["t"]
        + [f"xi_{i}" for i in range(n)]
        + [f"dxi_{i}" for i in range(n)]
        + [f"ddxi_{i}" for i in range(n)]
    )
    _write_table(path, header, [traj.times, traj.coeff, traj.coeff_t, traj.coeff_tt])


def _write_energy(
    path: Path,
    lower: LowerEnergy,
    higher: HigherEnergy,
    flux: BoundaryFlux | None,
) -> None:
    header = ["t", "low", "dual_accum", "tt_accum", "high", "tt_h1_accum", "ttt_l2_accum"]
    columns = [
        lower.times,
        lower.low,
        lower.dual_accum,
        lower.tt_accum,
        higher.high,
        higher.tt_h1_accum,
        higher.ttt_l2_accum,
    ]
    if flux is not None:
        header += ["flux_tt_accum", "flux_t_max"]
        columns += [flux.acceleration_flux_accum, flux.velocity_flux_max]
    _write_table(path, header, columns)


@dataclass(frozen=True)
class LimitRow:
    """One vanishing-relaxation-time run compared against the reference."""

    tau: float
    velocity_error: float
    energy_error: float
    picard_iterations: int
    degeneracy_margin: float


@dataclass
class LimitStudyResult:
    """Sweep table plus metadata of the shared second-order reference run."""

    rows: list[LimitRow]
    reference_iterations: int
    reference_margin: float

    def __post_init__(self):
        taus = [row.tau for row in self.rows]
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau column must be strictly decreasing")
        for row in self.rows:
            if not (math.isfinite(row.velocity_error) and math.isfinite(row.energy_error)):
                raise ValueError(f"non-finite error at tau = {row.tau}")


@dataclass(frozen=True)
class MmsRow:
    solver: str
    dt: float
    error: float
    observed_order: float | None


def limit_study(config: ExperimentConfig) -> tuple[LimitStudyResult, Trajectory]:
    """Compare third-order solutions against the second-order limit.

    Solves the nonlinear second-order reference once, then one third-order
    run per sweep entry with the damping coefficient recomputed from tau; the
    sweep members iterate in lockstep.  All runs share the basis, grid, and
    fixed-point tolerances.  A failing member aborts the study with that run's
    diagnosis, the first failing member in sweep order.
    """
    if config.tau_sweep is None:
        raise ConfigFileError(["limit-study requires a tau_sweep entry in [experiment]"])
    basis = build_basis(config.length, config.solver.n_modes)
    reference, ref_report = solve_westervelt_nonlinear(
        config.params, basis, None, config.signal, config.solver, config.bc
    )
    members = [replace(config.params, tau=tau) for tau in config.tau_sweep]
    runs = _picard_loop(
        members, basis, None, config.signal, config.solver, config.bc, NonlinearVariant.FULL_JMGT
    )
    rows: list[LimitRow] = []
    for tau, (traj, report) in zip(config.tau_sweep, runs):
        # the error is measured in the tau = 0 (Westervelt) higher energy
        diff = reference - traj
        velocity_error = float(np.sqrt((diff.coeff_t**2).sum(axis=1)).max())
        energy_error = float(np.sqrt(energy_higher(diff, basis).total(AuditMode.HIGHER)))
        rows.append(
            LimitRow(
                tau=tau,
                velocity_error=velocity_error,
                energy_error=energy_error,
                picard_iterations=report.iterations,
                degeneracy_margin=report.degeneracy_margin,
            )
        )
    result = LimitStudyResult(
        rows=rows,
        reference_iterations=ref_report.iterations,
        reference_margin=ref_report.degeneracy_margin,
    )
    return result, reference


def mms_study(config: ExperimentConfig) -> tuple[list[MmsRow], Trajectory]:
    """Manufactured-solution convergence table for both solvers.

    The exact solution is t^3 * cos(pi x / L), a single basis mode, so the
    spatial error vanishes and the table isolates the temporal order.  dt is
    halved ``mms_levels - 1`` times starting from the configured step.  The
    runs are pure Neumann whatever ``bc`` says: the solution has zero flux at
    both ends.
    """
    if config.solver.n_modes < 2:
        raise ConfigFileError(["mms requires n_modes >= 2"])
    basis = build_basis(config.length, config.solver.n_modes)
    params = config.params
    lam1 = float(basis.eigenvalues[1])
    amp = math.sqrt(basis.length / 2.0)  # cos(pi x / L) = amp * w_1
    kappa = math.pi / basis.length

    def forcing_for(p):
        def source(x, t):
            gain = 6.0 * p.tau + 6.0 * t + lam1 * (3.0 * p.b * t**2 + p.c2 * t**3)
            return gain * np.cos(kappa * np.asarray(x, dtype=float))

        return source

    field = constant_field(1.0)
    rows: list[MmsRow] = []
    finest: Trajectory | None = None
    for solver_name, solve, forcing in (
        ("smgt", solve_smgt_linear, forcing_for(params)),
        ("westervelt", solve_westervelt_linearized, forcing_for(replace(params, tau=0.0))),
    ):
        previous_error = None
        for level in range(config.mms_levels):
            solver_cfg = replace(config.solver, dt=config.solver.dt / 2**level)
            traj = solve(params, basis, field, forcing, None, solver_cfg)
            exact = np.zeros_like(traj.coeff)
            exact[:, 1] = amp * traj.times**3
            error = float(np.sqrt(((traj.coeff - exact) ** 2).sum(axis=1)).max())
            order = None if previous_error is None else math.log2(previous_error / error)
            rows.append(MmsRow(solver=solver_name, dt=solver_cfg.dt, error=error, observed_order=order))
            previous_error = error
            if solver_name == "smgt":
                finest = traj
    return rows, finest


def _picard_report_rows(report: PicardReport) -> list[list]:
    rows: list[list] = [["picard", "iterations", report.iterations]]
    for index, diff in enumerate(report.differences, start=1):
        rows.append(["picard", f"difference_{index:02d}", diff])
    for index, factor in enumerate(report.factors, start=2):
        rows.append(["picard", f"factor_{index:02d}", factor])
    for index, norm in enumerate(report.iterate_norms, start=1):
        rows.append(["picard", f"iterate_norm_{index:02d}", norm])
    rows.append(["picard", "degeneracy_margin", report.degeneracy_margin])
    return rows


Energies = tuple[LowerEnergy, HigherEnergy]


def _energies(traj: Trajectory, basis: SpectralBasis) -> Energies:
    """The lower and higher energy records of one run: its audits and its energy.csv."""
    return energy_lower(traj, basis), energy_higher(traj, basis)


def _audits(energies: Energies, bundle: DataNorms) -> list[AuditReport]:
    """Audit reports of one run, in every mode its records serve."""
    return [audit_estimate(record, bundle, mode) for record in energies for mode in record.modes]


def _audit_rows(config: ExperimentConfig, energies: Energies) -> list[list]:
    rows: list[list] = []
    for report in _audits(energies, data_norms(config.signal, config.solver)):
        mode = report.mode
        rows.append(["audit", f"{mode.value}_ratio", report.ratio])
        if report.log_constant is not None:
            rows.append(["audit", f"{mode.value}_log_constant", report.log_constant])
        for flag in report.flags:
            rows.append(["audit", f"{mode.value}_flag", flag])
    return rows


def _single_run(
    subcommand: str, config: ExperimentConfig, basis: SpectralBasis
) -> tuple[Trajectory, Energies, list[list]]:
    variant = _SOLVE_VARIANTS[subcommand]
    rows: list[list] = []
    if variant is None:
        traj = solve_smgt_linear(
            config.params, basis, constant_field(1.0), None, config.signal, config.solver, config.bc
        )
    else:
        traj, picard = solve_jmgt(
            config.params, basis, None, config.signal, config.solver, config.bc, variant
        )
        rows += _picard_report_rows(picard)
    energies = _energies(traj, basis)
    rows += _audit_rows(config, energies)
    return traj, energies, rows


def _energy_audit(
    config: ExperimentConfig, basis: SpectralBasis, taus: tuple[float, ...]
) -> tuple[Trajectory, Energies, list[list]]:
    """Audit table over ``taus``; returns the first run and its energies for the artifacts.

    The runs are one linear batch, stepped together.
    """
    bundle = data_norms(config.signal, config.solver)
    members = [replace(config.params, tau=tau) for tau in taus]
    runs = _solve_linear(
        3, members, basis, constant_field(1.0), None, config.signal, config.solver, config.bc
    )
    energies = [_energies(traj, basis) for traj in runs]
    table = [
        [
            tau,
            report.mode.value,
            report.lhs_total,
            report.rhs_total,
            report.ratio,
            report.log_constant,
            ";".join(report.flags),
        ]
        for tau, run_energies in zip(taus, energies)
        for report in _audits(run_energies, bundle)
    ]
    return runs[0], energies[0], table


def _failure_rows(exc: SolverFailure) -> list[list]:
    rows = [["failure", "type", type(exc).__name__], ["failure", "message", str(exc)]]
    if isinstance(exc, NonDegeneracyViolated):
        rows.append(["failure", "violation_time", exc.time])
        rows.append(["failure", "margin", exc.margin])
        rows.append(["failure", "iteration", exc.iteration])
    return rows


def run(
    subcommand: str,
    config: ExperimentConfig,
    out_dir: str | Path = "out",
    quiet: bool = False,
) -> int:
    """Execute one subcommand, writing CSV artifacts into ``out_dir``.

    Returns the process exit code.  Every solve finishes before any artifact
    is written; on solver failure only report.csv is written, describing the
    failure.  ``out_dir`` is created only when a file is written into it.
    Each warning of the solve, repeats included, goes to stderr as one
    ``warning: <message>`` line.
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    report_path = out / "report.csv"

    for warning in config.warnings:
        if not quiet:
            print(f"warning: {warning}", file=sys.stderr)

    basis = build_basis(config.length, config.solver.n_modes)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            if subcommand in _SOLVE_VARIANTS:
                traj, energies, table = _single_run(subcommand, config, basis)
                header = ["section", "key", "value"]
                summary = f"{traj.n_steps} steps"
            elif subcommand == "limit-study":
                result, traj = limit_study(config)
                energies = _energies(traj, basis)
                header = [f.name for f in fields(LimitRow)]
                header += ["reference_iterations", "reference_margin"]
                reference = [result.reference_iterations, result.reference_margin]
                table = [[*astuple(row), *reference] for row in result.rows]
                summary = f"{len(result.rows)} sweep members"
            elif subcommand == "energy-audit":
                taus = (config.params.tau,) if config.tau_sweep is None else config.tau_sweep
                traj, energies, table = _energy_audit(config, basis, taus)
                header = ["tau", "mode", "lhs", "rhs", "ratio", "log_constant", "flags"]
                summary = f"{len(taus)} run(s)"
            else:
                rows, traj = mms_study(config)
                energies = _energies(traj, basis)
                header = [f.name for f in fields(MmsRow)]
                table = [astuple(row) for row in rows]
                summary = f"{len(rows)} rows"
    except SolverFailure as exc:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(report_path, ["section", "key", "value"], _failure_rows(exc))
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ConfigFileError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 1
    except InvalidParameters as exc:  # tau = 0 for a subcommand that solves the third-order system
        print(f"config error: {subcommand}: {exc}", file=sys.stderr)
        return 1

    # the limit-study reference carries no flux columns; the mms runs are pure Neumann,
    # so boundary_flux gives them none
    flux = None if subcommand == "limit-study" else boundary_flux(traj, traj.params, basis)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out / "trajectory.csv", traj)
    _write_energy(out / "energy.csv", *energies, flux)
    _write_csv(report_path, header, table)
    if not quiet:
        print(f"{subcommand}: {summary}, artifacts in {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmgt-lab",
        description="Spectral-Galerkin experiments for third-order nonlinear acoustics",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment config file")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except ConfigFileError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 1
    return run(args.subcommand, config, out_dir=args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())

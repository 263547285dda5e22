"""Correctness gate: study checks per workload and the recorded-reference check.

A pass's outputs are the CSV files a CLI call writes, or the coefficient
arrays of a direct solve.  Each output is reduced to a fingerprint against a
reference recorded from the seed commit:

* arrays (trajectories, energy series) keep their Frobenius norm and a few
  fixed random projections; each must lie within ``REL_TOL`` times the
  reference norm, the 1e-12 roundoff bound that a change reordering
  floating-point work must keep (ROADMAP aim 2);
* ``report.csv`` tables are kept cell by cell: text and integers exactly,
  other numbers within ``TABLE_REL_TOL``.  Report values are differences and
  ratios of trajectories (errors, observed orders, audit ratios), which
  amplify a 1e-12 trajectory change by up to the ratio of trajectory size to
  the reported difference, so they get a looser bound.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
TABLE_REL_TOL = 1e-8
PROJECTIONS = 4
#: Files kept cell by cell; every other output is fingerprinted by projections.
TABLES = ("report.csv",)


def digest(outputs: dict[str, object]) -> str:
    """Hash of every output, to tell passes with bit-identical results apart."""
    sha = hashlib.sha256()
    for name in sorted(outputs):
        value = outputs[name]
        sha.update(name.encode())
        sha.update(value.tobytes() if isinstance(value, np.ndarray) else value)
    return sha.hexdigest()


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))}


def _table(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode("utf-8").splitlines()))


def _matrix(data: bytes) -> np.ndarray:
    body = data.decode("utf-8").split("\n", 1)[1]
    rows = body.strip().split("\n")
    values = np.array(",".join(rows).split(","), dtype=float)
    return values.reshape(len(rows), -1)


def _projections(matrix: np.ndarray) -> list[float]:
    weights = np.random.default_rng(20190227).uniform(-1.0, 1.0, (PROJECTIONS,) + matrix.shape)
    return [float((w * matrix).sum()) for w in weights]


def fingerprint(outputs: dict[str, object]) -> dict:
    """Reference-comparable summary of one operation's outputs."""
    result = {}
    for name in sorted(outputs):
        value = outputs[name]
        if isinstance(value, bytes) and name in TABLES:
            result[name] = {"cells": _table(value)}
            continue
        matrix = value if isinstance(value, np.ndarray) else _matrix(value)
        result[name] = {
            "shape": list(matrix.shape),
            "norm": float(np.linalg.norm(matrix)),
            "proj": _projections(matrix),
        }
    return result


def _cell_close(cell: str, reference: str) -> bool:
    if cell == reference:
        return True
    try:
        value, expected = float(cell), float(reference)
    except ValueError:
        return False
    if "." not in reference and "e" not in reference.lower():
        return False  # integers (iteration counts) must match exactly
    return abs(value - expected) <= TABLE_REL_TOL * abs(expected)


def compare(found: dict, reference: dict) -> list[str]:
    """Problems found comparing a fingerprint with its recorded reference."""
    problems = []
    if sorted(found) != sorted(reference):
        return [f"outputs {sorted(found)} differ from reference {sorted(reference)}"]
    for name, entry in reference.items():
        got = found[name]
        if "cells" in entry:
            rows, expected = got["cells"], entry["cells"]
            if [len(r) for r in rows] != [len(r) for r in expected]:
                problems.append(f"{name}: table shape differs from reference")
                continue
            bad = [
                (i, j)
                for i, (row, ref_row) in enumerate(zip(rows, expected))
                for j, (cell, ref_cell) in enumerate(zip(row, ref_row))
                if not _cell_close(cell, ref_cell)
            ]
            if bad:
                i, j = bad[0]
                problems.append(
                    f"{name}: {len(bad)} cell(s) off reference, first row {i} col {j}: "
                    f"{rows[i][j]} vs {expected[i][j]}"
                )
            continue
        if got["shape"] != entry["shape"]:
            problems.append(f"{name}: shape {got['shape']} vs reference {entry['shape']}")
            continue
        scale = entry["norm"]
        offsets = [abs(got["norm"] - scale)]
        offsets += [abs(value - ref) for value, ref in zip(got["proj"], entry["proj"])]
        worst = max(offsets) / scale if scale > 0.0 else max(offsets)
        if not worst <= REL_TOL:
            problems.append(f"{name}: off reference by {worst:.3e} relative (bound {REL_TOL:g})")
    return problems


def _column(rows: list[list[str]], name: str) -> list[str]:
    index = rows[0].index(name)
    return [row[index] for row in rows[1:]]


def study_checks(operation: str, outputs: dict[str, object], config) -> list[str]:
    """The physics checks of one operation; an empty list means it passed."""
    problems = []
    if operation == "wide_linear.solve":
        for name, value in outputs.items():
            if not np.all(np.isfinite(value)):
                problems.append(f"{name}: non-finite coefficients")
        return problems
    report = _table(outputs["report.csv"])
    if operation == "limit-study":
        errors = [float(v) for v in _column(report, "velocity_error")]
        margins = [float(v) for v in _column(report, "degeneracy_margin")]
        margins += [float(v) for v in _column(report, "reference_margin")]
        iterations = [int(v) for v in _column(report, "picard_iterations")]
        iterations += [int(v) for v in _column(report, "reference_iterations")]
        if len(errors) != len(config.tau_sweep):
            problems.append(f"{len(errors)} sweep rows for {len(config.tau_sweep)} taus")
        if not all(b < a for a, b in zip(errors, errors[1:])):
            problems.append(f"velocity errors not strictly decreasing: {errors}")
        if not errors[-1] < 0.05 * errors[0]:
            problems.append(f"last velocity error {errors[-1]:.3e} >= 0.05 x first {errors[0]:.3e}")
        if not min(margins) > 0.5:
            problems.append(f"minimum degeneracy margin {min(margins):.3f} <= 0.5")
        if not max(iterations) < config.solver.picard_max:
            problems.append(f"a Picard run used {max(iterations)} of {config.solver.picard_max} iterations")
    elif operation == "energy-audit":
        ratios = [float(v) for v in _column(report, "ratio")]
        if len(ratios) != 3 * len(config.tau_sweep):
            problems.append(f"{len(ratios)} audit rows for {len(config.tau_sweep)} taus")
        if not all(math.isfinite(r) for r in ratios):
            problems.append(f"non-finite audit ratio in {ratios}")
    elif operation == "mms":
        solvers = _column(report, "solver")
        orders = _column(report, "observed_order")
        for solver in sorted(set(solvers)):
            finest = float([o for s, o in zip(solvers, orders) if s == solver][-1])
            if not 1.7 <= finest <= 2.3:
                problems.append(f"{solver}: finest observed order {finest:.4f} outside [1.7, 2.3]")
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return problems


class Gate:
    """Verdicts per operation, computed once per distinct output digest.

    Every pass of one seed must give bit-identical outputs (traced or not),
    so the study checks and the reference comparison run on the first copy of
    each digest; a later pass with another digest is itself a failure.
    """

    def __init__(self, config, reference: dict | None):
        self.config = config
        self.reference = reference
        self._first: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self.fingerprints: dict[str, dict] = {}

    def check(self, operation: str, outputs: dict[str, object]) -> list[str]:
        key = (operation, digest(outputs))
        if key not in self._verdicts:
            problems = study_checks(operation, outputs, self.config)
            found = fingerprint(outputs)
            self.fingerprints.setdefault(operation, found)
            if self.reference is not None:
                problems += compare(found, self.reference["outputs"][operation])
            self._verdicts[key] = problems
        problems = list(self._verdicts[key])
        first = self._first.setdefault(operation, key[1])
        if key[1] != first:
            problems.append("outputs differ bit for bit from the first pass of this run")
        return problems

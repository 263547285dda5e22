"""Workload process: timed passes of one workload, with or without tracing.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
A pass is one complete study, run through the package's public entry
points; its outputs go through the correctness gate after the clock stops.
The result (pass times, verdicts, layer metrics, peak memory) is written as
JSON to ``--result``.

Usage: python3 bench/worker.py --workload NAME --config PATH --work DIR
       --result PATH --seconds S [--reference PATH] [--trace | --record | --self-test]

``--record`` runs one traced pass and keeps its fingerprints and counts for
a reference file; ``--self-test`` runs one clean pass and two perturbed ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import jmgt_lab
import jmgt_lab.cli
import jmgt_lab.config

import checks
import spans

CLI_STEPS = {
    "limit_sweep": ("limit-study",),
    "cli_audit": ("energy-audit", "mms"),
}


def run_operation(workload: str, operation: str, config_path: Path, out_dir: Path):
    """Run one operation; returns (seconds, outputs, problems)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = time.perf_counter()
    if workload == "wide_linear":
        config = jmgt_lab.config.parse_config(config_path)
        basis = jmgt_lab.build_basis(config.length, config.solver.n_modes)
        traj = jmgt_lab.solve_smgt_linear(
            config.params, basis, jmgt_lab.constant_field(1.0), None,
            config.signal, config.solver, config.bc,
        )
        elapsed = time.perf_counter() - start
        outputs = {
            "coeff": traj.coeff, "coeff_t": traj.coeff_t,
            "coeff_tt": traj.coeff_tt, "coeff_ttt": traj.coeff_ttt,
        }
        return elapsed, outputs, []
    argv = [operation, "--config", str(config_path), "--out", str(out_dir), "--quiet"]
    code = jmgt_lab.cli.main(argv)
    elapsed = time.perf_counter() - start
    problems = [] if code == 0 else [f"exit code {code}"]
    return elapsed, checks.read_outputs(out_dir), problems


def operations_of(workload: str) -> tuple[str, ...]:
    return CLI_STEPS.get(workload, ("wide_linear.solve",))


def run_pass(workload, config_path, work, gate, perturb=None) -> dict:
    """One pass: every operation of the workload, timed, then gated."""
    seconds, verdicts, bytes_written = 0.0, [], 0
    for operation in operations_of(workload):
        out_dir = work / operation
        try:
            elapsed, outputs, problems = run_operation(workload, operation, config_path, out_dir)
        except Exception:  # a solver error is a failed operation, not a crashed benchmark
            traceback.print_exc()
            verdicts.append({"operation": operation, "problems": ["raised an exception"]})
            continue
        seconds += elapsed
        bytes_written += sum(len(v) for v in outputs.values() if isinstance(v, bytes))
        if perturb is not None:
            outputs = perturb(operation, outputs)
        if not problems:
            problems = gate.check(operation, outputs)
        verdicts.append({"operation": operation, "problems": problems})
    return {"seconds": seconds, "verdicts": verdicts, "bytes_written": bytes_written}


def measure(args, config, reference) -> dict:
    """Passes until the next one would overrun ``--seconds``; traced runs alternate."""
    gate = checks.Gate(config, reference)
    tracer = spans.Tracer() if args.trace or args.record else None
    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and (args.record or len(passes) % 2 == 1)
        if traced:
            tracer.current_pass = len(passes)
            spans.install(tracer, jmgt_lab)
        try:
            record = run_pass(args.workload, args.config, args.work, gate)
        finally:
            if traced:
                tracer.restore()
        record["traced"] = traced
        passes.append(record)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["seconds"] for p in passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if args.record or (enough and elapsed + typical > args.seconds):
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprints": gate.fingerprints,
    }
    if tracer is not None:
        result["layers"] = trace_summary(tracer, passes)
        if args.trace:
            tracer.save(args.work.parent / f"spans-{args.workload}.npz")
    return result


def is_time(key: str) -> bool:
    """Timed metrics (medians over traced passes); the rest are exact counts and ratios."""
    return key.endswith(("_s", ".s"))


def trace_summary(tracer: spans.Tracer, passes: list[dict]) -> dict:
    arrays = tracer.arrays()
    per_pass = []
    for index, record in enumerate(passes):
        if record["traced"]:
            metrics = spans.layer_metrics(arrays, tracer.names, index)
            metrics["cli.bytes_written"] = record["bytes_written"]
            metrics["wall_s"] = record["seconds"]
            per_pass.append(metrics)
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    traced = statistics.median(p["seconds"] for p in passes if p["traced"])
    summary = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        summary[key] = statistics.median(values) if is_time(key) else values[0]
    summary["trace_overhead_frac"] = (
        traced / statistics.median(untraced) - 1.0 if untraced else float("nan")
    )
    summary["counts_repeat"] = all(
        m[key] == per_pass[0][key]
        for m in per_pass
        for key in m
        if not is_time(key)
    )
    return summary


def self_test(args, config, reference) -> dict:
    """A clean pass, then the same pass with perturbed outputs, twice.

    The first perturbation moves one output value by a relative 1e-9, beyond
    the reference bound; the second breaks a study check and is gated
    without a reference, as for a seed that has none.
    """
    import selftest

    gate = checks.Gate(config, reference)
    passes = [
        run_pass(args.workload, args.config, args.work, gate),
        run_pass(args.workload, args.config, args.work, gate, perturb=selftest.perturb_value),
        run_pass(args.workload, args.config, args.work, checks.Gate(config, None),
                 perturb=selftest.perturb_study),
    ]
    for record in passes:
        record["traced"] = False
    return {"passes": passes}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "jmgt_lab": jmgt_lab.__file__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reference", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    config = jmgt_lab.config.parse_config(args.config)
    reference = json.loads(args.reference.read_text()) if args.reference else None
    if args.self_test:
        result = self_test(args, config, reference)
    else:
        result = measure(args, config, reference)
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

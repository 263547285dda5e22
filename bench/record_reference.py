"""Record reference fingerprints and counts for the shipped seeds.

    python3 bench/record_reference.py [--workload NAME] [--seeds 0-39]

Runs one traced pass per workload and seed in a pinned workload process and
writes ``bench/reference/<workload>.json``.  The study checks must pass on
every seed, which confirms that each workload's drive range is one where the
program passes the gate.  Run it only on the commit the references describe:
later changes are measured against these files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from types import SimpleNamespace

import run
import spec

COUNTS = (
    "integrate.solve_calls",
    "integrate.steps",
    "nonlinear.picard_iterations",
    "assembly.load_calls",
    "assembly.mass_calls",
    "integrate.linsolve_calls",
)


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def record(name: str, seeds: list[int]) -> dict:
    workload = spec.WORKLOADS[name]
    entries = {}
    for seed in seeds:
        work = run.OUT / f"record-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        config_path = work / "config.cfg"
        config_path.write_text(spec.config_text(workload, seed))
        args = SimpleNamespace(workload=name, seconds=0)
        result = run.run_worker(args, work, config_path, None, "--record")
        shutil.rmtree(work)
        problems = [p for v in run.operations(result) for p in v["problems"]]
        if problems:
            raise SystemExit(f"{name} seed {seed} fails the study checks: {problems}")
        counts = {key: result["layers"][key] for key in COUNTS}
        entries[str(seed)] = {
            "drive": spec.drive_for(workload, seed),
            "counts": counts,
            "outputs": result["fingerprints"],
        }
        print(f"{name} seed {seed}: {counts}", flush=True)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", default="0-39")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    for name in names:
        entries = record(name, seed_range(args.seeds))
        path = run.BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        doc = {
            "about": "fingerprints and counts recorded from the seed commit; see checks.py",
            "env": run.host_environment(),
            "seeds": entries,
        }
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""jmgt-lab benchmark: one command for every end-to-end and per-layer metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout.  The seed draws the drive of the generated
config; the program receives only that config.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json from untraced passes and fresh set-up
probes; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Every operation goes through the correctness gate, and
the last line of standard output is one JSON object.  See bench/README.md.

This process imports no numpy: the workload and probe processes it starts
get the BLAS thread count pinned to 1 before numpy loads in them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import spec  # noqa: E402

#: Thread pins for every process that imports numpy.  With OpenBLAS at its
#: default of one thread per core, six repeats of an n=64 linear solve took
#: 1.45-2.41 s on a 2-core Xeon VM; pinned to 1 thread, 1.36-1.46 s.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
#: Slack over --seconds for the workload process: one overrunning pass and the gate.
CHILD_SLACK_S = 100.0
#: Top-level spans must cover the traced pass to within this share.
COVERAGE_TOL = 0.05


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def host_environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {model}".strip(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        **PINNED_THREADS,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_for(workload: str, seed: int) -> dict | None:
    path = BENCH / "reference" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )


def setup_probes(config_path: Path) -> tuple[list[float], int]:
    """Set-up times of fresh processes, and how many probes failed."""
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        done = run_child([str(BENCH / "probe.py"), str(config_path)], timeout=60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            failed += 1
            continue
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, failed


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With fewer than eleven samples no percentile has ten beyond it; the
    maximum is reported, with the number of samples beyond it (zero).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def run_worker(args, work: Path, config_path: Path, reference: dict | None, *extra) -> dict:
    result_path = work / "result.json"
    argv = [
        str(BENCH / "worker.py"), "--workload", args.workload, "--config", str(config_path),
        "--work", str(work), "--result", str(result_path), "--seconds", str(args.seconds), *extra,
    ]
    if reference is not None:
        ref_path = work / "reference.json"
        ref_path.write_text(json.dumps(reference))
        argv += ["--reference", str(ref_path)]
    done = run_child(argv, timeout=float(args.seconds) + CHILD_SLACK_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"workload process exited with code {done.returncode}")
    result = json.loads(result_path.read_text())
    if not Path(result["env"]["jmgt_lab"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported jmgt_lab from {result['env']['jmgt_lab']}, not from {SRC}")
    return result


def operations(result: dict) -> list[dict]:
    return [verdict for record in result["passes"] for verdict in record["verdicts"]]


def say(line: str) -> None:
    print(line, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show that perturbed outputs fail")
    args = parser.parse_args()
    if not (SRC / "jmgt_lab" / "__init__.py").is_file():
        print(f"error: no jmgt_lab package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(args, run_worker, reference_for, OUT)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    bench = benchmark_spec()
    workload = spec.WORKLOADS[args.workload]

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.cfg"
    config_path.write_text(spec.config_text(workload, args.seed))
    reference = reference_for(args.workload, args.seed)
    if reference is not None and reference["drive"] != spec.drive_for(workload, args.seed):
        print("error: the recorded reference was made for another drive", file=sys.stderr)
        return 2

    env = host_environment()
    say(f"# workload {args.workload}, seed {args.seed}, drive {spec.drive_for(workload, args.seed)}")
    say(f"# reference: {'recorded for this seed' if reference else 'none for this seed; study checks only'}")

    setup_times, probe_failures = ([], 0) if args.trace else setup_probes(config_path)
    result = run_worker(args, work, config_path, reference, *(["--trace"] if args.trace else []))
    env.update(result["env"])
    say("# env " + json.dumps(env, sort_keys=True))

    ops = operations(result)
    attempted = len(ops) + (0 if args.trace else SETUP_PROBES)
    failed = sum(1 for op in ops if op["problems"]) + probe_failures
    for op in ops:
        for problem in op["problems"]:
            say(f"# FAILED {op['operation']}: {problem}")
    untraced = [p["seconds"] for p in result["passes"] if not p["traced"]]
    say(f"# passes: {len(untraced)} untraced, {len(result['passes']) - len(untraced)} traced; "
        f"untraced pass seconds {[round(s, 4) for s in untraced]}")

    if args.trace:
        layers = result["layers"]
        checks_failed = []
        if abs(layers["covered_s"] - layers["wall_s"]) > COVERAGE_TOL * layers["wall_s"]:
            checks_failed.append(
                f"top-level self times sum to {layers['covered_s']:.4f} s "
                f"of {layers['wall_s']:.4f} s traced wall time"
            )
        if layers["min_self_s"] < -1e-6:
            checks_failed.append(f"negative self time {layers['min_self_s']:.3e} s")
        for problem in checks_failed:
            say(f"# FAILED trace check: {problem}")
        attempted += 1
        failed += 1 if checks_failed else 0
        say(f"# trace: self times cover {layers['covered_s']:.4f} s of {layers['wall_s']:.4f} s; "
            f"counts repeat across traced passes: {layers['counts_repeat']}")
        if reference is not None:
            same = {k: v == layers.get(k) for k, v in reference["counts"].items()}
            say(f"# counts match the recorded counts for this seed: {same}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        wall_tail, percentile, beyond = tail(untraced)
        values = {
            "wall_s": statistics.median(untraced),
            "wall_s_tail": wall_tail,
            "setup_s": statistics.median(setup_times) if setup_times else float("nan"),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        say(f"# wall_s_tail: p{percentile:.1f} of {len(untraced)} passes, {beyond} samples beyond it")
        say(f"# setup_s: median of {len(setup_times)} fresh processes {[round(s, 4) for s in setup_times]}")
        say(f"# failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    for name, metric in metrics.items():
        say(f"{name} = {metric['value']!r} {metric['unit']}")
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "seed": args.seed, "metrics": metrics, "result": result}, indent=1)
    )
    shutil.rmtree(work)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every subcommand on a fixed set of configs and keep everything it writes.

Usage: python tools/cli_matrix.py OUT
       python tools/cli_matrix.py --compare BASE HEAD

For each config (the README ``ini`` block under ``neumann``, the same block
under ``mixed`` with ``beta = 0.5``, the seed-0 and seed-7 ``limit_sweep``
and ``cli_audit`` benchmark configs from ``bench/spec.py``, and the seed-0
``limit_sweep`` config with ``amplitude = 4.0``) and each of the seven
subcommands, ``OUT/<config>/<subcommand>/`` receives the exit code,
stdout, stderr and the CSV files of one ``python -m jmgt_lab.cli`` process,
run inside that directory so that no absolute path reaches its output.
``OUT/wide_linear-<seed>/`` receives the four coefficient arrays of the
seed-0 and seed-7 ``wide_linear`` solve as ``.npy`` files.  Every run and
solve uses one BLAS thread, so the matrix does not depend on the core count.

The package is imported from the ``src/`` next to this script, so two
checkouts give two matrices, and ``diff -r`` of them prints nothing when a
change leaves every output byte-identical.  Exits 1 when a run exits nonzero
or prints a traceback, else 0.

``--compare BASE HEAD`` measures the drift between two such matrices instead
of listing it, as a Markdown table with one line per file that differs: the
norm-relative deviation of each numeric CSV and ``.npy`` array (the largest
over columns of max |head - base| / max |base|), the largest relative change
of a ``report.csv`` cell, and every change to text, integers or non-finite
values, which covers exit codes, stdout and stderr.  Exits 0 when the matrices are byte-identical
and 1 when anything differs.  The amplitude-4 config is the one whose runs
may fail: its limit study stops when the tau = 0.03 member loses positivity
at fixed-point iteration 4, inside a window of Picard rounds, so
exit code 2 (a reported solver failure) counts as a run there.
"""

from __future__ import annotations

import csv
import filecmp
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = (
    "solve-linear",
    "solve-jmgt",
    "solve-relaxed",
    "solve-westervelt",
    "limit-study",
    "energy-audit",
    "mms",
)
SEEDS = (0, 7)
#: BLAS thread pins for the runs and for the wide_linear solves (numpy reads them on import).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: The config whose runs may exit 2 (a solver failure, reported in report.csv).
FAILING = "limit_sweep-0-amplitude-4"


def readme_configs() -> dict[str, str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (neumann,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    mixed, edits = re.subn(r"^bc = neumann\b", "bc = mixed", neumann, flags=re.M)
    mixed, more = re.subn(r"^beta = 0\.0\b", "beta = 0.5", mixed, flags=re.M)
    if (edits, more) != (1, 1):
        raise SystemExit("the README ini block no longer has the bc and beta lines this edits")
    return {"readme-neumann": neumann, "readme-mixed": mixed}


def bench_spec():
    sys.path.insert(0, str(ROOT / "bench"))
    import spec

    return spec


def run_cli(subcommand: str, config: Path, directory: Path, env: dict, codes=(0,)) -> bool:
    """One CLI process in ``directory``; True when its exit code is in ``codes`` and it
    prints no traceback."""
    directory.mkdir(parents=True)
    command = [sys.executable, "-m", "jmgt_lab.cli", subcommand]
    command += ["--config", os.path.relpath(config, directory), "--out", "."]
    result = subprocess.run(command, cwd=directory, env=env, capture_output=True, text=True)
    (directory / "exit_code.txt").write_text(f"{result.returncode}\n", encoding="utf-8")
    (directory / "stdout.txt").write_text(result.stdout, encoding="utf-8")
    (directory / "stderr.txt").write_text(result.stderr, encoding="utf-8")
    return result.returncode in codes and "Traceback" not in result.stderr


def save_wide_linear(spec, seed: int, directory: Path) -> None:
    """The benchmark's wide_linear solve, one .npy file per coefficient array."""
    import numpy as np

    from jmgt_lab import build_basis, constant_field, solve_smgt_linear
    from jmgt_lab.config import parse_config_text

    config = parse_config_text(spec.config_text(spec.WORKLOADS["wide_linear"], seed))
    basis = build_basis(config.length, config.solver.n_modes)
    traj = solve_smgt_linear(
        config.params, basis, constant_field(1.0), None, config.signal, config.solver, config.bc
    )
    directory.mkdir(parents=True)
    for name in ("coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
        np.save(directory / f"{name}.npy", getattr(traj, name))


def _number(text: str) -> float | None:
    """The finite number a cell holds, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _is_integer(text: str) -> bool:
    return text.lstrip("+-").isdigit()


def _deviation(base, head) -> float:
    """max |head - base| / max |base|; 0 for equal arrays, inf when only head is nonzero."""
    import numpy as np

    change = np.abs(head - base).max(initial=0.0)
    scale = np.abs(base).max(initial=0.0)
    if change == 0.0:
        return 0.0
    return float(change / scale) if scale > 0.0 else math.inf


def compare_csv(base: Path, head: Path) -> list[str]:
    """What changed between two CSV files, one phrase per kind of change."""
    import numpy as np

    tables = []
    for path in (base, head):
        with open(path, newline="", encoding="utf-8") as stream:
            tables.append(list(csv.reader(stream)))
    old, new = tables
    if [len(row) for row in old] != [len(row) for row in new] or old[:1] != new[:1]:
        return ["text: shape or header changed"]
    header, old, new = old[0], old[1:], new[1:]
    keyed = header[:2] == ["section", "key"]  # a report of (section, key, value) rows
    texts, cells = [], []
    for left, right in zip(old, new):
        for j, (x, y) in enumerate(zip(left, right)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            where = f"{','.join(left[:2]) if keyed else left[0]} {header[j]}"
            if u is None or v is None or (_is_integer(x) and _is_integer(y)):
                texts.append(f"{where} {x} -> {y}")
            else:
                cells.append((abs(v - u) / abs(u) if u else math.inf, abs(v - u), where))
    notes = []
    if texts:
        more = " ..." if len(texts) > 3 else ""
        notes.append("text or integers: " + "; ".join(texts[:3]) + more)
    if cells and base.name == "report.csv":
        relative, absolute, where = max(cells)
        notes.append(f"largest cell change {relative:.2g} ({absolute:.2g} absolute) in {where}")
    elif cells:
        a, b = (np.array([[_number(x) or 0.0 for x in row] for row in t]) for t in (old, new))
        worst = max(range(len(header)), key=lambda j: _deviation(a[:, j], b[:, j]))
        notes.append(
            f"norm-relative deviation {_deviation(a, b):.2g} (largest in one column: "
            f"{_deviation(a[:, worst], b[:, worst]):.2g}, {header[worst]})"
        )
    return notes


def compare_file(base: Path, head: Path) -> list[str]:
    if base.suffix == ".npy":
        import numpy as np

        return [f"norm-relative deviation {_deviation(np.load(base), np.load(head)):.2g}"]
    if base.suffix == ".csv":
        return compare_csv(base, head)
    old = base.read_text(encoding="utf-8").splitlines()
    new = head.read_text(encoding="utf-8").splitlines()
    changed = [f"{x!r} -> {y!r}" for x, y in zip(old, new) if x != y]
    if len(old) != len(new):
        changed.append(f"{len(old)} -> {len(new)} lines")
    return ["text: " + "; ".join(changed[:2]) + (" ..." if len(changed) > 2 else "")]


def compare(base: Path, head: Path) -> int:
    """Print the drift table of two matrices; 0 when they are byte-identical, else 1."""
    names = {
        path.relative_to(root).as_posix()
        for root in (base, head) for path in root.rglob("*") if path.is_file()
    }
    lines = []
    for name in sorted(names):
        old, new = base / name, head / name
        if not old.exists() or not new.exists():
            notes = [f"only in {'head' if new.exists() else 'base'}"]
        elif filecmp.cmp(old, new, shallow=False):
            continue
        else:
            notes = compare_file(old, new)
        lines.append(f"| `{name}` | {'; '.join(notes)} |")
    print(f"{len(lines)} of {len(names)} files differ between {base} and {head}.")
    if lines:
        print("\n| file | change |\n| --- | --- |")
        print("\n".join(lines))
    return 1 if lines else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    spec = bench_spec()
    configs = readme_configs()
    for workload in ("limit_sweep", "cli_audit"):
        for seed in SEEDS:
            configs[f"{workload}-{seed}"] = spec.config_text(spec.WORKLOADS[workload], seed)
    configs[FAILING], edits = re.subn(
        r"^amplitude = .*$", "amplitude = 4.0", configs["limit_sweep-0"], flags=re.M
    )
    if edits != 1:
        raise SystemExit("the limit_sweep config no longer has the amplitude line this edits")

    src = str(ROOT / "src")
    # one BLAS thread, here and in every run: a threaded n = 128 product sums in another
    # order, so two matrices made with different thread counts would differ in the last bits
    os.environ.update(PINNED_THREADS)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    failed = []
    for name, text in configs.items():
        (out / name).mkdir(parents=True)
        config = out / name / "config.ini"
        config.write_text(text, encoding="utf-8")
        codes = (0, 2) if name == FAILING else (0,)
        for subcommand in SUBCOMMANDS:
            if not run_cli(subcommand, config, out / name / subcommand, env, codes):
                failed.append(f"{name}/{subcommand}")

    sys.path.insert(0, src)
    for seed in SEEDS:
        save_wide_linear(spec, seed, out / f"wide_linear-{seed}")

    runs = len(configs) * len(SUBCOMMANDS)
    print(f"{runs} CLI runs and {len(SEEDS)} wide_linear solves written to {out}")
    for run in failed:
        reason = "an exit code that is not a run's, or a traceback"
        print(f"failed: {run} ({reason}; see its stderr.txt)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

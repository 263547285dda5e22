"""Self-test of the correctness gate: perturbed outputs must count as failed.

``python3 bench/run.py --self-test`` runs, for every workload at seed 0
(which has a recorded reference), one clean pass and two perturbed copies
of it through the same verdict accounting as a measured run:

* ``perturb_value`` moves the largest-magnitude value of the last time level
  by a relative 1e-9, a thousand times the reference bound;
* ``perturb_study`` breaks one study check (error ordering, a finite audit
  ratio, an observed order, a finite coefficient) and is gated without a
  reference, as a seed without one would be.

It exits 0 only if the clean pass has no failure and every perturbed
operation is counted as failed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil

SHIFT = 1e-9


def _rewrite_csv(data: bytes, edit) -> bytes:
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    edit(rows)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode("utf-8")


def perturb_value(operation: str, outputs: dict) -> dict:
    outputs = dict(outputs)
    if "coeff" in outputs:
        coeff = outputs["coeff"].copy()
        j = int(abs(coeff[-1]).argmax())
        coeff[-1, j] *= 1.0 + SHIFT
        outputs["coeff"] = coeff
        return outputs

    def edit(rows):
        last = rows[-1]
        j = max(range(1, len(last)), key=lambda k: abs(float(last[k])))
        last[j] = f"{float(last[j]) * (1.0 + SHIFT):.17g}"

    outputs["trajectory.csv"] = _rewrite_csv(outputs["trajectory.csv"], edit)
    return outputs


def perturb_study(operation: str, outputs: dict) -> dict:
    outputs = dict(outputs)
    if "coeff" in outputs:
        coeff = outputs["coeff"].copy()
        coeff[-1, 0] = float("nan")
        outputs["coeff"] = coeff
        return outputs

    def edit(rows):
        header = rows[0]
        if operation == "limit-study":
            j = header.index("velocity_error")
            rows[1][j], rows[2][j] = rows[2][j], rows[1][j]
        elif operation == "energy-audit":
            rows[1][header.index("ratio")] = "nan"
        else:
            finest = max(i for i, row in enumerate(rows) if row[0] == "smgt")
            rows[finest][header.index("observed_order")] = "2.5"

    outputs["report.csv"] = _rewrite_csv(outputs["report.csv"], edit)
    return outputs


def self_test(args, run_worker, reference_for, out_dir) -> int:
    """Drive the worker's self-test mode for every workload; 0 if the gate holds."""
    import spec

    ok = True
    for name, workload in spec.WORKLOADS.items():
        reference = reference_for(name, 0)
        if reference is None:
            print(f"{name}: no recorded reference for seed 0")
            ok = False
            continue
        work = out_dir / f"selftest-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        config_path = work / "config.cfg"
        config_path.write_text(spec.config_text(workload, 0))
        args.workload, args.seconds = name, 0
        result = run_worker(args, work, config_path, reference, "--self-test")
        shutil.rmtree(work)
        for label, record in zip(("clean", "value +1e-9", "study check"), result["passes"]):
            failed = [v for v in record["verdicts"] if v["problems"]]
            expect_failure = label != "clean"
            holds = len(failed) == (len(record["verdicts"]) if expect_failure else 0)
            ok = ok and holds
            print(f"{name} {label}: attempted {len(record['verdicts'])}, failed {len(failed)} "
                  f"-> {'as expected' if holds else 'WRONG'}")
            for verdict in failed:
                print(f"    {verdict['operation']}: {verdict['problems'][0]}")
    print(json.dumps({"self_test_passed": ok}))
    return 0 if ok else 1

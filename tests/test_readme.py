"""The README's config and library example work as written.

The ``ini`` block is the documented reference config, and the ``python``
block is the library entry-point example; both must keep up with the API.
The command line is run on the ``ini`` block as a separate process, the way
a user runs it.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from jmgt_lab import BoundaryKind
from jmgt_lab.config import _SCHEMA, parse_config_text

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(language: str) -> str:
    (body,) = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    return body


def test_ini_block_parses_without_warnings():
    config = parse_config_text(fenced_block("ini"), source="README.md")
    assert config.warnings == []
    assert config.params.tau == 0.1 and config.params.k == 0.4
    assert config.solver.n_modes == 8 and config.solver.n_steps == 100
    assert config.solver.eval_grid == 64
    assert config.bc is BoundaryKind.PURE_NEUMANN
    assert config.tau_sweep == (0.1, 0.03, 0.01)
    assert config.mms_levels == 3


def test_ini_block_names_every_key_the_parser_accepts():
    documented: dict[str, list[str]] = {}
    for line in fenced_block("ini").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            keys = documented.setdefault(line.strip("[]"), [])
        elif line:
            keys.append(line.split("=", 1)[0].strip())
    assert documented == {section: list(keys) for section, keys in _SCHEMA.items()}


def test_python_block_runs(capsys):
    exec(compile(fenced_block("python"), "README.md", "exec"), {"__name__": "readme"})
    picard_line, ratio_line = capsys.readouterr().out.strip().split("\n")
    assert int(picard_line.split()[0]) > 1
    assert 0.0 < float(ratio_line) < math.inf


def run_module(config_text: str, tmp_path: Path) -> tuple[subprocess.CompletedProcess, Path]:
    """Run ``python -m jmgt_lab.cli solve-linear`` on the config text."""
    path = tmp_path / "experiment.cfg"
    path.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "jmgt_lab.cli", "solve-linear"]
    command += ["--config", str(path), "--out", str(out), "--quiet"]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    return result, out


def test_module_entry_point_runs_the_ini_block(tmp_path):
    result, out = run_module(fenced_block("ini"), tmp_path)
    assert result.returncode == 0, result.stderr
    written = sorted(path.name for path in out.iterdir())
    assert written == ["energy.csv", "report.csv", "trajectory.csv"]


def test_module_entry_point_reports_every_bad_key(tmp_path):
    text = fenced_block("ini").replace("c2 = 1.0", "c2 = -1.0").replace("dt = 0.01", "dt = 0.03")
    result, out = run_module(text, tmp_path)
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("config error: line")]
    assert [line.split(" must")[0] for line in errors] == [
        "config error: line 2: c2",
        "config error: line 15: dt",
    ]
    assert not out.exists()

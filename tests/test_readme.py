"""The README's config and library example work as written.

The ``ini`` block is the documented reference config, and the ``python``
block is the library entry-point example; both must keep up with the API.
"""

import math
import re
from pathlib import Path

from jmgt_lab import BoundaryKind
from jmgt_lab.config import parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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


def test_python_block_runs(capsys):
    exec(compile(fenced_block("python"), "README.md", "exec"), {"__name__": "readme"})
    picard_line, ratio_line = capsys.readouterr().out.strip().split("\n")
    assert int(picard_line.split()[0]) > 1
    assert 0.0 < float(ratio_line) < math.inf

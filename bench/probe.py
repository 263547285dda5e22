"""Set-up probe, run in a fresh process: import jmgt_lab, parse the config, build the basis.

Prints the elapsed seconds.  Interpreter start-up is excluded; the import of
numpy that jmgt_lab pulls in is included, as every user pays it.

Usage: python3 bench/probe.py CONFIG
"""

import sys
import time

start = time.perf_counter()

import jmgt_lab  # noqa: E402
import jmgt_lab.config  # noqa: E402

config = jmgt_lab.config.parse_config(sys.argv[1])
jmgt_lab.build_basis(config.length, config.solver.n_modes)
print(repr(time.perf_counter() - start))

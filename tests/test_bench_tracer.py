"""The benchmark tracer still finds every name it wraps, and tracing changes no output.

``bench/spans.py`` wraps public functions of the package under every module
name they are bound to and raises LookupError when one no longer resolves.
The module is loaded read-only from its file, without writing bytecode.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import jmgt_lab
from jmgt_lab import (
    BoundaryKind,
    ModelParams,
    NonlinearVariant,
    SolverConfig,
    WindowedSignal,
    build_basis,
    constant_field,
    solve_jmgt,
    solve_smgt_linear,
)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_solves():
    basis = build_basis(math.pi, 6)
    params = ModelParams(c2=1.0, delta=1.0, tau=0.1, k=0.4, beta=0.5)
    sig = WindowedSignal(0.3, 2.0, 5, 1.0)
    config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=6, picard_tol=1e-10)
    linear = jmgt_lab.solve_smgt_linear(
        params, basis, constant_field(1.0), None, sig, config, BoundaryKind.MIXED
    )
    relaxed, report = jmgt_lab.solve_jmgt(
        params, basis, None, sig, config, variant=NonlinearVariant.RELAXED_JMGT
    )
    westervelt, _ = jmgt_lab.solve_westervelt_nonlinear(params, basis, None, sig, config)
    arrays = [linear.coeff, linear.coeff_ttt, relaxed.coeff_t, relaxed.coeff_ttt, westervelt.coeff]
    return arrays, report.differences


def test_install_resolves_every_wrapped_name_and_restores():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, jmgt_lab)
        assert jmgt_lab.solve_jmgt is not solve_jmgt
    finally:
        tracer.restore()
    assert jmgt_lab.solve_jmgt is solve_jmgt
    assert jmgt_lab.solve_smgt_linear is solve_smgt_linear


def test_traced_solves_are_bit_identical():
    spans = load_spans()
    plain_arrays, plain_differences = run_solves()
    tracer = spans.Tracer()
    tracer.current_pass = 0
    try:
        spans.install(tracer, jmgt_lab)
        traced_arrays, traced_differences = run_solves()
    finally:
        tracer.restore()
    assert len(tracer.start) > 0
    for plain, traced in zip(plain_arrays, traced_arrays):
        assert np.array_equal(plain, traced)
    assert plain_differences == traced_differences

"""Outside-in tracing: spans recorded around calls into each jmgt_lab module.

The tracer replaces a public function with a timing wrapper under every
name a caller looks it up by (``integrate.assemble_load``,
``cli.solve_jmgt``, ...), so no line of the program changes.  Spans keep
their parent and pass identifier in flat arrays in memory; ``save`` writes
them out once the run ends, and ``restore`` puts every original back.
"""

from __future__ import annotations

import math
import time
from array import array
from types import ModuleType

import numpy as np

#: Solver spans: the unit that owns one TimeVaryingMass and one set of loads.
SOLVER_SPANS = ("integrate.solve_smgt_linear", "integrate.solve_westervelt_linearized")
#: Picard spans: one fixed-point run, whose loads do not change between iterations.
PICARD_SPANS = ("nonlinear.solve_jmgt", "nonlinear.solve_westervelt_nonlinear")


def _arg(position: int, keyword: str):
    def key(args, kwargs):
        value = args[position] if len(args) > position else kwargs[keyword]
        return float(value)

    return key


def _matrix_size(args, kwargs):
    return float(np.shape(args[0] if args else kwargs["a"])[0])


class Tracer:
    """Span recorder with reversible patching of module-level names."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("i")
        self.pass_id = array("i")
        self.name_id = array("i")
        self.key = array("d")
        self.start = array("d")
        self.end = array("d")
        self.current_pass = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, key=None, result_key=None):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        parent, pass_id, name_id, keys = self.parent, self.pass_id, self.name_id, self.key
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        nan = math.nan

        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self.current_pass)
            name_id.append(name_index)
            keys.append(nan if key is None else key(args, kwargs))
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if result_key is not None:
                keys[index] = result_key(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch_everywhere(self, fn, name: str, modules: list[ModuleType], **keys) -> None:
        """Wrap ``fn`` under every module-level name bound to it."""
        wrapper = self._wrap(fn, name, **keys)
        bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]
        if not bound:
            raise LookupError(f"{name}: no module binds {fn!r}")
        for module, attr in bound:
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def patch_attribute(self, owner, attr: str, name: str, **keys) -> None:
        """Wrap one attribute, such as a method looked up through its class."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **keys))

    def restore(self) -> None:
        """Put every wrapped name back and check that it is back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "key": np.frombuffer(self.key, dtype=np.float64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans (one row each) and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer, jmgt_lab) -> None:
    """Wrap the public functions of every layer where their callers look them up."""
    from jmgt_lab import assembly, basis, cli, config, energy, integrate, model, nonlinear

    modules = [jmgt_lab, assembly, basis, cli, config, energy, integrate, model, nonlinear]

    def steps_of(result):
        traj = result[0] if isinstance(result, tuple) else result
        return float(len(traj.times) - 1)

    plan = [
        (cli.main, "cli.main", {}),
        (cli.run, "cli.run", {}),
        (cli.limit_study, "cli.limit_study", {}),
        (cli.mms_study, "cli.mms_study", {}),
        (config.parse_config, "config.parse", {}),
        (nonlinear.solve_jmgt, PICARD_SPANS[0], {}),
        (nonlinear.solve_westervelt_nonlinear, PICARD_SPANS[1], {}),
        (integrate.solve_smgt_linear, SOLVER_SPANS[0], {"result_key": steps_of}),
        (integrate.solve_westervelt_linearized, SOLVER_SPANS[1], {"result_key": steps_of}),
        (integrate.recover_third, "integrate.recover", {}),
        (assembly.assemble_load, "assembly.load", {"key": _arg(5, "t")}),
        (assembly.assemble_stiffness, "assembly.stiffness", {}),
        (assembly.assemble_boundary, "assembly.boundary", {}),
        (assembly.field_from_trajectory, "assembly.field_build", {}),
        (assembly.constant_field, "assembly.field_build", {}),
        (basis.build_basis, "basis.build_basis", {}),
        (basis.build_quadrature, "basis.build_quadrature", {}),
        (basis.trace_vector, "basis.trace_vector", {}),
        (basis.mode_matrix, "basis.mode_matrix", {}),
        (basis.project, "basis.project", {}),
        (model.signal_eval, "model.signal_eval", {}),
        (energy.energy_lower, "energy.energy_lower", {}),
        (energy.energy_higher, "energy.energy_higher", {}),
        (energy.boundary_flux, "energy.boundary_flux", {}),
        (energy.data_norms, "energy.data_norms", {}),
        (energy.audit_estimate, "energy.audit_estimate", {}),
    ]
    for fn, name, keys in plan:
        tracer.patch_everywhere(fn, name, modules, **keys)
    tracer.patch_attribute(assembly.TimeVaryingMass, "matrix", "assembly.mass")
    tracer.patch_attribute(
        assembly.TimeVaryingMass, "alpha_values", "assembly.alpha", key=_arg(1, "t")
    )
    tracer.patch_attribute(np.linalg, "solve", "integrate.linsolve", key=_matrix_size)


def _nearest(parent: np.ndarray, mask: np.ndarray, rows: np.ndarray, depth: int = 8):
    """Index of the nearest strict ancestor of each row inside ``mask`` (-1 if none)."""
    found = np.full(rows.shape, -1)
    cursor = parent[rows]
    for _ in range(depth):
        live = (found < 0) & (cursor >= 0)
        if not live.any():
            break
        safe = np.maximum(cursor, 0)
        hit = live & mask[safe]
        found[hit] = cursor[hit]
        cursor = np.where(live & ~hit, parent[safe], -1)
    return found


def layer_metrics(spans: dict[str, np.ndarray], names: list[str], pass_id: int) -> dict:
    """Per-layer counts and times of one traced pass.

    ``<fn>_s`` is inclusive time, ``self_s`` is a span's duration minus the
    time its child spans cover.  Also returns ``covered_s``, the summed self
    time of every span (equal to the summed top-level durations).
    """
    rows = np.flatnonzero(spans["pass_id"] == pass_id)
    parent_all = spans["parent"]
    name_id = spans["name_id"]
    has_parent = parent_all >= 0
    safe_parent = np.maximum(parent_all, 0)
    duration_all = spans["end"] - spans["start"]
    children = rows[has_parent[rows]]
    child_time = np.bincount(
        parent_all[children], weights=duration_all[children], minlength=len(parent_all)
    )
    self_all = duration_all - child_time

    def ids(*wanted):
        return [i for i, name in enumerate(names) if name in wanted]

    def layer(name):
        return [i for i, full in enumerate(names) if full.split(".")[0] == name]

    def pick(*wanted):
        return rows[np.isin(name_id[rows], ids(*wanted))]

    def total(selected, values=duration_all):
        return float(values[selected].sum())

    solvers = pick(*SOLVER_SPANS)
    picard_mask = np.isin(name_id, ids(*PICARD_SPANS))
    solver_mask = np.isin(name_id, ids(*SOLVER_SPANS))

    loads = pick("assembly.load")
    load_solver = _nearest(parent_all, solver_mask, loads)
    load_picard = _nearest(parent_all, picard_mask, loads)
    load_chain = np.where(load_picard >= 0, load_picard, load_solver)
    distinct_loads = len(set(zip(load_chain.tolist(), spans["key"][loads].tolist())))

    masses = pick("assembly.mass")
    alphas = pick("assembly.alpha")
    alpha_owner = _nearest(parent_all, solver_mask, alphas)
    distinct_alpha = len(set(zip(alpha_owner.tolist(), spans["key"][alphas].tolist())))

    solves = pick("integrate.linsolve")
    solves = solves[has_parent[solves] & solver_mask[safe_parent[solves]]]
    sizes = spans["key"][solves]
    steps = float(spans["key"][solvers].sum())

    in_picard = solvers[has_parent[solvers] & picard_mask[safe_parent[solvers]]]
    energy = rows[np.isin(name_id[rows], layer("energy"))]
    energy_top = energy[~has_parent[energy] | ~np.isin(name_id[safe_parent[energy]], layer("energy"))]

    return {
        "model.signal_eval_calls": len(pick("model.signal_eval")),
        "model.signal_eval_s": total(pick("model.signal_eval")),
        "basis.trace_vector_calls": len(pick("basis.trace_vector")),
        "basis.trace_vector_s": total(pick("basis.trace_vector")),
        "basis.mode_matrix_calls": len(pick("basis.mode_matrix")),
        "basis.mode_matrix_s": total(pick("basis.mode_matrix")),
        "basis.project_s": total(pick("basis.project")),
        "assembly.load_calls": len(loads),
        "assembly.load_s": total(loads),
        "assembly.load_useful_ratio": distinct_loads / len(loads) if len(loads) else 0.0,
        "assembly.mass_calls": len(masses),
        "assembly.mass_s": total(masses),
        "assembly.mass_calls_per_step": len(masses) / steps if steps else 0.0,
        "assembly.alpha_s": total(alphas),
        "assembly.alpha_cache_hit_ratio": 1.0 - distinct_alpha / len(alphas) if len(alphas) else 0.0,
        "assembly.field_build_s": total(pick("assembly.field_build")),
        "integrate.solve_calls": len(solvers),
        "integrate.steps": int(steps),
        "integrate.self_s": total(solvers, self_all),
        "integrate.recover_calls": len(pick("integrate.recover")),
        "integrate.recover_s": total(pick("integrate.recover")),
        "integrate.linsolve_calls": len(solves),
        "integrate.linsolve_s": total(solves),
        "integrate.linsolve_flops": float((2.0 / 3.0 * sizes**3).sum()),
        "integrate.linsolve_bytes": float((8.0 * sizes**2).sum()),
        "nonlinear.picard_iterations": len(in_picard),
        "nonlinear.self_s": total(pick(*PICARD_SPANS), self_all),
        "energy.s": total(energy_top),
        "config.parse_s": total(pick("config.parse")),
        "cli.self_s": total(rows[np.isin(name_id[rows], layer("cli"))], self_all),
        "covered_s": total(rows, self_all),
        "min_self_s": float(self_all[rows].min()) if len(rows) else 0.0,
    }

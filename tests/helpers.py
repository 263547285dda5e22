"""Shared test utilities: finite-difference oracles independent of the package,
and fixture builders."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from jmgt_lab import (
    BoundaryKind,
    End,
    SolverConfig,
    Trajectory,
    assemble_boundary,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_basis,
    build_quadrature,
    constant_field,
    solve_smgt_linear,
)
from jmgt_lab.assembly import TimeVaryingMass, _triple_products, assemble_loads
from jmgt_lab.exceptions import PicardDivergenceError, SolverFailure
from jmgt_lab.integrate import _integrate, _prepare_data
from jmgt_lab.nonlinear import NonlinearVariant, PicardReport, _advance


#: The criterion-05 limit study (the seed-0 benchmark config) with the drive raised to 4.
AMPLITUDE_FOUR_STUDY = """\
[model]
c2 = 1.0
delta = 1.0
tau = 0.1
k = 0.4
beta = 0.0

[signal]
amplitude = 4.0
frequency = 2.0
onset_power = 5
decay_rate = 2.0

[discretization]
dt = 0.005
t_final = 2.0
n_modes = 16
picard_tol = 1e-10
picard_max = 30

[experiment]
bc = neumann
tau_sweep = 0.1, 0.03, 0.01, 0.003, 0.001
"""


def zero_trajectory(params, basis, config, bc=BoundaryKind.PURE_NEUMANN, with_third=True):
    """Identically zero trajectory on the config's time grid."""
    shape = (config.n_steps + 1, basis.n)
    return Trajectory(
        times=config.times,
        coeff=np.zeros(shape),
        coeff_t=np.zeros(shape),
        coeff_tt=np.zeros(shape),
        coeff_ttt=np.zeros(shape) if with_third else None,
        bc=bc,
        params=params,
    )


def manufactured_run(params, dt, n=8, t_final=1.0):
    """Third-order run on [0, pi] whose source makes psi = t^3 cos(x) exact."""
    basis = build_basis(math.pi, n)
    config = SolverConfig(dt=dt, t_final=t_final, n_modes=n)

    def forcing(x, t):
        gain = 6.0 * params.tau + 6.0 * t + 3.0 * params.b * t**2 + params.c2 * t**3
        return gain * np.cos(np.asarray(x, dtype=float))

    traj = solve_smgt_linear(params, basis, constant_field(1.0), forcing, None, config)
    return basis, traj


def z_ode_residual(traj, basis, field, f=None, g=None) -> np.ndarray:
    """z-ODE residual oracle: the per-step max-abs of z_t + (c2/b) z - forcing.

    z = (1 + lambda) xi is differenced forward in time (backward at the last
    step), and the forcing (F - tau*xi_ttt - M xi_tt + b*xi_t + c2*xi)/b is
    written out with the load, mass and absorbing-end matrix assembled anew
    at every grid time on the 4n-point rule.
    """
    params = traj.params
    b, c2 = params.b, params.c2
    quad = build_quadrature(basis.length, 4 * basis.n)
    right = assemble_boundary(basis, End.RIGHT)
    z = (1.0 + basis.eigenvalues) * traj.coeff
    z_rate = np.empty_like(z)
    z_rate[:-1] = (z[1:] - z[:-1]) / traj.dt
    z_rate[-1] = (z[-1] - z[-2]) / traj.dt
    maxima = np.empty(len(traj.times))
    for m, t in enumerate(traj.times):
        load = assemble_load(basis, quad, f, g, params, t)
        if traj.bc is BoundaryKind.MIXED:
            load = load - params.beta * (
                b * (right @ traj.coeff_tt[m]) + c2 * (right @ traj.coeff_t[m])
            )
        forcing = (
            load
            - params.tau * traj.coeff_ttt[m]
            - assemble_mass(basis, quad, field, t) @ traj.coeff_tt[m]
            + b * traj.coeff_t[m]
            + c2 * traj.coeff[m]
        ) / b
        maxima[m] = np.abs(z_rate[m] + (c2 / b) * z[m] - forcing).max()
    return maxima


def reference_bdf2(order, params, basis, field, f, g, config, bc):
    """Textbook BDF2 oracle for the linear systems, sharing no code with the solvers' step loop.

    The momentum balance is written as a first-order system in z = (xi, xi', xi'')
    (order 3) or z = (xi, xi') (order 2, at tau = 0, so b = delta), and every step
    solves the dense system (c0 z_{m+1} - h) / dt = G(t_{m+1}, z_{m+1}) for the whole
    state with ``np.linalg.solve``: the first step is implicit Euler (c0 = 1,
    h = z_0), every later one BDF2 (c0 = 3/2, h = 2 z_m - z_{m-1} / 2).  The mass is
    ``assemble_mass`` at t_{m+1}.  The derivative stored above the state is the BDF
    difference of its top entry, and at t = 0 it is F(0)/tau (zero data).  Returns a
    Trajectory.
    """
    if order == 2:
        params = replace(params, tau=0.0)
    n, dt = basis.n, config.dt
    quad = build_quadrature(basis.length, config.quad_points)
    stiffness = assemble_stiffness(basis, quad)
    right = assemble_boundary(basis, End.RIGHT) if bc is BoundaryKind.MIXED else np.zeros((n, n))
    loads = assemble_loads(basis, quad, f, g, params, config.times)
    inertia = params.b * params.beta * right
    damping = params.b * stiffness + params.c2 * params.beta * right
    eye = np.eye(n)
    size = order * n
    top = slice((order - 1) * n, size)
    state = np.zeros((config.n_steps + 1, size))
    above = np.zeros((config.n_steps + 1, n))
    if order == 3:
        above[0] = loads[0] / params.tau
    for m in range(config.n_steps):
        c0 = 1.0 if m == 0 else 1.5
        h = state[0] if m == 0 else 2.0 * state[m] - 0.5 * state[m - 1]
        mass = assemble_mass(basis, quad, field, config.times[m + 1]) + inertia
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)
        # each derivative below the top: (c0 z_j - h_j) / dt = z_{j+1}
        for j in range(order - 1):
            block = slice(j * n, (j + 1) * n)
            matrix[block, block] = c0 / dt * eye
            matrix[block, (j + 1) * n : (j + 2) * n] = -eye
            rhs[block] = h[block] / dt
        matrix[top, :n] = params.c2 * stiffness
        if order == 3:
            # tau (c0 w - h_w) / dt + (M + b beta B) w + (b K + c2 beta B) xi' + c2 K xi = F
            matrix[top, n : 2 * n] = damping
            matrix[top, top] = params.tau * c0 / dt * eye + mass
            rhs[top] = loads[m + 1] + params.tau * h[top] / dt
        else:
            # (M + b beta B)(c0 v - h_v) / dt + (b K + c2 beta B) v + c2 K xi = F
            matrix[top, top] = c0 / dt * mass + damping
            rhs[top] = loads[m + 1] + mass @ h[top] / dt
        state[m + 1] = np.linalg.solve(matrix, rhs)
        above[m + 1] = (c0 * state[m + 1, top] - h[top]) / dt
    series = [state[:, j * n : (j + 1) * n] for j in range(order)]
    if order == 2:
        return Trajectory(config.times, *series, above, None, bc, params)
    return Trajectory(config.times, *series, above, bc, params)


def fd_weights(center: float, nodes: np.ndarray, order: int) -> np.ndarray:
    """Fornberg weights for the ``order``-th derivative at ``center``.

    Classic recursive construction; works for arbitrary node layouts and is
    the independent differentiation oracle used throughout the tests.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - center
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - center
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def fd_derivative(fn, t: float, order: int, h: float, points: int = 11):
    """High-order central finite difference of a scalar function.

    Returns (derivative estimate, roundoff floor).  The floor is the usual
    eps * sum|w| * max|f| bound on cancellation noise, needed to compare
    fairly near roots of the derivative.
    """
    offsets = (np.arange(points) - (points - 1) / 2) * h
    nodes = t + offsets
    weights = fd_weights(t, nodes, order)
    values = np.array([fn(node) for node in nodes])
    estimate = float(weights @ values)
    floor = float(np.finfo(float).eps * np.abs(weights) @ np.abs(values))
    return estimate, floor


def degeneracy_margin(traj, basis, k: float, eval_grid: int | None = None) -> float:
    """Margin oracle: the minimum of 1 - 2k*psi_t over the space-time grid.

    psi_t is summed from the stored coefficients over the closed-form cosine
    modes sqrt(c_i / L) cos(i pi x / L) (c_0 = 1, else 2) at ``eval_grid``
    equispaced points, both ends included (default 8 per mode).
    """
    length, n = basis.length, traj.coeff_t.shape[1]
    points = np.linspace(0.0, length, eval_grid if eval_grid is not None else 8 * n)
    scale = np.sqrt(np.where(np.arange(n) == 0, 1.0, 2.0) / length)
    modes = scale[:, None] * np.cos(np.outer(np.arange(n) * np.pi / length, points))
    return float((1.0 - 2.0 * k * (traj.coeff_t @ modes)).min())


def round_by_round_picard(members, basis, f, g, config, bc, variant):
    """Lockstep Picard oracle that steps one round per ``_integrate`` call, with no windows.

    Round r steps the members still iterating with ``TimeVaryingMass(basis, quad,
    velocity, k, products)`` of their iterate r - 1; a member leaves once it converges
    or fails, the members after a failing one stop with it, and the degeneracy warnings
    of the members up to the first failing one are issued before its failure is raised.
    Returns the (trajectory, report) pairs.
    """
    order = 2 if variant is NonlinearVariant.WESTERVELT else 3
    clamped = variant is NonlinearVariant.RELAXED_JMGT
    members, quad, loads = _prepare_data(order, members, basis, f, g, config, bc)
    k = np.array([[params.k] for params in members])
    reports = [PicardReport() for _ in members]
    last = [None] * len(members)
    stop, failure = len(members), None
    active = list(range(len(members)))
    products = None if clamped else _triple_products(basis)
    velocity = np.zeros((len(members), config.n_steps + 1, basis.n))
    for iteration in range(1, config.picard_max + 1):
        masses = TimeVaryingMass(basis, quad, velocity, k[active], products)
        batch = [members[i] for i in active]
        results = _integrate(order, batch, basis, masses, loads[active], config, bc)
        going = []
        for member, (current, singular) in zip(active, results):
            if singular is not None:
                stop, failure = member, singular
                break
            try:
                converged = _advance(
                    reports[member], last[member], current, iteration, basis, config, not clamped
                )
            except SolverFailure as exc:
                stop, failure = member, exc
                break
            last[member] = current
            if not converged:
                going.append(member)
        if not going:
            break
        active = going
        velocity = np.stack([last[member].coeff_t for member in active])
    else:
        stop = active[0]
        failure = PicardDivergenceError(reports[stop].differences, config.picard_max)
    close = [margin for report in reports[: stop + 1] for margin in report.margins if margin < 0.1]
    for margin in [] if clamped else close:
        warnings.warn(
            f"degeneracy margin {margin:.3g} < 0.1; the model is close to degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    if failure is not None:
        raise failure
    return list(zip(last, reports))

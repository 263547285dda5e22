"""Shared test utilities: finite-difference oracles independent of the package,
and fixture builders."""

from __future__ import annotations

import numpy as np

from jmgt_lab import BoundaryKind, Trajectory


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

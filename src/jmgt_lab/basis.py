"""Neumann-Laplacian cosine eigenbasis on an interval, with quadrature.

On [0, L] the eigenpairs of the Neumann Laplacian are lambda_i = (i*pi/L)^2
with eigenfunctions w_0 = 1/sqrt(L) and w_i = sqrt(2/L) * cos(i*pi*x/L).
They are orthonormal in L2(0, L), and every Sobolev-scale norm used by the
energy audits is diagonal in this basis (the weights live in ``energy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "End",
    "QuadratureRule",
    "SpectralBasis",
    "build_quadrature",
    "build_basis",
    "mode_matrix",
    "trace_vector",
    "project",
]

#: Nodes per Gauss-Legendre panel.  With panels chosen so that the worst product
#: of two modes oscillates at most ~16*pi radians per panel, the Gram identity
#: holds to machine precision for any mode count.  Products of three modes
#: oscillate up to 1.5 times faster and are not resolved to roundoff.
_PANEL_POINTS = 32


class End(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on [0, L].

    ``degree`` is the polynomial degree integrated exactly (per panel, hence
    globally for polynomials).
    """

    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def count(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of the Neumann Laplacian on [0, length]."""

    length: float
    n: int
    eigenvalues: np.ndarray

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.sqrt(self.eigenvalues)

    @property
    def normalizations(self) -> np.ndarray:
        norm = np.full(self.n, math.sqrt(2.0 / self.length))
        norm[0] = 1.0 / math.sqrt(self.length)
        return norm


def build_quadrature(length: float, min_points: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule with at least ``min_points`` nodes.

    Nodes are grouped into panels of at most 32 points; with at least 4n
    nodes the panel width keeps the worst oscillation of a product of two of
    n basis modes small enough that the rule is exact to roundoff for pair
    integrals (stiffness, loads, Gram identity).  A mass of a coefficient
    carrying all n modes is a triple product and needs a finer rule (about
    16n nodes) to reach roundoff; the Picard masses avoid it by a closed form.
    """
    if not length > 0.0:
        raise ValueError(f"interval length must be positive, got {length}")
    points = max(int(min_points), _PANEL_POINTS)
    panels = math.ceil(points / _PANEL_POINTS)
    per_panel = math.ceil(points / panels)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (half[:, None] * ref_nodes[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * ref_weights[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, degree=2 * per_panel - 1)


def build_basis(length: float, n: int) -> SpectralBasis:
    """First ``n`` Neumann-Laplacian eigenpairs on [0, length]."""
    if not length > 0.0:
        raise ValueError(f"interval length must be positive, got {length}")
    if n < 1:
        raise ValueError(f"mode count must be at least 1, got {n}")
    indices = np.arange(n, dtype=float)
    eigenvalues = (indices * math.pi / length) ** 2
    return SpectralBasis(length=float(length), n=int(n), eigenvalues=eigenvalues)


def mode_matrix(basis: SpectralBasis, x: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Values of all modes (or a derivative) at the points ``x``.

    Returns an (n, len(x)) array; row i holds w_i, w_i' or w_i'' at the
    points.  The second derivative uses the eigenrelation w'' = -lambda * w.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    kappa = basis.wavenumbers
    phase = kappa[:, None] * pts[None, :]
    norm = basis.normalizations[:, None]
    if deriv == 0:
        return norm * np.cos(phase)
    if deriv == 1:
        return -norm * kappa[:, None] * np.sin(phase)
    if deriv == 2:
        return -basis.eigenvalues[:, None] * norm * np.cos(phase)
    raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")


def trace_vector(basis: SpectralBasis, end: End) -> np.ndarray:
    """Vector of boundary values of all modes at one end."""
    traces = basis.normalizations
    if end is End.RIGHT:
        # cos(i*pi) alternates sign
        traces[1::2] = -traces[1::2]
    return traces


def project(
    basis: SpectralBasis,
    quad: QuadratureRule,
    fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """L2 projection coefficients c_i = sum_q rho_q f(x_q) w_i(x_q).

    ``fn`` must accept an ndarray of node positions and return values of the
    same shape.
    """
    values = np.asarray(fn(quad.nodes), dtype=float)
    values = np.broadcast_to(values, quad.nodes.shape)
    return mode_matrix(basis, quad.nodes) @ (quad.weights * values)

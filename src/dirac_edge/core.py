"""Shared domain types and small helpers used across the package.

Conventions: 2x2 complex matrices are plain (2, 2) numpy arrays; the matrix
"norm" is the entrywise sup norm; dagger is the conjugate transpose.
"""

from dataclasses import dataclass

import numpy as np

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)


class DiagonalKernelError(ValueError):
    """Raised when a kernel is evaluated at a coincidence point where it jumps."""


class QuadratureError(RuntimeError):
    """Raised when a quadrature refinement fails to converge.

    Carries the last two estimates so callers can inspect the discrepancy
    (previous is None when only one estimate was made).
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class EigensolverError(RuntimeError):
    """Raised when a windowed fiber eigensolve fails: a LAPACK routine reports
    an error, or an eigenpair's residual exceeds its stated bound."""


class ContourError(RuntimeError, FloatingPointError):
    """Raised when a node of the edge-term contour breaks the denominator
    safety bound, i.e. the deformation has crossed the pole line of the
    reflection factor.  Also a FloatingPointError, the type this failure
    had before it got its own."""


class BranchMatchingError(RuntimeError):
    """Raised when dispersion_curves cannot follow a branch from one edge
    momentum to the next by eigenvector overlap (the grid is too coarse)."""


def _converge(estimates, tol, floor, what):
    """The one stop rule of the adaptive quadratures.

    Reads successive estimates (refinements, or running totals of a tail
    sum) and stops at the first that agrees with the one before it:
    sup|cur - prev| < tol * max(floor, sup|cur|), with the sup taken over the
    trailing two axes (over all axes for fewer than two), so a batch of 2x2
    kernels passes only when every point does.  Returns (cur, change);
    raises QuadratureError with the last two estimates when the sequence
    ends first (previous is None when it held only one).
    """
    last = previous = None
    for est in estimates:
        previous, last = last, est
        if previous is not None:
            axes = (-2, -1) if np.ndim(last) >= 2 else None
            change = np.max(np.abs(last - previous), axis=axes)
            if np.all(change < tol * np.maximum(floor, np.max(np.abs(last), axis=axes))):
                return last, change
    detail = "" if previous is None else f" (last change {np.max(np.abs(last - previous)):.2e})"
    raise QuadratureError(f"{what} not converged{detail}", last=last, previous=previous)


def sup_norm(a):
    """Entrywise sup norm of a matrix (or batch of matrices over last two axes)."""
    a = np.asarray(a)
    return np.max(np.abs(a), axis=(-2, -1))


def dagger(a):
    """Conjugate transpose over the last two axes."""
    a = np.asarray(a)
    return np.conj(np.swapaxes(a, -2, -1))


def bracket_xi(xi):
    """sqrt(1 + xi^2), the momentum bracket used in the fiber formulas."""
    return np.sqrt(1.0 + np.asarray(xi, dtype=float) ** 2)


@dataclass(frozen=True)
class BoundaryParam:
    """Boundary coupling gamma in psi_2(x1, 0) = gamma * psi_1(x1, 0).

    Only 0 < gamma < inf is admitted; the zigzag endpoints 0 and inf are
    rejected at construction.
    """

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not np.isfinite(g) or g <= 0.0:
            raise ValueError(
                f"gamma must be finite and positive (zigzag values excluded), got {self.gamma!r}"
            )
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class SpectralPoint:
    """Complex energy z = u + i v with v != 0."""

    u: float
    v: float

    def __post_init__(self):
        if self.v == 0.0 or not np.isfinite(self.u) or not np.isfinite(self.v):
            raise ValueError(f"spectral point must have Im z != 0, got u={self.u}, v={self.v}")

    @property
    def z(self):
        return complex(self.u, self.v)


def as_halfplane_array(x):
    """Check a length-2 sequence is a point with x2 > 0; return float array (2,)."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a 2d point, got shape {arr.shape}")
    if not arr[1] > 0.0:
        raise ValueError(f"half-plane point needs x2 > 0, got x2={arr[1]}")
    return arr


def gauss_legendre_panels(edges, n_nodes):
    """Composite Gauss-Legendre nodes/weights, n_nodes per panel, on the
    panels between consecutive entries of the increasing array edges."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights

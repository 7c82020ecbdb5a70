"""Smooth functional calculus via the Helffer-Sjostrand contour integral.

F(H) is assembled as -(1/pi) * int dbar F_N(u,v) (H - (u+iv))^{-1} du dv,
where F_N is the almost-analytic extension of a real Schwartz-class
function F to order N.  The same machinery evaluates F on discretized
fiber operators (fiber_F_kernel, checked against their eigendecomposition);
the momentum-integrated fiber diagonals are in fiber.
"""

from dataclasses import dataclass, replace
from math import comb, factorial

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite_e import HermiteE

from .core import _converge, gauss_legendre_panels
from .fiber import discretize_fiber

__all__ = [
    "SchwartzFunction",
    "HsQuadrature",
    "almost_analytic_eval",
    "dbar_eval",
    "hs_apply_matrix",
    "fiber_F_kernel",
]


def _smoothstep_poly(m):
    # degree 2m+1 polynomial with s(0)=0, s(1)=1 and m vanishing derivatives
    # at both ends
    coeffs = np.zeros(2 * m + 2)
    for k in range(m + 1):
        coeffs[m + 1 + k] = comb(m + k, k) * comb(2 * m + 1, m - k) * (-1.0) ** k
    return Polynomial(coeffs)


# cutoff chi: 1 on |v| <= 1/2, 0 on |v| >= 1, degree-7 smoothstep in between
_CHI_STEP = _smoothstep_poly(3)
_CHI_STEP_D = _CHI_STEP.deriv()


def _chi(v):
    w = np.clip(2.0 * (np.abs(v) - 0.5), 0.0, 1.0)
    return 1.0 - _CHI_STEP(w)


def _chi_prime(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    mask = (np.abs(v) > 0.5) & (np.abs(v) < 1.0)
    w = 2.0 * (np.abs(v[mask]) - 0.5)
    out[mask] = -2.0 * _CHI_STEP_D(w) * np.sign(v[mask])
    return out


class SchwartzFunction:
    """Real-valued function with analytic derivatives up to a fixed order.

    derivs[j] is the j-th derivative callable (derivs[0] = F itself).
    support is an interval outside which F is negligible; support_max
    bounds |E| on the support (used to window fiber eigensolves).
    """

    def __init__(self, derivs, support):
        self.derivs = list(derivs)
        self.support = (float(support[0]), float(support[1]))

    def __call__(self, u):
        return self.derivs[0](np.asarray(u, dtype=float))

    @property
    def support_max(self):
        return max(abs(self.support[0]), abs(self.support[1]))

    def derivative(self, j):
        if j >= len(self.derivs):
            raise ValueError(
                f"derivative order {j} unavailable (have up to {len(self.derivs) - 1})"
            )
        return self.derivs[j]

    @classmethod
    def gaussian(cls, center, sigma, height=1.0, n_derivs=8):
        """height * exp(-(u-center)^2 / (2 sigma^2)) with Hermite derivatives."""
        center, sigma = float(center), float(sigma)

        def deriv(j):
            he = HermiteE.basis(j)

            def f(u, he=he, j=j):
                t = (np.asarray(u, dtype=float) - center) / sigma
                return height * (-1.0 / sigma) ** j * he(t) * np.exp(-0.5 * t * t)

            return f

        return cls([deriv(j) for j in range(n_derivs + 1)],
                   (center - 10 * sigma, center + 10 * sigma))

    @classmethod
    def plateau(cls, e1, e2, e3, e4, smooth_order=7, n_derivs=7):
        """Window rising smoothly on [e1,e2], 1 on [e2,e3], falling on [e3,e4].

        Built from a smoothstep with smooth_order vanishing end derivatives,
        so derivatives up to that order are continuous piecewise polynomials.
        """
        if not (e1 < e2 <= e3 < e4):
            raise ValueError("plateau edges must satisfy e1 < e2 <= e3 < e4")
        if n_derivs > smooth_order:
            raise ValueError("n_derivs cannot exceed smooth_order")
        s = _smoothstep_poly(smooth_order)
        rise = [s.deriv(j) if j else s for j in range(n_derivs + 1)]
        wu, wd = e2 - e1, e4 - e3

        def deriv(j):
            def f(u, j=j):
                u = np.asarray(u, dtype=float)
                out = np.zeros_like(u)
                if j == 0:
                    out[(u >= e2) & (u <= e3)] = 1.0
                # each flank's polynomial only where some u falls on it
                m = (u > e1) & (u < e2)
                if m.any():
                    out[m] = rise[j]((u[m] - e1) / wu) / wu**j
                m = (u > e3) & (u < e4)
                if m.any():
                    out[m] = (-1.0) ** j * rise[j]((e4 - u[m]) / wd) / wd**j
                return out

            return f

        return cls([deriv(j) for j in range(n_derivs + 1)], (e1, e4))


def almost_analytic_eval(F, N, u, v):
    """Almost-analytic extension F_N(u + iv) of order N."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    total = np.zeros(np.broadcast(u, v).shape, dtype=complex)
    for j in range(N + 1):
        total += F.derivative(j)(u) * (1j * v) ** j / factorial(j)
    return total * _chi(v)


def dbar_eval(F, N, u, v):
    """(1/2)(d_u + i d_v) applied to the order-N extension.

    The Taylor terms telescope, leaving the order-(N+1) remainder times chi
    plus the cutoff-derivative ring term.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    core = F.derivative(N + 1)(u) * (1j * v) ** N * _chi(v) / factorial(N)
    ring = np.zeros(np.broadcast(u, v).shape, dtype=complex)
    for j in range(N + 1):
        ring += F.derivative(j)(u) * (1j * v) ** j / factorial(j)
    return 0.5 * (core + 1j * _chi_prime(v) * ring)


@dataclass(frozen=True)
class HsQuadrature:
    """Tensor Gauss-Legendre rule on supp dbar F_N.

    v-panels refine geometrically toward v = 0 down to |v| = v_min, where
    the |v|^N vanishing of dbar F_N certifies the dropped core.
    """

    u_panels: int = 8
    u_nodes: int = 8
    v_min: float = 1e-4
    v_nodes: int = 6
    tol: float = 1e-7
    max_refinements: int = 3


_SOLVE_BYTES = 16 * 2**20  # bound on one batch's (dim, shifts, columns) work array


def _shifted_solves(diag, off, B, z):
    """X[:, k] = (T - z_k)^{-1} B for every shift z_k, T the real symmetric
    tridiagonal (diag, off), by a Thomas recursion vectorized over the shifts.
    No pivoting is needed: every leading block of T - z is symmetric minus z
    with Im z != 0, so it is nonsingular."""
    X = np.empty((diag.size, z.size, B.shape[1]), dtype=complex)
    c = np.empty((diag.size - 1, z.size), dtype=complex)
    piv = diag[0] - z
    X[0] = B[0] / piv[:, None]
    for i in range(1, diag.size):
        c[i - 1] = off[i - 1] / piv
        piv = (diag[i] - z) - off[i - 1] * c[i - 1]
        X[i] = (B[i] - off[i - 1] * X[i - 1]) / piv[:, None]
    for i in range(diag.size - 2, -1, -1):
        X[i] -= c[i][:, None] * X[i + 1]
    return X


def _hs_sum(F, N, tri, B, quad):
    """pi^{-1} sum over the contour nodes of dbar F_N(z) (T - z)^{-1} B, for T
    the real symmetric tridiagonal tri = (diagonal, subdiagonal) and B real.

    Only the nodes with Im z > 0 are solved: dbar F_N(u, -v) is the conjugate
    of dbar F_N(u, v), the v-rule is mirror-symmetric and
    (T - conj z)^{-1} B = conj((T - z)^{-1} B), so the sum is
    2 Re(sum over Im z_k > 0 of D_k (T - z_k)^{-1} B) / pi, D_k the weighted
    dbar F_N(z_k)."""
    a, bmax = F.support
    pad = 2.0  # extension support reaches one unit past supp F in u
    ue = np.linspace(a - pad, bmax + pad, quad.u_panels + 1)
    un, uw = gauss_legendre_panels(ue, quad.u_nodes)
    # geometric refinement toward 0 on [v_min, 1/2]; the cutoff-ring region
    # [1/2, 1] gets uniform panels with edges pinned at the chi breakpoints
    n_dec = int(np.ceil(np.log2(0.5 / quad.v_min)))
    ve_pos = np.concatenate(
        [np.geomspace(quad.v_min, 0.5, n_dec + 1), np.linspace(0.5, 1.0, 5)[1:]]
    )
    vn, vw = gauss_legendre_panels(ve_pos, quad.v_nodes)
    U, V = np.meshgrid(un, vn, indexing="ij")
    D = dbar_eval(F, N, U, V) * np.outer(uw, vw)
    flatD = D.ravel()
    flatZ = (U + 1j * V).ravel()
    dmax = np.max(np.abs(flatD))
    if dmax == 0.0:
        return np.zeros(B.shape)
    acc = np.zeros(B.shape, dtype=complex)
    keep = np.abs(flatD) > 1e-14 * dmax
    flatD, flatZ = flatD[keep], flatZ[keep]
    chunk = max(1, _SOLVE_BYTES // (16 * B.size))
    for k in range(0, flatZ.size, chunk):
        X = _shifted_solves(*tri, B, flatZ[k : k + chunk])
        acc += np.tensordot(flatD[k : k + chunk], X, axes=(0, 1))
    # sign pinned by the diagonal self-calibration test: with
    # dbar = (d_u + i d_v)/2 the reconstruction is +pi^{-1} int dbar F (H-z)^{-1}
    return 2.0 * acc.real / np.pi


def _hs_refinements(F, N, tri, B, quad):
    """_hs_sum on quad, then on max_refinements refinements of it (u panels
    doubled, two more v nodes per panel each time)."""
    yield _hs_sum(F, N, tri, B, quad)
    for _ in range(quad.max_refinements):
        quad = replace(quad, u_panels=2 * quad.u_panels, v_nodes=quad.v_nodes + 2)
        yield _hs_sum(F, N, tri, B, quad)


def _real_tridiagonal(H):
    """(diag, off), Q with H = Q T Q^*, T the real symmetric tridiagonal
    (diag, off) and Q unitary: the Hessenberg form of the Hermitian H, whose
    subdiagonal is made real and nonnegative by a diagonal phase folded into
    Q (past an exactly zero subdiagonal entry the phase carries on unchanged)."""
    # imported here so that the package and its kernel layers load without scipy
    from scipy.linalg import hessenberg

    T, Q = hessenberg(H, calc_q=True)
    sub = np.diag(T, -1)
    off = np.abs(sub)
    unit = np.where(off > 0.0, sub / np.where(off > 0.0, off, 1.0), 1.0)
    phase = np.concatenate([[1.0], np.cumprod(unit)])
    return (np.diag(T).real.copy(), off), Q * phase[None, :]


def hs_apply_matrix(F, N, H, quad=None):
    """F(H) for Hermitian H via the contour integral, refined until
    core._converge accepts (tolerance quad.tol, floor 1), else raises its
    QuadratureError.

    H is reduced once to a real symmetric tridiagonal T = Q^* H Q
    (_real_tridiagonal), so each resolvent is a tridiagonal solve, O(dim)
    per column, and _hs_sum solves the upper half-plane nodes only; each
    refinement Q F(T) Q^* is compared in the original basis."""
    H = np.asarray(H)
    if np.max(np.abs(H - H.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise ValueError("H must be Hermitian")
    if quad is None:
        quad = HsQuadrature()
    tri, Q = _real_tridiagonal(H)
    refinements = (Q @ FT @ Q.conj().T
                   for FT in _hs_refinements(F, N, tri, np.eye(H.shape[0]), quad))
    return _converge(refinements, quad.tol, 1.0, "Helffer-Sjostrand quadrature")[0]


def _node_row(fib, i):
    """(2, dim) map from a DOF vector to the spinor at node i, the rule of
    FiberDiscretization.eigensystem: psi1 is DOF 2i (the half-cell metric
    undone at a half-line's first node) and psi2 the average of the
    neighbouring midpoints (ends: one-sided extrapolation)."""
    n = fib.grid.size
    row = np.zeros((2, fib.dim))
    row[0, 2 * i] = np.sqrt(2.0) if (fib.half_line and i == 0) else 1.0
    if i == 0:
        row[1, 1], row[1, 3] = 1.5, -0.5
    elif i == n - 1:
        row[1, 2 * n - 3], row[1, 2 * n - 5] = 1.5, -0.5
    else:
        row[1, 2 * i - 1] = row[1, 2 * i + 1] = 0.5
    return row


def _interp_rows(fib, t):
    """Linear interpolation of the node rows at position t -> (2, dim)."""
    t = float(t)
    g = fib.grid
    j = int(np.clip(np.searchsorted(g, t) - 1, 0, g.size - 2))
    w = (t - g[j]) / (g[j + 1] - g[j])
    return (1.0 - w) * _node_row(fib, j) + w * _node_row(fib, j + 1)


def fiber_F_kernel(F, gamma, b, xi, t, tprime, grid=None, method="eig", N=4,
                   quad=None, h=None, T_dom=None, rich_tol=1e-3):
    """F applied to the fiber operator at momentum xi, kernel at (t, t').

    method="eig": eigendecomposition of the discretized fiber (oracle
    route); when the grid is built internally, the kernel on step h/2 is
    returned if core._converge accepts it against step h (tolerance rich_tol,
    floor sqrt(b)).  method="hs": contour-integral route on the same matrix.
    """
    if grid is None:
        fib = discretize_fiber(gamma, xi, b, h=h, T_dom=T_dom,
                               whole_line=gamma is None)
        if method == "eig":
            fine = discretize_fiber(gamma, xi, b, h=fib.h / 2.0, T_dom=fib.T_dom,
                                    whole_line=gamma is None)
            halvings = (fiber_F_kernel(F, gamma, b, xi, t, tprime, grid=g) for g in (fib, fine))
            return _converge(halvings, rich_tol, np.sqrt(b), "fiber kernel under step halving")[0]
    else:
        fib = grid
    emax = F.support_max
    row = _interp_rows(fib, t)
    col = _interp_rows(fib, tprime)
    if method == "eig":
        E, V = fib.raw_eigensystem(emin=-emax, emax=emax)
        if E.size == 0:
            return np.zeros((2, 2), dtype=complex)
        M_col = (V * F(E)[None, :]) @ (V.T @ col.T)
    elif method == "hs":
        # apply F(H) to the two interpolation vectors only
        quad = quad or HsQuadrature()
        refinements = _hs_refinements(F, N, (fib.diag, fib.off), col.T, quad)
        M_col = _converge(refinements, quad.tol, 1.0, "Helffer-Sjostrand quadrature")[0]
    else:
        raise ValueError(f"unknown method {method!r}")
    return (row @ M_col) / fib.h


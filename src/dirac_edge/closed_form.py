"""Closed-form kernels of the free half-plane Dirac problem.

Everything here is exact arithmetic on the explicit formulas: the reflection
coefficient alpha, the whole-line fiber kernel, the half-line fiber kernel,
and the whole-plane (bulk) kernel in terms of modified Bessel functions.
"""

import numpy as np
from scipy.special import k0, k1

from .core import (
    SIGMA_1,
    BoundaryParam,
    DiagonalKernelError,
    bracket_xi,
)

__all__ = [
    "alpha",
    "beta_coeffs",
    "whole_line_kernel",
    "fiber_kernel",
    "apply_fiber_resolvent",
    "bulk_plane_kernel",
]


def alpha(gamma, xi):
    """Reflection coefficient alpha(xi) of the half-line boundary condition.

    alpha = (gamma + i(<xi> + xi)) / (1 + i gamma (<xi> + xi)).  Vectorized in xi.
    """
    g = gamma.gamma if isinstance(gamma, BoundaryParam) else BoundaryParam(gamma).gamma
    s = bracket_xi(xi) + np.asarray(xi, dtype=float)
    return (g + 1j * s) / (1.0 + 1j * g * s)


def beta_coeffs(gamma, xi):
    """Boundary-matching coefficients (beta1, beta2) with beta1 = -gamma*beta2."""
    g = gamma.gamma if isinstance(gamma, BoundaryParam) else BoundaryParam(gamma).gamma
    s = bracket_xi(xi) + np.asarray(xi, dtype=float)
    denom = 1.0 + 1j * s * g
    return g / denom, -1.0 / denom


def whole_line_kernel(xi, z):
    """Resolvent kernel of the whole-line fiber operator at energy i, at offset z.

    Returns (1/2<xi>) e^{-<xi>|z|} [[i, xi + <xi> sgn z], [xi - <xi> sgn z, i]].
    The kernel jumps at z = 0, so coincidence evaluation is an error.
    """
    z = float(z)
    if z == 0.0:
        raise DiagonalKernelError("whole-line fiber kernel is discontinuous at z = 0")
    br = float(bracket_xi(xi))
    s = 1.0 if z > 0 else -1.0
    pref = np.exp(-br * abs(z)) / (2.0 * br)
    return pref * np.array(
        [[1j, xi + br * s], [xi - br * s, 1j]], dtype=complex
    )


def fiber_kernel(gamma, xi, t, tprime):
    """Half-line fiber resolvent kernel K(t, t') at energy i.

    Direct term plus the alpha-weighted reflected term (right-multiplied by
    sigma_1).  The direct term jumps across t = t', so exact coincidence is
    rejected.
    """
    t = float(t)
    tprime = float(tprime)
    if t < 0 or tprime < 0:
        raise ValueError("fiber kernel arguments must be nonnegative")
    if t == tprime:
        raise DiagonalKernelError("half-line fiber kernel is discontinuous at t = t'")
    direct = whole_line_kernel(xi, t - tprime)
    reflected = whole_line_kernel(xi, t + tprime)
    return direct + alpha(gamma, xi) * reflected @ SIGMA_1


def apply_fiber_resolvent(gamma, xi, psi, h, max_step=0.01):
    """Apply the half-line fiber resolvent to a sampled spinor.

    psi has shape (n, 2) on the uniform grid t_j = j*h.  The direct-term
    integral is split at t' = t with one-sided kernel limits so the kink does
    not degrade the trapezoid rule; the reflected term is smooth.  Both
    kernel terms are exponentials in t and t', so the trapezoid sums cost
    O(n): the direct term is a forward and a backward decaying recursion,
    the reflected term has rank one.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 2:
        raise ValueError(f"psi must have shape (n, 2), got {psi.shape}")
    h = float(h)
    if h > max_step:
        raise ValueError(f"grid step {h} exceeds max_step={max_step}; refine the grid")
    n = psi.shape[0]
    t = h * np.arange(n)
    al = complex(alpha(gamma, xi))
    br = float(bracket_xi(xi))
    # whole-line kernel matrices at z -> 0+ and z -> 0-
    plus, minus = (np.array([[1j, xi + s], [xi - s, 1j]]) / (2.0 * br) for s in (br, -br))
    wpsi = h * psi                      # trapezoid weights times psi
    wpsi[[0, -1]] *= 0.5

    # Reflected part: smooth in (t + t'); plain trapezoid.  The t=t'=0 corner
    # value is irrelevant because psi vanishes near the grid ends.
    decay = np.exp(-br * t)
    phi = al * np.outer(decay, plus @ SIGMA_1 @ (decay @ wpsi))

    # Direct part: trapezoid on [0, t_i] and [t_i, inf) separately; the
    # half weights of the split at j == i combine to a full weight on the
    # average of the one-sided limits.  below[i] = sum_{j<i} q^(i-j) w_j psi_j
    # and above[i] = sum_{j>i} q^(j-i) w_j psi_j.
    q = np.exp(-br * h)
    below, above = np.zeros((n, 2), complex), np.zeros((n, 2), complex)
    for i in range(1, n):
        below[i] = q * (below[i - 1] + wpsi[i - 1])
        above[-i - 1] = q * (above[-i] + wpsi[-i])
    phi += below @ plus.T + above @ minus.T + wpsi @ (0.5 * (plus + minus)).T
    return phi


def bulk_plane_kernel(lam, dx, energy_sign=1):
    """Whole-plane Dirac resolvent kernel at energy i*lam (or -i*lam).

    B(dx) = (lam/2pi) * [ i*s*K0(lam r) I + i K1(lam r) sigma.(dx/r) ],
    with s = energy_sign, r = |dx|.  Derived by applying the Dirac symbol to
    the fundamental solution of (-Delta + lam^2); cross-checked against a 2D
    Fourier-inversion oracle in the tests.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if energy_sign not in (1, -1):
        raise ValueError("energy_sign must be +1 or -1")
    dx = np.asarray(dx, dtype=float)
    r = np.linalg.norm(dx, axis=-1)
    if np.any(r == 0.0):
        raise DiagonalKernelError("bulk kernel is singular at dx = 0")
    n1 = dx[..., 0] / r
    n2 = dx[..., 1] / r
    a = lam * r
    pref = lam / (2.0 * np.pi)
    out = np.empty(np.shape(r) + (2, 2), dtype=complex)
    diag = 1j * energy_sign * k0(a) * pref
    off = 1j * k1(a) * pref
    out[..., 0, 0] = diag
    out[..., 1, 1] = diag
    out[..., 0, 1] = off * (n1 - 1j * n2)
    out[..., 1, 0] = off * (n1 + 1j * n2)
    return out

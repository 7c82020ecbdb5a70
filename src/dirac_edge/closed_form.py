"""Closed-form kernels of the free half-plane Dirac problem.

Everything here is exact arithmetic on the explicit formulas: the reflection
coefficient alpha, the whole-line fiber kernel, the half-line fiber kernel,
and the whole-plane (bulk) kernel in terms of the modified Bessel functions
K0 and K1, which _bessel_k01 evaluates.
"""

from math import factorial

import numpy as np

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
    Fourier-inversion oracle in the tests.  K0 and K1 come from _bessel_k01,
    within 6.7e-16 relative of mpmath for lam r in [1e-8, 700] (measured).
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
    k0, k1 = _bessel_k01(a)
    diag = 1j * energy_sign * k0 * pref
    off = 1j * k1 * pref
    out[..., 0, 0] = diag
    out[..., 1, 1] = diag
    out[..., 0, 1] = off * (n1 - 1j * n2)
    out[..., 1, 0] = off * (n1 + 1j * n2)
    return out


# _bessel_k01 sums the ascending series up to _K_SERIES_MAX and a piecewise
# polynomial above it.  At x <= 1 the magnitudes of the series' terms add up
# to at most 3.7 times K0 (11 times at x = 2), so little is lost to
# cancellation, and the first omitted term, k = 10, is below 4e-19 of the
# sum.  Above, sqrt(x) e^x K_nu(x) is smooth in s = 2/x - 1 on (-1, 1), and
# _K_PIECES pieces of degree _K_DEGREE interpolate it to rounding: the fit is
# limited by the rounding of its node values, not by the degree.
_K_SERIES_MAX = 1.0
_K_SERIES_TERMS = 10
_K_PIECES = 16
_K_DEGREE = 9


def _k01_series_rows(m):
    """Coefficients of y^k, k < m, in the four ascending series in
    y = x^2/4 (Abramowitz & Stegun 9.6.10-9.6.13), with H_k the harmonic
    numbers and gamma Euler's constant:
    I0 = sum y^k/k!^2,  K0 + ln(x/2) I0 = sum (H_k - gamma) y^k/k!^2,
    2 I1/x = sum y^k/(k!(k+1)!),
    (ln(x/2) I1 - K1 + 1/x) 2/x = sum ((H_k + H_k+1)/2 - gamma) y^k/(k!(k+1)!)."""
    rows = np.empty((4, m))
    h = 0.0
    for k in range(m):
        a = 1.0 / factorial(k) ** 2
        b = 1.0 / (factorial(k) * factorial(k + 1))
        h_next = h + 1.0 / (k + 1)
        rows[:, k] = a, (h - np.euler_gamma) * a, b, (0.5 * (h + h_next) - np.euler_gamma) * b
        h = h_next
    return rows


def _scaled_k01_integral(x):
    """sqrt(x) e^x (K0(x), K1(x)) for x >= 1, shape (n, 2), by the trapezoid
    rule on K_nu(x) = int_0^inf e^(-x cosh t) cosh(nu t) dt.

    With 2 sinh(t/2) = u / sqrt(x) the integral is
    int_0^inf e^(-u^2/2) (1 + u^2/2x)^nu / sqrt(1 + u^2/4x) du, analytic in
    the strip |Im u| < 2 sqrt(x), so step 1/4 on u <= 10 is exact to rounding
    (Trefethen & Weideman, SIAM Rev. 56 (2014))."""
    u = 0.25 * np.arange(41)
    w = np.full(u.size, 0.25)
    w[0] = 0.125
    q = u**2 / (4.0 * np.asarray(x)[:, None])
    base = (np.exp(-0.5 * u**2) * w) / np.sqrt(1.0 + q)
    return np.stack([base.sum(1), (base * (1.0 + 2.0 * q)).sum(1)], axis=1)


def _k01_pieces():
    """Monomial coefficients, shape (_K_DEGREE + 1, 2, _K_PIECES), of the
    interpolants of sqrt(x) e^x (K0, K1) in each piece's local variable
    tau in [-1, 1], at the piece's Chebyshev points.  Piece j covers
    v = _K_PIECES / x in [j, j + 1], where v = j + (tau + 1)/2; with
    _K_SERIES_MAX = 1 the pieces tile x > 1, uniform in s = 2/x - 1.

    The Chebyshev transform works on the values minus their mean: the
    functions vary by about 1e-3 across a piece, so a transform of the raw
    values would carry their rounding into every coefficient."""
    n = _K_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    v = np.arange(_K_PIECES)[:, None] + 0.5 * (np.cos(theta) + 1.0)
    g = _scaled_k01_integral((_K_PIECES / v).ravel()).reshape(_K_PIECES, n, 2)
    mean = g.mean(axis=1)
    cheb = 2.0 / n * np.einsum("ik,jic->kcj", np.cos(theta[:, None] * np.arange(n)),
                               g - mean[:, None])
    cheb[0] = mean.T
    # powers of tau in T_k: T_0 = 1, T_1 = tau, T_k+1 = 2 tau T_k - T_k-1
    powers = np.zeros((n, n))
    powers[0, 0] = powers[1, 1] = 1.0
    for k in range(2, n):
        powers[k, 1:] = 2.0 * powers[k - 1, :-1]
        powers[k] -= powers[k - 2]
    return np.einsum("kq,kcj->qcj", powers, cheb)


_K_SERIES_ROWS = _k01_series_rows(_K_SERIES_TERMS)
_K_PIECE_COEFFS = _k01_pieces()


def _bessel_k01(x):
    """(K0(x), K1(x)) for x > 0, each of x's shape; 0 where e^-x underflows.

    x <= _K_SERIES_MAX sums the four ascending series of _k01_series_rows
    by one stacked Horner loop; x above it evaluates the piecewise
    polynomial of _k01_pieces and divides by sqrt(x) e^x.  Within 4.4e-16
    (K0) and 6.7e-16 (K1) relative of mpmath over [1e-8, 700] (measured).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((2,) + x.shape)
    series = x <= _K_SERIES_MAX
    xs = x[series]
    y = 0.25 * xs * xs
    acc = np.repeat(_K_SERIES_ROWS[:, -1:], xs.size, axis=1)
    for c in _K_SERIES_ROWS[:, -2::-1].T:
        acc *= y
        acc += c[:, None]
    i0, s0, i1, s1 = acc
    log = np.log(0.5 * xs)
    out[0, series] = s0 - log * i0
    out[1, series] = 1.0 / xs + 0.5 * xs * (log * i1 - s1)
    xl = x[~series]
    v = _K_PIECES / xl
    j = np.fmin(v, _K_PIECES - 1).astype(int)     # fmin: NaN stays in range
    tau = 2.0 * (v - j) - 1.0
    coeffs = np.take(_K_PIECE_COEFFS, j, axis=2)  # (degree + 1, 2, n)
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= tau
        acc += c
    acc *= np.exp(-xl) / np.sqrt(xl)
    out[:, ~series] = acc
    return out[0][()], out[1][()]

"""Half-plane Green's function: bulk part plus the boundary-reflected term.

The reflected ("edge") term is an oscillatory momentum integral.  It is
evaluated two ways: on a hyperbolic contour (works for all separations,
including points far apart along the boundary) and by direct
quadrature in the original variable (usable only when the distance to the
mirrored point is not too small; serves as an oracle for the contour route).

One evaluator, `edge_F_batch`, computes the contour route and one assembly,
`halfplane_kernel_batch`, adds the bulk part and checks the inputs.  Each
point is summed on a contour at least epsilon (`ContourConfig.epsilon`)
from the pole line of the reflection factor: points at angle
theta <= pi/2 - epsilon on the undeformed contour, the steepest-descent
path of the phase, where the exponent -r cosh(x) is real; the others, near
the boundary line, on the contour shifted down by epsilon.  On either
contour the integrand is analytic in a strip around the real axis, so the
edge term is a trapezoid sum, which converges exponentially in the ratio of
strip width to step (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014).  Each point's step follows from
its own strip, which narrows as the pair nears the boundary line
(theta -> +-pi/2), and from the growth of exp(-r cosh) off the axis, which
matters at large r; steps sit on a ladder of powers of 2^(-1/4), so points
on one rung share node vectors.  Without a `ContourConfig` they make a
single pass; with one every refinement halves each step until
core._converge accepts.  A single point is a batch of one, and its refined
value is the call with cfg=ContourConfig().

The kernel satisfies the reflection-transpose identity

    K(y, x) = K(P1 x, P1 y)^T,    P1: (x1, x2) -> (-x1, x2),

because P1 composed with complex conjugation commutes with D = -i sigma.grad
and keeps the real boundary condition psi_2 = gamma psi_1, so that
K(y, x)^T = K_{-i lam}(x, y)^* = K_{i lam}(P1 x, P1 y).  The grid operator
and the Schur estimate use it to evaluate one kernel per mirror pair.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryParam,
    ContourError,
    _converge,
    as_halfplane_array,
    gauss_legendre_panels,
    sup_norm,
)
from .closed_form import bulk_plane_kernel

__all__ = [
    "ContourConfig",
    "DecayFit",
    "edge_F_batch",
    "edge_F_direct",
    "halfplane_kernel_batch",
    "fit_decay",
    "zigzag_zero_mode",
]

# truncation and step budget: the dropped tails and the trapezoid rule's
# aliasing error each stay below exp(-_BUDGET) relative to the integrand
_BUDGET = 37.0
# trapezoid steps sit on the ladder h = 2^(-k/_RUNGS); a refinement adds
# _RUNGS rungs, which halves the step
_RUNGS = 4
# fractions of the strip half-width tried by the step rule
_STRIP_FRACTIONS = 2.0 ** -np.arange(0.0, 4.0, 0.5)
# points x nodes summed at once: each complex temporary of a block is 1 MB
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ContourConfig:
    """Least distance epsilon between the contour and the pole line of the
    reflection factor, and the convergence check of the refined contour sum.

    Points with theta <= pi/2 - epsilon are summed on the undeformed contour,
    the others on the contour shifted down by epsilon (see _contour_sum).
    """

    epsilon: float = 0.3
    tol: float = 1e-10
    max_refinements: int = 6

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.pi / 2):
            raise ValueError(f"epsilon must lie in (0, pi/2), got {self.epsilon}")


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential decay |K| ~ C_hat * exp(-c_hat*lam*r)/r."""

    c_hat: float
    C_hat: float
    residual: float


def _truncation(r_eff):
    """x_max with exp(-r_eff*(cosh(x) - 1) + |x|) below exp(-_BUDGET)."""
    x = np.arccosh(1.0 + _BUDGET / r_eff)
    for _ in range(3):
        x = np.arccosh(1.0 + (_BUDGET + x) / r_eff)
    return x


def _rungs(r, theta, shift):
    """Ladder rung k of each point's trapezoid step h = 2^(-k/_RUNGS) on the
    contour shifted down by shift (see _trapezoid).

    In x the integrand is analytic in the strip |Im x| < delta, bounded by
    the poles of c(w) above and below and, below, by the line where
    exp(-r cosh(x - i shift)) stops decaying.  On Im x = -d it is larger
    than on the contour by exp(r (cos shift - cos(shift + d))), so the
    trapezoid error with step h is about
    exp(r (cos shift - cos(shift + d)) - 2 pi d / h); at shift 0 the growth
    r (1 - cos d) is the same above the contour.  The step is the largest h
    that keeps this below exp(-_BUDGET) over the tried
    d = delta * _STRIP_FRACTIONS, rounded down onto the ladder.
    """
    delta = np.minimum(np.minimum(np.pi / 2 + shift - theta, np.pi / 2 - shift),
                       3 * np.pi / 2 + theta - shift)
    # no-op for |theta| < pi/2; past the pole it keeps the step finite, so the
    # denominator check of _trapezoid reports the angle
    delta = np.maximum(delta, min(shift, np.pi / 2 - shift))
    h = np.zeros_like(r)
    for frac in _STRIP_FRACTIONS:
        d = frac * delta
        h = np.maximum(h, 2 * np.pi * d / (_BUDGET + r * (np.cos(shift) - np.cos(shift + d))))
    return np.ceil(-_RUNGS * np.log2(h)).astype(int)


def _blocks(r, rung, cos_shift):
    """Blocks (points, h, lo, hi) of the trapezoid sum: points on one rung,
    of similar r, summed over the nodes x = j h, lo <= j < hi, that the
    truncation of the block's smallest r keeps.  Each block has at most
    _BLOCK point-nodes; a point with more nodes than that is summed over
    several node ranges.
    """
    order = np.lexsort((r, rung))
    rung_end = np.searchsorted(rung[order], rung[order], "right")
    start = 0
    while start < order.size:
        first = order[start]
        h = 2.0 ** (-rung[first] / _RUNGS)
        m = int(_truncation(r[first] * cos_shift) / h)
        stop = min(start + max(1, _BLOCK // (2 * m + 1)), rung_end[start])
        for lo in range(-m, m + 1, _BLOCK):
            yield order[start:stop], h, lo, min(lo + _BLOCK, m + 1)
        start = stop


def _contour_sum(g, r, theta, eps, refinement):
    """F at flat arrays (r, theta), each point summed on a contour at least
    eps (ContourConfig.epsilon) from the pole line Im w = pi/2 of c(w).

    A point with theta <= pi/2 - eps is summed on the undeformed contour
    w = x + i theta, where the exponent -r cosh(x) is real: this is the
    steepest-descent path of the phase, free of the cancellation of a
    shifted contour.  A point closer to the pole line is summed on the
    contour shifted down by eps.  By Cauchy's theorem both give the same F;
    the two groups go through _trapezoid separately, so a block never mixes
    them.  The single pass is within 8.3e-15 relative of the refined value
    over |S| <= 20, 1e-3 <= T <= 10 (measured; see edge_F_batch).
    """
    F = np.empty((r.size, 2, 2), dtype=complex)
    near = theta > np.pi / 2 - eps
    for group, shift in ((~near, 0.0), (near, eps)):
        F[group] = _trapezoid(g, r[group], theta[group], shift, eps, refinement)
    return F


def _trapezoid(g, r, theta, shift, eps, refinement):
    """F at flat arrays (r, theta) by the trapezoid rule on the contour
    w = x + i(theta - shift), shifted down by shift >= 0 from the undeformed
    contour; eps is the least distance the caller keeps to the pole line.

    On it the integrand is c(w) exp(-r cosh(x - i shift)) [[i, e^w], [-e^-w, i]]
    with c(w) = (g + i e^w) / (1 + i g e^w), so F = [[i I0, I+], [-I-, i I0]]
    with I0, I+ and I- the sums of c exp(..) times 1, e^w and e^-w.  The
    integrand is analytic in a strip around the real x axis, so the
    trapezoid rule converges exponentially: each point gets the step of
    _rungs, moved `refinement` halvings down the ladder, and the nodes
    x = j h with |x| <= x_max of its truncation.  Points are summed in
    blocks of one rung and similar r (see _blocks).

    |1 + i g e^w| >= sin(eps) on a contour at least eps below the pole line
    Im w = pi/2 (and above Im w = -3 pi/2); a node below that bound means
    the contour crossed the pole of c, and raises ContourError.
    """
    # beyond this r the integrand underflows to zero at every node
    r = np.minimum(r, 750.0 / np.cos(shift))
    rung = _rungs(r, theta, shift) + _RUNGS * refinement
    bound = np.sin(eps) * (1.0 - 1e-9)
    sums = np.zeros((r.size, 3), dtype=complex)
    for idx, h, lo, hi in _blocks(r, rung, np.cos(shift)):
        x = h * np.arange(lo, hi)
        # e^w = u e^x with u = e^{i(theta - shift)} per point, so the node weights
        # carry e^{+-x}; complex weights keep the product on the BLAS path
        ex = np.exp(x)
        weights = h * np.stack([np.ones_like(x), ex, 1.0 / ex], axis=1).astype(complex)
        iew = (1j * np.exp(1j * (theta[idx] - shift)))[:, None] * ex
        denom = g * iew
        denom += 1.0
        if np.min(np.abs(denom)) < bound:
            raise ContourError(
                "contour node violates the denominator safety bound; "
                "the deformation angle is inconsistent with the geometry"
            )
        f = iew + g
        f /= denom
        # real on the undeformed contour: one real exp per node
        f *= np.exp(-r[idx, None] * (np.cosh(x - 1j * shift) if shift else np.cosh(x)))
        sums[idx] += f @ weights
    u = np.exp(1j * (theta - shift))
    F = np.empty((r.size, 2, 2), dtype=complex)
    F[:, 0, 0] = F[:, 1, 1] = 1j * sums[:, 0]
    F[:, 0, 1] = u * sums[:, 1]
    F[:, 1, 0] = -sums[:, 2] / u
    return F


def edge_F_batch(S, T, gamma, cfg=None):
    """Reflected-term matrices F(S, T) over broadcast arrays of the separation
    along the edge S = x1 - x1' and the mirrored height T = x2 + x2' > 0;
    returns shape (..., 2, 2).

    Each point is a trapezoid sum on its own step (see _contour_sum), on
    the undeformed contour when theta = arctan2(S, T) <= pi/2 - epsilon and
    on the contour shifted down by epsilon otherwise.  Without cfg this is a
    single pass at epsilon = 0.3, measured within 8.3e-15 relative of the
    refined value on 8,000 seeded points with |S| <= 20, 1e-3 <= T <= 10,
    gamma in [e^-2.5, e^2.5], within 1.0e-13 for r = |(S, T)| up to 80 with
    theta as close as 5e-5 to +-pi/2, and within 5.4e-15 at r = 200 off the
    boundary line (the tests hold these to 1e-13, 1e-12 and 1e-13).  The
    undeformed contour has no cancellation; on the shifted one the rounding
    grows like exp(r (1 - cos epsilon)).  With cfg every step halves, up to
    cfg.max_refinements times, until core._converge accepts at every point
    with tolerance cfg.tol relative to |F| (floor: the smallest normal
    float); raises its QuadratureError otherwise.  S must not be NaN.
    """
    if not isinstance(gamma, BoundaryParam):
        gamma = BoundaryParam(gamma)
    S, T = np.broadcast_arrays(np.asarray(S, dtype=float), np.asarray(T, dtype=float))
    if not np.all(T > 0):
        raise ValueError("all mirrored heights T must be positive")
    if np.any(np.isnan(S)):
        raise ValueError("the separations S must not be NaN")
    r = np.hypot(S, T).ravel()
    theta = np.arctan2(S, T).ravel()
    eps = (cfg or ContourConfig()).epsilon

    def estimate(refinement):
        return _contour_sum(gamma.gamma, r, theta, eps, refinement).reshape(S.shape + (2, 2))

    if cfg is None:
        return estimate(0)
    refinements = map(estimate, range(cfg.max_refinements + 1))
    return _converge(refinements, cfg.tol, np.finfo(float).tiny, "contour quadrature")[0]


def edge_F_direct(S, T, gamma, tol=1e-10):
    """Reflected-term matrix F(S, T) at one point by direct quadrature in the
    momentum variable; the reference oracle for edge_F_batch.

    Only valid for T >= 0.1: the integrand decays like exp(-<xi>*T), so for
    small T the truncation needed is impractically large; use edge_F_batch
    there.  The panel count doubles up to seven times until core._converge
    accepts (tolerance tol, floor 1).
    """
    if not isinstance(gamma, BoundaryParam):
        gamma = BoundaryParam(gamma)
    S, T = float(S), float(T)
    if not T >= 0.1:
        raise ValueError(
            f"direct quadrature needs T >= 0.1 (got T={T}); use edge_F_batch instead"
        )
    g = gamma.gamma
    xi_max = (-np.log(tol) + 5.0) / T + 10.0

    def estimate(n_panels, nodes_per_panel=12):
        # integrand coeff * phase * [[i, xi + br], [xi - br, i]] / br
        xi, w = gauss_legendre_panels(np.linspace(-xi_max, xi_max, n_panels + 1), nodes_per_panel)
        br = np.sqrt(1.0 + xi**2)
        s = br + xi
        f = w * (g + 1j * s) / (1.0 + 1j * g * s) * np.exp(1j * xi * S - br * T)
        i0, i1, i2 = f @ (1.0 / br), f @ (xi / br), np.sum(f)
        return np.array([[1j * i0, i1 + i2], [i1 - i2, 1j * i0]])

    # resolve both the oscillation (period 2pi/|S|) and the decay scale
    n0 = max(16, int(np.ceil(2 * xi_max * max(abs(S), 1.0) / 3.0)))
    refinements = (estimate(n0 << k) for k in range(8))
    return _converge(refinements, tol, 1.0, "direct quadrature")[0]


def halfplane_kernel_batch(gamma, lam, X, Xp, cfg=None):
    """Half-plane resolvent kernel at energy i*lam, lam > 0, over point arrays
    X, Xp of shape (..., 2) (a single pair is a batch of one, shape (2,));
    returns (..., 2, 2).

    Evaluated by rescaling to lam = 1: K = lam * [bulk(lam*dx) + edge term],
    where the edge term is F(lam*S, lam*T) sigma_1 / (4 pi) from edge_F_batch
    (single pass without cfg, refined with one).  Closure points x2 = 0 are
    allowed (needed to inspect the boundary trace), but not both points of a
    pair (ValueError), and not x = x' (DiagonalKernelError).

    Swapping the arguments transposes the kernel up to the reflection
    P1: x1 -> -x1 (see the module docstring): K(Y, X) = K(P1 X, P1 Y)^T.
    """
    if not isinstance(gamma, BoundaryParam):
        gamma = BoundaryParam(gamma)
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    X = np.asarray(X, dtype=float)
    Xp = np.asarray(Xp, dtype=float)
    if X.shape[-1:] != (2,) or Xp.shape[-1:] != (2,):
        raise ValueError(f"expected 2d points, got shapes {X.shape} and {Xp.shape}")
    if not (np.all(X[..., 1] >= 0.0) and np.all(Xp[..., 1] >= 0.0)):
        raise ValueError("half-plane points need x2 >= 0")
    bulk = bulk_plane_kernel(1.0, lam * (X - Xp))        # rejects x = x'
    S = lam * (X[..., 0] - Xp[..., 0])
    T = lam * (X[..., 1] + Xp[..., 1])
    edge = edge_F_batch(S, T, gamma, cfg)[..., ::-1] / (4.0 * np.pi)     # F sigma_1
    return lam * (bulk + edge)


def fit_decay(samples, lam, fixed_rate=None):
    """Fit |K(x,x')| * |x-x'| ~ C_hat * exp(-c_hat * lam * |x-x'|).

    samples: iterable of (x, xprime, matrix).  With fixed_rate set, the rate
    is pinned and C_hat is the smallest prefactor that bounds every sample
    (an empirical bound constant); otherwise both are fitted by least squares
    and the residual is sqrt(1 - R^2) of the linear fit in log space.
    """
    rs, ys = [], []
    for x, xprime, mat in samples:
        xa = as_halfplane_array(x)
        xb = as_halfplane_array(xprime)
        r = float(np.linalg.norm(xa - xb))
        rs.append(r)
        ys.append(np.log(sup_norm(mat) * r))
    rs = np.asarray(rs)
    ys = np.asarray(ys)
    if rs.size < 20:
        raise ValueError(f"need at least 20 samples, got {rs.size}")
    if np.max(rs) / np.min(rs) < 10.0:
        raise ValueError("separations must span at least one decade")
    if fixed_rate is not None:
        excess = ys + fixed_rate * lam * rs
        return DecayFit(
            c_hat=float(fixed_rate),
            C_hat=float(np.exp(np.max(excess))),
            residual=float(np.std(excess)),
        )
    slope, intercept = np.polyfit(lam * rs, ys, 1)
    pred = slope * lam * rs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot == 0.0:
        raise ValueError("degenerate sample spread: all magnitudes identical")
    return DecayFit(
        c_hat=float(-slope),
        C_hat=float(np.exp(intercept)),
        residual=float(np.sqrt(max(ss_res / ss_tot, 0.0))),
    )


def zigzag_zero_mode(x, xprime):
    """Shape of the zigzag zero-mode projector kernel (up to a constant).

    Returns 1 / (i(x1-x1') + (x2+x2'))^2; diverges like (2 x2)^-2 as both
    points approach the same boundary location.
    """
    xa = np.asarray(x, dtype=float)
    xb = np.asarray(xprime, dtype=float)
    denom = 1j * (xa[0] - xb[0]) + (xa[1] + xb[1])
    if denom == 0:
        raise ValueError("zigzag zero-mode kernel undefined at mirrored coincidence")
    return 1.0 / denom**2

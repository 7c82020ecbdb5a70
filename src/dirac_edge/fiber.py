"""Discretized fiber operators, dispersion curves, and bulk-edge quantities.

The edge-momentum fiber of the magnetic half-plane Dirac operator is the
half-line operator

    [[0, (xi + b t) - d/dt], [(xi + b t) + d/dt, 0]],   psi2(0) = gamma psi1(0).

Discretization is a staggered two-grid scheme: psi1 lives on the nodes j*h,
psi2 on the midpoints (j+1/2)*h, and both the derivative and the mass
coupling are centered 2nd-order stencils between the two grids.  Staggering
keeps the spectrum free of spurious lattice doublers (a naive one-grid
centered difference produces a second copy of every Landau level), the
matrix is real symmetric tridiagonal in position-interleaved ordering, and
the boundary condition enters through ghost-midpoint elimination in the
first node row.  The whole-line version (no boundary) gives the bulk
reference: relativistic Landau levels +/- sqrt(2 b n).
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BoundaryParam,
    BranchMatchingError,
    EigensolverError,
    QuadratureError,
    _converge,
)

__all__ = [
    "FiberDiscretization",
    "DispersionData",
    "GapWindow",
    "discretize_fiber",
    "landau_levels",
    "dispersion_curves",
    "edge_conductance",
    "bulk_ids",
    "ids_derivative",
    "assembled_bulk_diagonal",
    "edge_density_rho",
    "edge_bulk_diagonal_gap",
    "combes_thomas_check",
    "gap_window",
]


@dataclass
class FiberDiscretization:
    """Assembled symmetric tridiagonal fiber matrix plus interpretation data.

    DOF ordering interleaves the two staggered grids by position:
    index 2j = psi1 at t_j, index 2j+1 = psi2 at t_j + h/2.  For the
    half-line the first node carries a half-cell metric weight; `diag` and
    `off` store the metric-normalized (plain symmetric) matrix.
    """

    h: float
    T_dom: float
    gamma: float | None          # None = whole line
    xi: float
    b: float
    diag: np.ndarray
    off: np.ndarray
    grid: np.ndarray             # psi1 node positions t_j

    @property
    def half_line(self):
        return self.gamma is not None

    @property
    def dim(self):
        return self.diag.size

    def dense(self):
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    @property
    def coords(self):
        """Position of each DOF (midpoint DOFs sit at t_j + h/2)."""
        c = np.empty(self.dim)
        c[0::2] = self.grid
        c[1::2] = self.grid[:-1] + self.h / 2.0
        return c

    def eigenvalues(self, emin, emax):
        """Eigenvalues in (emin, emax], ascending, by _window_eigh."""
        return _window_eigh(self.diag, self.off, emin, emax)[0]

    def raw_eigensystem(self, emin, emax):
        """(E, V): eigenvalues in (emin, emax], ascending, and orthonormal
        eigenvectors in DOF ordering as the columns of V, by _window_eigh."""
        return _window_eigh(self.diag, self.off, emin, emax)

    def eigensystem(self, emin, emax):
        """Eigenvalues in (emin, emax] and spinors interpolated to the psi1 node grid.

        Returns (E, psi) with psi of shape (n_nodes, 2, n_eigs) in physical
        coordinates: the half-cell boundary metric is undone and the
        midpoint component is averaged (ends: one-sided 2nd-order
        extrapolation) onto the nodes.  The eigenpairs are raw_eigensystem's.
        """
        E, V = self.raw_eigensystem(emin, emax)
        n = self.grid.size
        psi = np.empty((n, 2, E.size))
        psi[:, 0, :] = V[0::2]
        if self.half_line:
            psi[0, 0, :] *= np.sqrt(2.0)
        mid = V[1::2]
        psi[1:-1, 1, :] = 0.5 * (mid[:-1] + mid[1:])
        psi[0, 1, :] = 1.5 * mid[0] - 0.5 * mid[1]
        psi[-1, 1, :] = 1.5 * mid[-1] - 0.5 * mid[-2]
        return E, psi


# bisection tolerance of _window_eigh: it sets the shifts of inverse iteration
# and with them the eigenvector error (the Rayleigh-Ritz step makes the
# eigenvalues exact to rounding); on the orbit-window whole-line fibers of
# criterion 12 (b = 1, |E| <= 1.2) the node densities |v|^2 stay within 4e-16
# of a full-precision eigensolver's, where at 1e-4 they were 2.1e-13 off
_BISECT_TOL = 1e-5
# largest Ritz residual |T v - E v| that _window_eigh accepts, relative to
# max|T|: at _BISECT_TOL the edge-density fibers (gap (1, 1), gamma 0.5 and 2)
# reach 2.4e-15 max|T|; at tolerances 1e-4 and 1e-3, 1.9e-14 and 2.6e-10, and
# at 1e-2 they fail the check
_RESIDUAL_TOL = 1e-9


def _window_eigh(diag, off, emin, emax):
    """Eigenpairs (E, V) of the symmetric tridiagonal T = (diag, off), n >= 2,
    with eigenvalue in (emin, emax]: E ascending, V's columns orthonormal.

    LAPACK dstebz bisects to _BISECT_TOL (the count is the exact Sturm count
    of the window), dstein finds the eigenvectors by inverse iteration, and,
    with those orthonormalized, a Rayleigh-Ritz step on the block (S = V^T T V,
    S = R diag(E) R^T, V <- V R) makes the eigenvalues exact to rounding and
    returns a near-degenerate pair as an orthonormal basis of its span.
    Raises EigensolverError when either LAPACK call reports an error or a
    Ritz residual |T v - E v| exceeds _RESIDUAL_TOL max|T|.
    """
    # imported here so that the package and its kernel layers load without scipy
    from scipy.linalg import lapack

    # range 1 is the value window (emin, emax]; order "B" groups the
    # eigenvalues by split-off block, as dstein needs
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 1, emin, emax, 0, 0,
                                               _BISECT_TOL, "B")
    if info != 0:
        raise EigensolverError(f"dstebz failed on ({emin}, {emax}] (info {info})")
    if m == 0:
        return np.empty(0), np.empty((diag.size, 0))
    V, info = lapack.dstein(diag, off, w[:m], iblock, isplit)
    if info != 0:
        raise EigensolverError(f"dstein failed on ({emin}, {emax}] (info {info})")
    V = np.linalg.qr(V)[0]
    TV = diag[:, None] * V
    TV[:-1] += off[:, None] * V[1:]
    TV[1:] += off[:, None] * V[:-1]
    E, R = np.linalg.eigh(V.T @ TV)
    V, TV = V @ R, TV @ R
    residual = np.max(np.linalg.norm(TV - V * E, axis=0))
    bound = _RESIDUAL_TOL * max(np.max(np.abs(diag)), np.max(np.abs(off)))
    if not residual <= bound:
        raise EigensolverError(
            f"Ritz residual {residual:.2e} on ({emin}, {emax}] exceeds {bound:.2e}")
    return E, V


def _flux(b):
    """The flux density b as a float, checked positive."""
    b = float(b)
    if b <= 0:
        raise ValueError(f"flux density b must be positive, got {b}")
    return b


def _span(b):
    """Orbit margin 6/sqrt(b): the domain a fiber keeps past its orbit centre -xi/b."""
    return 6.0 / np.sqrt(b)


def discretize_fiber(gamma, xi, b, h=None, T_dom=None, whole_line=False):
    """Build the discretized fiber operator at edge momentum xi.

    gamma is ignored for whole_line=True.  T_dom defaults to a domain
    covering the orbit center -xi/b with margin 6/sqrt(b); h defaults to
    the coarsest step satisfying b*T_dom*h < 0.1.
    """
    b = _flux(b)
    xi = float(xi)
    margin = _span(b)
    center = -xi / b
    if whole_line:
        if T_dom is None:
            T_dom = 2 * margin
        if T_dom / 2.0 < margin - 1e-12:
            raise ValueError(f"domain too small: need T_dom >= {2 * margin:.3f}")
        t0 = center - T_dom / 2.0
    else:
        needed = max(center + margin, margin)
        if T_dom is None:
            T_dom = needed
        if T_dom < needed - 1e-12:
            raise ValueError(f"domain too small for xi={xi}: need T_dom >= {needed:.3f}")
        t0 = 0.0
    h = _default_step(b, T_dom) if h is None else float(h)
    if b * T_dom * h >= 0.1:
        raise ValueError(
            f"grid too coarse: b*T_dom*h = {b * T_dom * h:.3f} >= 0.1; decrease h"
        )
    g = None if whole_line else _gamma_value(gamma)
    return _assemble(g, xi, b, h, T_dom, t0)


def _default_step(b, T_dom):
    """discretize_fiber's default step: the coarsest with b*T_dom*h < 0.1."""
    return min(1.0 / 48, 0.09 / (b * T_dom))


def _gamma_value(gamma):
    """The checked boundary coupling as a float (gamma may be a BoundaryParam)."""
    return gamma.gamma if isinstance(gamma, BoundaryParam) else BoundaryParam(gamma).gamma


def _assemble(g, xi, b, h, T_dom, t0=0.0):
    """Staggered tridiagonal fiber on nodes t0 + j h spanning T_dom, taken as
    given: g is the checked boundary coupling (None = whole line, no boundary)."""
    n = int(round(T_dom / h)) + 1          # psi1 nodes
    t = t0 + h * np.arange(n)
    m_mid = xi + b * (t[:-1] + h / 2.0)    # mass at the n-1 midpoints
    c = 1.0 / h
    N = 2 * n - 1
    diag = np.zeros(N)
    off = np.empty(N - 1)
    off[0::2] = 0.5 * m_mid - c            # psi1_j ~ psi2_{j+1/2}
    off[1::2] = 0.5 * m_mid + c            # psi2_{j+1/2} ~ psi1_{j+1}

    if g is None:
        return FiberDiscretization(h, T_dom, None, xi, b, diag, off, t)

    # boundary node: ghost midpoint at -h/2 eliminated via
    # (psi2(-h/2)+psi2(h/2))/2 = gamma*psi1(0); the node carries a half-cell
    # metric weight, normalized here by scaling DOF 0 with sqrt(2)
    diag[0] = g * (2.0 * c - b * h / 2.0)
    off[0] *= np.sqrt(2.0)
    return FiberDiscretization(h, T_dom, g, xi, b, diag, off, t)


def _orbit_fiber(g, xi, b, h, t0, T_dom):
    """The fiber on the nodes t0 + j h (0 <= j h <= T_dom) that lie in the
    orbit window of xi, with c = -xi/b its orbit centre and span = 6/sqrt(b):
    [max(0, c - span), max(c, 0) + span] on the half line (g not None, t0 = 0),
    [c - span, c + span] on the whole line (g None).  A low Landau-level
    state's density falls like e^(-b (t - c)^2), to about e^(-36) one span
    from c, and an edge state's one span past the edge, so the window keeps
    every state of the energy windows used here.  The gamma boundary row
    enters only when the window starts at node 0; a half-line window away
    from the edge is assembled as a whole line.  Returns (fib, k0), k0 the
    index of the window's first node on the grid t0 + j h."""
    span, c = _span(b), -xi / b
    if g is None:
        lo, hi = c - span, c + span
    else:
        lo, hi = max(0.0, c - span), max(c, 0.0) + span
    k0 = max(0, int(np.ceil((lo - t0) / h)))
    k1 = min(int(round(T_dom / h)), int(np.floor((hi - t0) / h)))
    return _assemble(g if k0 == 0 else None, xi, b, h, (k1 - k0) * h, t0 + k0 * h), k0


def landau_levels(b, n_max, h=None, T_dom=None):
    """Nonnegative whole-line fiber eigenvalues up to level n_max."""
    fib = discretize_fiber(None, 0.0, b, h=h, T_dom=T_dom, whole_line=True)
    emax = np.sqrt(2.0 * b * n_max) + np.sqrt(b)
    E = fib.eigenvalues(-0.4 * np.sqrt(b), emax)
    return np.sort(E)[: n_max + 1]


@dataclass
class DispersionData:
    xi_grid: np.ndarray
    branches: np.ndarray         # (n_branch, n_xi), NaN where a branch is absent
    labels: list = field(default_factory=list)


def _shared_T_dom(b, xi_values):
    """Half-line domain covering every orbit center -xi/b (one shared grid)."""
    return max(np.max(-np.asarray(xi_values, dtype=float) / b), 0.0) + _span(b)


# least eigenvector overlap that continues a dispersion branch
_OVERLAP_MIN = 0.9


def dispersion_curves(gamma, b, xi_grid, n_branches):
    """Fiber eigenvalue branches E_n(xi), matched by eigenvector overlap.

    Branch identities follow the eigenvectors between neighboring xi values;
    an overlap below _OVERLAP_MIN raises BranchMatchingError with diagnostics.
    Branches cover the energy window of the first n_branches Landau levels on
    both sides.
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    emax = np.sqrt(2.0 * b * n_branches) + 0.8 * np.sqrt(b)
    T_dom = _shared_T_dom(b, xi_grid)
    tracks = []                  # dicts: start index, values list, last vector
    active = []
    for k, xi in enumerate(xi_grid):
        fib = discretize_fiber(gamma, xi, b, T_dom=T_dom)
        E, V = fib.raw_eigensystem(-emax, emax)
        if k == 0 or not active:
            for j in range(E.size):
                tracks.append({"start": k, "values": [E[j]], "vec": V[:, j]})
        else:
            vec_prev = np.stack([tr["vec"] for tr in active], axis=1)
            ov = np.abs(vec_prev.T @ V)
            taken = np.full(E.size, False)
            # greedy assignment by descending overlap; tracks whose state has
            # drifted out of the energy window are allowed to retire
            order_rc = np.dstack(np.unravel_index(np.argsort(-ov, axis=None), ov.shape))[0]
            matched = np.full(len(active), False)
            for trow, j in order_rc:
                if matched[trow] or taken[j] or ov[trow, j] < _OVERLAP_MIN:
                    continue
                matched[trow] = True
                taken[j] = True
                active[trow]["values"].append(E[j])
                active[trow]["vec"] = V[:, j]
            # near-degenerate levels (bulk plateaus) rotate inside their
            # eigenspace; accept a match when the overlap with the remaining
            # unmatched subspace is large even if no single vector dominates
            for trow in np.where(~matched)[0]:
                free = np.where(~taken)[0]
                if free.size and np.sqrt(np.sum(ov[trow] ** 2)) >= _OVERLAP_MIN:
                    j = free[int(np.argmax(ov[trow, free]))]
                    matched[trow] = True
                    taken[j] = True
                    active[trow]["values"].append(E[j])
                    active[trow]["vec"] = V[:, j]
            edge_margin = 0.5 * np.sqrt(b)
            for trow in np.where(~matched)[0]:
                last = active[trow]["values"][-1]
                if abs(last) < emax - edge_margin:
                    best = float(np.max(ov[trow])) if ov.shape[1] else 0.0
                    raise BranchMatchingError(
                        f"branch matching failed at xi={xi:.4f} (branch at E="
                        f"{last:.4f}): best overlap {best:.3f} (threshold "
                        f"{_OVERLAP_MIN}); refine the xi grid"
                    )
            for j in np.where(~taken)[0]:
                tracks.append({"start": k, "values": [E[j]], "vec": V[:, j]})
        active = [tr for tr in tracks if tr["start"] + len(tr["values"]) == k + 1]
    branches = np.full((len(tracks), xi_grid.size), np.nan)
    for i, tr in enumerate(tracks):
        branches[i, tr["start"] : tr["start"] + len(tr["values"])] = tr["values"]
    order = np.argsort([np.nanmean(br) for br in branches])
    return DispersionData(xi_grid, branches[order], labels=[f"E{i}" for i in range(len(tracks))])


@dataclass(frozen=True)
class GapWindow:
    """Energies e1 < e2 < e3 < e4 with [e1,e2] and [e3,e4] inside bulk gaps.

    The plateau window [e2, e3] contains the Landau levels being counted; the
    flanks are where a switch function rises and falls.
    """

    e1: float
    e2: float
    e3: float
    e4: float

    def __post_init__(self):
        if not (self.e1 < self.e2 < self.e3 < self.e4):
            raise ValueError(
                f"window energies must increase: {self.e1}, {self.e2}, {self.e3}, {self.e4}"
            )


def gap_window(b, n_below, n_above):
    """Window whose plateau covers Landau levels -sqrt(2b*n_below) through
    +sqrt(2b*n_above); the gaps span 10%..90% of the adjacent level spacings."""
    lev = lambda n: np.sqrt(2.0 * b * n)
    lo_in, lo_out = -lev(n_below), -lev(n_below + 1)
    hi_in, hi_out = lev(n_above), lev(n_above + 1)
    e1 = lo_in - 0.9 * (lo_in - lo_out)
    e2 = lo_in - 0.1 * (lo_in - lo_out)
    e3 = hi_in + 0.1 * (hi_out - hi_in)
    e4 = hi_in + 0.9 * (hi_out - hi_in)
    return GapWindow(e1, e2, e3, e4)


def _count_in(diag, off, lo, hi):
    """Number of eigenvalues in (lo, hi] of the symmetric tridiagonal
    (diag, off): the exact Sturm count N(hi) - N(lo) of LAPACK dstebz, whose
    absolute tolerance hi - lo spares it any bisection.  dstebz's wrapper
    rejects n = 1, whose one eigenvalue is diag[0]."""
    if np.size(diag) == 1:
        return int(lo < diag[0] <= hi)
    # imported here so that the package and its kernel layers load without scipy
    from scipy.linalg import lapack

    m, *_, info = lapack.dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "B")
    if info != 0:
        raise EigensolverError(f"dstebz failed on ({lo}, {hi}] (info {info})")
    return int(m)


def edge_conductance(gamma, b, window, e, xi_range):
    """Edge conductance of the window: net signed spectral flow.

    e must lie inside one of the window's gaps [e1,e2] or [e3,e4]; the
    result is the flow through the upper gap minus the flow through the
    lower gap (the other gap is probed at its center), i.e. the signed
    number of edge branches entering the plateau window, an integer
    independent of e within the gap.  The fibers at both ends of xi_range
    share one domain and so one dimension: the flow through an energy is
    N(e, xi_lo) - N(e, xi_hi), N the number of eigenvalues below e, so the
    result is the count of either end fiber's eigenvalues in (e_low, e_up],
    the lower end's minus the upper end's.
    """
    if window.e1 <= e <= window.e2:
        e_low, e_up = e, 0.5 * (window.e3 + window.e4)
    elif window.e3 <= e <= window.e4:
        e_low, e_up = 0.5 * (window.e1 + window.e2), e
    else:
        raise ValueError(f"energy {e} is not inside a gap of the window")
    lo, hi = (discretize_fiber(gamma, xi, b, T_dom=_shared_T_dom(b, xi_range))
              for xi in xi_range)
    return _count_in(lo.diag, lo.off, e_low, e_up) - _count_in(hi.diag, hi.off, e_low, e_up)


def bulk_ids(b, window):
    """Integrated density of states of the bulk window projection.

    I_inf(b) = (1/2pi) * integral over xi of the diagonal of the spectral
    projection of the whole-line fiber.  The fiber at momentum xi is the
    translate of the fiber at 0 by -xi/b, so the xi-integral telescopes to
    b/(2pi) times the number of levels in the plateau window [e2, e3]; the
    reduction is exact up to the exponentially small domain truncation
    (verified directly by assembled_bulk_diagonal).
    """
    fib = discretize_fiber(None, 0.0, b, whole_line=True)
    E = fib.eigenvalues(window.e2 - 2.0, window.e3 + 2.0)
    guard = 10.0 * fib.h**2 * max(1.0, b)
    if np.any((np.abs(E - window.e2) < guard) | (np.abs(E - window.e3) < guard)):
        raise ValueError(
            f"a level sits on the window edge (within {guard:.2e}); adjust the window"
        )
    count = int(np.sum((E > window.e2) & (E < window.e3)))
    return b * count / (2.0 * np.pi)


def ids_derivative(b, window):
    """Central-difference derivative of bulk_ids in b, step b/100."""
    db = b / 100.0
    return (bulk_ids(b + db, window) - bulk_ids(b - db, window)) / (2.0 * db)


def assembled_bulk_diagonal(b, window, x2_values):
    """Diagonal of the bulk window projection assembled by xi-integration.

    Evaluates (1/2pi) int dxi tr P_xi(x2, x2) for the whole-line fiber.
    The fiber at momentum xi is the exact grid translate of the fiber at 0
    by -xi/b, so the density profile is solved once and the xi-integral is
    a trapezoid sum over translated copies; translation covariance makes
    the result constant in x2, which is what the caller checks.  The xi
    spacing 0.05 sqrt(b) is snapped to a multiple of b*h so the translates
    stay aligned with the grid.
    """
    x2_values = np.asarray(x2_values, dtype=float)
    fib = discretize_fiber(None, 0.0, b, whole_line=True)
    E, psi = fib.eigensystem(emin=window.e2, emax=window.e3)
    if E.size == 0:
        return np.zeros(x2_values.size)
    dens = np.sum(np.abs(psi) ** 2, axis=(1, 2)) / fib.h
    # node interpolation of the staggered component loses O(h^2) mass;
    # restore the exact projection trace (= number of levels)
    dens *= E.size / np.trapezoid(dens, fib.grid)
    step = fib.h * max(1, int(round(0.05 * np.sqrt(b) / (b * fib.h))))   # translate distance
    glo, ghi = fib.grid[0], fib.grid[-1]
    acc = np.zeros(x2_values.size)
    for i, x2 in enumerate(x2_values):
        # arguments x2 + xi/b sweeping the profile support
        pts = np.arange(glo + ((x2 - glo) % step), ghi, step)
        acc[i] = np.sum(np.interp(pts, fib.grid, dens, left=0.0, right=0.0))
    return b * step * acc / (2.0 * np.pi)


# _momentum_integral's xi step (in units of sqrt(b)), tail tolerance, most extensions
_XI_STEP = 0.1
_TAIL_TOL = 1e-4
_MAX_EXTENSIONS = 6
# edge_density_rho's coarser fiber step, in magnetic lengths 1/sqrt(b)
_FIBER_STEP = 1.0 / 48


def _diagonal_density(fib, F):
    """tr F(H)(t_j, t_j) at the nodes t_j, over the eigenpairs with |E| <= F.support_max."""
    E, psi = fib.eigensystem(-F.support_max, F.support_max)
    return np.einsum("tse,e->t", np.abs(psi) ** 2, np.asarray(F(E))) / fib.h


def _momentum_integral(integrand, b, depth, floor):
    """Riemann sum over xi in [-b (depth + span), b span], span = 6/sqrt(b), of
    integrand(xi, T_dom), where T_dom, the half-line grid the integrand's
    fibers are cut from at xi, reaches two spans past depth and one past the
    orbit centre -xi/b (the integrands solve only the grid's nodes in the
    orbit window of _orbit_fiber); the range grows by b span at both ends
    until core._converge accepts the total (the given floor), else
    QuadratureError."""
    dxi = _XI_STEP * np.sqrt(b)
    span = _span(b)

    def part(xis):
        return np.sum([integrand(x, max(depth + 2 * span, -x / b + span)) for x in xis],
                      axis=0)

    def totals(lo, hi, step):
        total = part(np.arange(lo, hi + dxi / 2, dxi)) * dxi
        yield total
        for _ in range(_MAX_EXTENSIONS):
            total = total + (part(np.arange(lo - step, lo, dxi))
                             + part(np.arange(hi + dxi, hi + step + dxi / 2, dxi))) * dxi
            yield total
            lo, hi = lo - step, hi + step + dxi

    return _converge(totals(-b * (depth + span), b * span, b * span), _TAIL_TOL, floor,
                     "xi-integration tail")


def _strip_weights(h, L):
    """Weights on the nodes j h, j <= m + 1, that integrate their linear
    interpolant over [0, L]: the trapezoid rule up to t_m <= L, then the
    interpolant of t_m and t_(m+1) integrated over [t_m, L]."""
    m = int(L / h)
    s = L / h - m
    w = np.full(m + 2, h)
    w[0] = h / 2.0
    w[m], w[m + 1] = h * (0.5 + s - s * s / 2.0), h * s * s / 2.0
    return w


def edge_density_rho(gamma, b, F, L):
    """Edge density (1/(2 pi L)) int dxi int_0^L tr F(fiber)(t,t) dt.

    F is a vectorized callable on energies with a support_max attribute
    bounding |E| on its support (a hs_calculus.SchwartzFunction has one);
    only eigenpairs with |E| <= support_max enter.  L is one strip width
    (returns a float) or a sequence of them (returns an array): one sweep on
    the largest serves all, the t-integral ending exactly at each L.

    Each fiber is solved at the steps h = _FIBER_STEP/sqrt(b) and h/2 on the
    nodes j h of its orbit window [max(0, c - span), max(c, 0) + span],
    c = -xi/b and span = 6/sqrt(b) (_orbit_fiber: each eigenstate in the
    energy window lives within one span of its orbit centre or the edge, so h
    follows the magnetic length, not the domain); a window that starts at
    node k0 > 0 has no boundary row and its density meets the strip weights
    from node k0 on.  The xi-integral of _momentum_integral (floor 1)
    converges both, and the result is the Richardson value
    (4 rho(h/2) - rho(h))/3.  Its measured step error |rho(h/2) - rho(h)|/3
    must stay below _TAIL_TOL relative to the xi-integrated total (floor 1),
    else QuadratureError carrying the rho(h/2) and rho(h) values as last and
    previous.
    """
    Ls = np.asarray(L, dtype=float).ravel()
    if not np.all(np.isfinite(Ls) & (Ls > 0.0)):
        raise ValueError(f"strip widths L must be finite and positive, got {L!r}")
    b, g = _flux(b), _gamma_value(gamma)
    steps = (_FIBER_STEP / np.sqrt(b), _FIBER_STEP / np.sqrt(b) / 2.0)
    weights = [[_strip_weights(step, Lk) for Lk in Ls] for step in steps]

    def integrand(xi, T_dom):
        # one solve per step; every L reads the same density from node k0
        out = np.empty((2, Ls.size))
        for i, step in enumerate(steps):
            fib, k0 = _orbit_fiber(g, xi, b, step, 0.0, T_dom)
            dens = _diagonal_density(fib, F)
            for k, w in enumerate(weights[i]):
                w = w[k0 : k0 + dens.size]
                out[i, k] = w @ dens[: w.size]
        return out

    total, _ = _momentum_integral(integrand, b, float(np.max(Ls)), 1.0)
    step_error = np.max(np.abs(total[1] - total[0]) / 3.0 / np.maximum(1.0, np.abs(total[1])))
    coarse, fine = (total / (2.0 * np.pi * Ls)).reshape((2,) + np.shape(L))
    if step_error >= _TAIL_TOL:
        raise QuadratureError(
            f"fiber step not converged (step error {step_error:.2e} of the total, "
            f"tolerance {_TAIL_TOL:.0e})", last=fine, previous=coarse)
    rho = (4.0 * fine - coarse) / 3.0
    return float(rho) if rho.ndim == 0 else rho


def edge_bulk_diagonal_gap(F, gamma, b, x2_grid):
    """Difference of edge and bulk diagonals of F(D_b) at x = (x1, x2).

    Both diagonals are (1/2pi) int tr F(fiber_xi)(x2, x2) dxi with the
    half-line and whole-line fibers respectively (F as in edge_density_rho;
    xi-integral of _momentum_integral, floor 1e-6); the difference decays
    faster than any power of x2 when F' is supported in bulk spectral gaps.

    Each fiber keeps discretize_fiber's default grid at xi, the half line on
    [0, T_dom] and the whole line on 2 (|xi/b| + max x2 + span) about the
    orbit centre c = -xi/b, and is solved only on that grid's nodes in its
    orbit window (_orbit_fiber): [max(0, c - span), max(c, 0) + span] and
    [c - span, c + span], span = 6/sqrt(b).  Its density is read at x2 by
    linear interpolation and is 0 outside the window.
    """
    x2_grid = np.asarray(x2_grid, dtype=float)
    xmax = float(np.max(x2_grid))
    b, g = _flux(b), _gamma_value(gamma)

    def at_x2(fib):
        return np.interp(x2_grid, fib.grid, _diagonal_density(fib, F), left=0.0, right=0.0)

    def integrand(xi, T_dom):
        T_bulk = 2 * (abs(xi / b) + xmax + _span(b))
        fib_e, _ = _orbit_fiber(g, xi, b, _default_step(b, T_dom), 0.0, T_dom)
        fib_b, _ = _orbit_fiber(None, xi, b, _default_step(b, T_bulk), -xi / b - T_bulk / 2.0,
                                T_bulk)
        return at_x2(fib_e) - at_x2(fib_b)

    total, _ = _momentum_integral(integrand, b, xmax, 1e-6)
    return total / (2.0 * np.pi)


def combes_thomas_check(H, z, C1, x0):
    """Measured weighted-resolvent norm versus the Combes-Thomas bound.

    H is a FiberDiscretization or a pair (hermitian matrix, coordinates).
    Returns (measured, bound) with bound = (1-C1)^(-1) |Im z|^(-1); the
    weight is exp(C1 |Im z| sqrt(1 + (t - x0)^2)) per grid point.
    """
    if not (0.0 < C1 < 1.0):
        raise ValueError(f"C1 must lie in (0,1), got {C1}")
    if isinstance(H, FiberDiscretization):
        mat = H.dense()
        coords = H.coords
    else:
        mat, coords = H
        mat = np.asarray(mat)
        coords = np.asarray(coords, dtype=float)
    v = z.v
    expo = C1 * abs(v) * np.sqrt(1.0 + (coords - x0) ** 2)
    if np.max(expo) > 650.0:
        raise OverflowError(
            "exponential weight overflows; use a smaller C1 or a smaller domain"
        )
    w = np.exp(expo)
    A = np.linalg.solve(mat - z.z * np.eye(mat.shape[0]), np.diag(1.0 / w))
    A = w[:, None] * A
    measured = float(np.linalg.norm(A, ord=2))
    bound = 1.0 / ((1.0 - C1) * abs(v))
    return measured, bound

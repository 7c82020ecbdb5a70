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
    BranchMatchingError,
    EigensolverError,
    QuadratureError,
    _converge,
    _gamma_value,
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
    """The flux density b as a float, checked finite and positive."""
    b = float(b)
    if not (np.isfinite(b) and b > 0.0):
        raise ValueError(f"flux density b must be finite and positive, got {b}")
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


def _orbit_fiber(g, jc, b, step):
    """The half-line fiber whose orbit centre is the lattice node jc, c = jc
    step (momentum xi = -b step jc), on the nodes j step (j >= 0) of its orbit
    window [max(0, c - span), max(c, 0) + span], span = 6/sqrt(b): the
    nodes k0 = max(0, jc - k) through k1 = max(jc, 0) + k, k = floor(span/step).
    A low Landau-level state's density falls like e^(-b (t - c)^2), to about
    e^(-36) one span from c, and an edge state's one span past the edge, so
    the window keeps every state of the energy windows used here.  The gamma
    boundary row enters only when the window starts at node 0; a window away
    from the edge (k0 > 0) is assembled as a whole line, and is then the
    whole-line fiber at xi = 0 on the nodes -k .. k moved by jc nodes.
    Returns (fib, k0)."""
    k = int(_span(b) / step)
    k0, k1 = max(0, jc - k), max(jc, 0) + k
    return _assemble(g if k0 == 0 else None, -b * step * jc, b, step, (k1 - k0) * step,
                     k0 * step), k0


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


# _momentum_integral's xi stride in orbit-lattice nodes (xi step
# _XI_STRIDE b h = (5/48) sqrt(b)), tail tolerance, most extensions
_XI_STRIDE = 5
_TAIL_TOL = 1e-4
_MAX_EXTENSIONS = 6
# node spacing h of the orbit lattice, in magnetic lengths 1/sqrt(b)
_FIBER_STEP = 1.0 / 48


def _diagonal_density(fib, F):
    """tr F(H)(t_j, t_j) at the nodes t_j, over the eigenpairs with |E| <= F.support_max."""
    E, psi = fib.eigensystem(-F.support_max, F.support_max)
    return np.einsum("tse,e->t", np.abs(psi) ** 2, np.asarray(F(E))) / fib.h


def _momentum_integral(integrand, b, depth, floor):
    """Riemann sum over the orbit lattice of integrand(j) dxi: j is the orbit
    index of the momentum xi_j = -b h j, whose orbit centre -xi_j/b is the
    node j h, h = _FIBER_STEP/sqrt(b).  Every _XI_STRIDE-th j is taken (j a
    multiple of the stride), so dxi = _XI_STRIDE b h = (5/48) sqrt(b) and every
    orbit centre is a node of the lattices h, h/2 and h/4.  The sum starts
    with the centres from -span to depth + span, span = 6/sqrt(b), and grows
    at both ends by the whole strides that cover span, so no xi is counted
    twice or skipped, until core._converge accepts the total (the given
    floor), else QuadratureError."""
    h = _FIBER_STEP / np.sqrt(b)
    dxi = _XI_STRIDE * b * h
    ext = -(-int(_span(b) / h) // _XI_STRIDE)      # strides per extension

    def part(lo, hi):
        return np.sum([integrand(_XI_STRIDE * n) for n in range(lo, hi)], axis=0)

    def totals(lo, hi):
        # the strides lo .. hi - 1
        total = part(lo, hi) * dxi
        yield total
        for _ in range(_MAX_EXTENSIONS):
            total = total + (part(lo - ext, lo) + part(hi, hi + ext)) * dxi
            yield total
            lo, hi = lo - ext, hi + ext

    hi = int(np.ceil(depth / (h * _XI_STRIDE))) + ext + 1
    return _converge(totals(-ext, hi), _TAIL_TOL, floor, "xi-integration tail")


def _lattice_densities(g, b, step, F):
    """The fibers of the orbit lattice at one node spacing step.  Returns
    (bulk, density): bulk = b int tr F(H_0)(t, t) dt, the trapezoid rule on
    the whole-line fiber at xi = 0 on the nodes -k step .. k step,
    k = floor(span/step); density(jc) = (dens, k0), the diagonal density of
    _orbit_fiber(g, jc, b, step) on its nodes k0, k0 + 1, ...  Only a window
    that meets the edge (jc <= k) is solved: any other is the xi = 0 fiber
    moved by jc nodes, so its density is that fiber's, from node jc - k."""
    k = int(_span(b) / step)
    fib0 = _assemble(None, 0.0, b, step, 2 * k * step, -k * step)
    dens0 = _diagonal_density(fib0, F)

    def density(jc):
        if jc > k:
            return dens0, jc - k
        fib, k0 = _orbit_fiber(g, jc, b, step)
        return _diagonal_density(fib, F), k0

    return b * np.trapezoid(dens0, fib0.grid), density


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


def _richardson(coarse, fine, change, total):
    """The Richardson value (4 fine - coarse)/3 of two fiber steps, one twice
    the other.  change is fine - coarse before normalization, total the fine
    xi-integrated total; the measured step error |change|/3 must stay below
    _TAIL_TOL relative to |total| (floor 1), else QuadratureError with fine
    and coarse as last and previous."""
    step_error = np.max(np.abs(change) / 3.0 / np.maximum(1.0, np.abs(total)))
    if step_error >= _TAIL_TOL:
        raise QuadratureError(
            f"fiber step not converged (step error {step_error:.2e} of the total, "
            f"tolerance {_TAIL_TOL:.0e})", last=fine, previous=coarse)
    return (4.0 * fine - coarse) / 3.0


def edge_density_rho(gamma, b, F, L):
    """Edge density (1/(2 pi L)) int dxi int_0^L tr F(fiber)(t,t) dt.

    F is a vectorized callable on energies with a support_max attribute
    bounding |E| on its support (a hs_calculus.SchwartzFunction has one);
    only eigenpairs with |E| <= support_max enter.  L is one strip width
    (returns a float) or a sequence of them (returns an array): one sweep on
    the largest serves all, the t-integral ending exactly at each L.

    The xi-integral of _momentum_integral (floor 1) runs over the orbit
    lattice, xi step (5/48) sqrt(b), and each fiber is taken at the node
    spacings h = _FIBER_STEP/sqrt(b) and h/2 on the nodes of its orbit window
    [max(0, c - span), max(c, 0) + span], c = -xi/b and span = 6/sqrt(b)
    (_orbit_fiber: each eigenstate in the energy window lives within one span
    of its orbit centre or the edge, so h follows the magnetic length, not
    the domain).  Only the fibers whose window meets the edge are solved; one
    further away is the whole-line fiber at xi = 0 translated by c, so one
    whole-line solve per step serves them all (_lattice_densities), and its
    density meets the strip weights from the window's first node on.  The
    result is the Richardson value (4 rho(h/2) - rho(h))/3.  Its measured step
    error |rho(h/2) - rho(h)|/3 must stay below _TAIL_TOL relative to the
    xi-integrated total (floor 1), else QuadratureError carrying the rho(h/2)
    and rho(h) values as last and previous.
    """
    Ls = np.asarray(L, dtype=float).ravel()
    if not np.all(np.isfinite(Ls) & (Ls > 0.0)):
        raise ValueError(f"strip widths L must be finite and positive, got {L!r}")
    b, g = _flux(b), _gamma_value(gamma)
    h = _FIBER_STEP / np.sqrt(b)
    # per refinement r: the orbit index scale, the densities at h/r, the weights
    levels = [(r, _lattice_densities(g, b, h / r, F)[1], [_strip_weights(h / r, Lk) for Lk in Ls])
              for r in (1, 2)]

    def integrand(j):
        # one density per step; every L reads it from node k0
        out = np.empty((2, Ls.size))
        for i, (r, density, weights) in enumerate(levels):
            dens, k0 = density(r * j)
            for k, w in enumerate(weights):
                w = w[k0 : k0 + dens.size]
                out[i, k] = w @ dens[: w.size]
        return out

    total, _ = _momentum_integral(integrand, b, float(np.max(Ls)), 1.0)
    coarse, fine = (total / (2.0 * np.pi * Ls)).reshape((2,) + np.shape(L))
    rho = _richardson(coarse, fine, total[1] - total[0], total[1])
    return float(rho) if rho.ndim == 0 else rho


def edge_bulk_diagonal_gap(F, gamma, b, x2_grid):
    """Difference of edge and bulk diagonals of F(D_b) at x = (x1, x2).

    Both diagonals are (1/2pi) int tr F(fiber_xi)(x2, x2) dxi with the
    half-line and whole-line fibers respectively (F as in edge_density_rho);
    the difference decays faster than any power of x2 when F' is supported
    in bulk spectral gaps.  x2_grid holds finite x2 >= 0, else ValueError.

    The fibers are those of edge_density_rho, on the same orbit lattice and
    xi step, at the node spacings h/2 and h/4, h = _FIBER_STEP/sqrt(b): the
    fibers whose orbit window meets the edge are solved, the others are the
    whole-line fiber at xi = 0 translated (_lattice_densities).  Each density
    is read at x2 by linear interpolation, 0 outside its window, and
    integrated over xi by _momentum_integral (floor 1e-6).  The whole-line
    fiber at xi is the one at 0 translated by -xi/b, so the bulk diagonal is
    the constant (b/2pi) int tr F(H_0)(t, t) dt of that same fiber; on the
    shared lattice the two discretization errors cancel deep in the bulk.
    The result is the Richardson value (4 d(h/4) - d(h/2))/3.  Its measured
    step error, |d(h/4) - d(h/2)|/3 before the 1/2pi, must stay below
    _TAIL_TOL relative to the xi-integrated edge total (floor 1), as in
    edge_density_rho, else QuadratureError carrying d(h/4) and d(h/2) as
    last and previous.  The steps h and h/2 would miss that tolerance at
    (gamma, b) = (3, 0.5).
    """
    x2_grid = np.asarray(x2_grid, dtype=float)
    if x2_grid.size == 0 or not np.all(np.isfinite(x2_grid) & (x2_grid >= 0.0)):
        raise ValueError(f"x2_grid must be nonempty, finite and nonnegative, got {x2_grid!r}")
    b, g = _flux(b), _gamma_value(gamma)
    h = _FIBER_STEP / np.sqrt(b)
    levels = [(r, *_lattice_densities(g, b, h / r, F)) for r in (2, 4)]
    bulk = np.array([[bulk_r] for _, bulk_r, _ in levels])

    def integrand(j):
        out = np.empty((2, x2_grid.size))
        for i, (r, _, density) in enumerate(levels):
            dens, k0 = density(r * j)
            nodes = (h / r) * (k0 + np.arange(dens.size))
            out[i] = np.interp(x2_grid, nodes, dens, left=0.0, right=0.0)
        return out

    total, _ = _momentum_integral(integrand, b, float(np.max(x2_grid)), 1e-6)
    diff = total - bulk
    coarse, fine = diff / (2.0 * np.pi)
    return _richardson(coarse, fine, diff[1] - diff[0], total[1])


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

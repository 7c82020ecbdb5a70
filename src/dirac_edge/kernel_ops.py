"""Composition of singular kernels and the Born series for D + W.

Kernels here are batch callables K(X, Y) -> (n, 2, 2) on matched point arrays.
Compositions integrate over the half-plane with polar quadrature around each
singular center (the radial weight cancels the |y - center|^-1 singularity);
the domain is split along the perpendicular bisector of the two centers so
each patch contains exactly one singularity.
"""

from dataclasses import dataclass, replace

import numpy as np

from .closed_form import _bessel_k01
from .core import (
    PAULI,
    BoundaryParam,
    QuadratureError,
    _converge,
    gauss_legendre_panels,
    sup_norm,
)
from .edge_kernel import edge_F_batch, halfplane_kernel_batch

__all__ = [
    "PotentialField",
    "CompositionPlan",
    "ComposedValue",
    "BornResult",
    "resolvent_kernel",
    "compose2",
    "compose3",
    "born_series",
    "low_lambda_form",
]

@dataclass(frozen=True)
class PotentialField:
    """Bounded Hermitian potential W(x) = w0*I + sum_j wj*sigma_j.

    The component functions take a point array (n, 2) and return real values
    of shape (n,).  sup_norm is the recorded L-infinity bound of the matrix
    norm |w0| + |w_vec|; it must dominate the sampled values.
    """

    w0: callable
    w1: callable
    w2: callable
    w3: callable
    sup_norm: float

    def __post_init__(self):
        if not (self.sup_norm >= 0.0 and np.isfinite(self.sup_norm)):
            raise ValueError(f"sup_norm must be a finite nonnegative real, got {self.sup_norm}")

    @classmethod
    def zero(cls):
        z = lambda Y: np.zeros(np.asarray(Y).shape[:-1])
        return cls(z, z, z, z, 0.0)

    @classmethod
    def constant(cls, w0=0.0, w1=0.0, w2=0.0, w3=0.0):
        def const(c):
            return lambda Y: np.full(np.asarray(Y).shape[:-1], float(c))

        bound = abs(w0) + float(np.sqrt(w1**2 + w2**2 + w3**2))
        return cls(const(w0), const(w1), const(w2), const(w3), bound)

    def __call__(self, Y):
        Y = np.asarray(Y, dtype=float)
        out = np.zeros(Y.shape[:-1] + (2, 2), dtype=complex)
        v0 = np.asarray(self.w0(Y))
        out[..., 0, 0] = v0
        out[..., 1, 1] = v0
        for wf, sig in zip((self.w1, self.w2, self.w3), PAULI):
            v = np.asarray(wf(Y))
            out += v[..., None, None] * sig
        return out

    def pointwise_bound(self, Y):
        """|w0| + |w_vec| at each point; equals the matrix operator norm."""
        Y = np.asarray(Y, dtype=float)
        vec = np.sqrt(
            np.asarray(self.w1(Y)) ** 2
            + np.asarray(self.w2(Y)) ** 2
            + np.asarray(self.w3(Y)) ** 2
        )
        return np.abs(np.asarray(self.w0(Y))) + vec


@dataclass(frozen=True)
class CompositionPlan:
    """Quadrature layout for one composed evaluation.

    The domain is cut along the perpendicular bisector of the two singular
    centers; each half is integrated in polar coordinates about its center
    with dyadically graded radial panels (finest near the singularity).
    """

    n_angular: int = 32
    radial_nodes: int = 10
    radial_panels: int = 10
    trunc_radius: float = 20.0
    min_radius: float = 0.0
    tol: float = 2e-4
    max_refinements: int = 3
    tail_estimate: float = 1e-9

    @classmethod
    def for_pair(cls, x, xprime, lam=1.0, **kw):
        x = np.asarray(x, dtype=float)
        xprime = np.asarray(xprime, dtype=float)
        d = float(np.linalg.norm(x - xprime))
        trunc = d + 20.0 / lam
        # tail of exp(-lam * distance) beyond the truncation circle
        tail = float(np.exp(-lam * trunc + lam * d) * trunc)
        kw.setdefault("trunc_radius", trunc)
        kw.setdefault("tail_estimate", max(tail * 1e-6, 1e-12))
        return cls(**kw)


@dataclass(frozen=True)
class ComposedValue:
    value: np.ndarray
    error: float


@dataclass(frozen=True)
class BornResult:
    value: np.ndarray
    tail_bound: float
    error: float


def resolvent_kernel(gamma, lam):
    """Batch kernel callable for the free half-plane resolvent at energy i*lam."""
    if not isinstance(gamma, BoundaryParam):
        gamma = BoundaryParam(gamma)
    lam = float(lam)

    def K(X, Y):
        return halfplane_kernel_batch(gamma, lam, X, Y)

    K.lam = lam
    K.gamma = gamma
    return K


def _base_edges(n_panels):
    """Dyadically graded panel edges on [0, 1], finest toward 0."""
    return np.concatenate([[0.0], 2.0 ** np.arange(-(n_panels - 1), 1, dtype=float)])


def _refine_edges(edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def _patch_nodes_batch(centers, others, plan, base_edges):
    """Vectorized polar patches around a batch of centers.

    centers (P, 2); others (P, 2) or None for diagonal (no bisector cut).
    Radial limit per angle = min(bisector crossing, boundary crossing,
    truncation).  Returns pts (P, m, 2) and wts (P, m); weights include the
    polar Jacobian, and nodes outside the patch carry weight 0.
    """
    n_ang = plan.n_angular
    phi = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    e = np.stack([np.cos(phi), np.sin(phi)], axis=1)                 # (A, 2)
    P = centers.shape[0]
    rmax = np.full((P, n_ang), plan.trunc_radius)
    if others is not None:
        d = others - centers                                          # (P, 2)
        ed = d @ e.T                                                  # (P, A)
        dd = np.sum(d * d, axis=1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_bis = np.where(ed > 0, dd / (2.0 * np.maximum(ed, 1e-300)), np.inf)
        rmax = np.minimum(rmax, t_bis)
    c2 = centers[:, 1][:, None]
    with np.errstate(divide="ignore"):
        t_bdry = np.where(e[None, :, 1] < 0, -c2 / np.minimum(e[None, :, 1], -1e-300), np.inf)
    rmax = np.minimum(rmax, t_bdry)

    u, wu = gauss_legendre_panels(base_edges, plan.radial_nodes)      # (q,)

    t = rmax[..., None] * u[None, None, :]                            # (P, A, q)
    wt = rmax[..., None] * wu[None, None, :] * t * (2.0 * np.pi / n_ang)
    pts = centers[:, None, None, :] + t[..., None] * e[None, :, None, :]
    # dropping the innermost annulus costs O(min_radius) of the integrand
    bad = (t <= plan.min_radius) | (pts[..., 1] <= 0) | ~np.isfinite(t)
    wt = np.where(bad, 0.0, wt)
    m = n_ang * u.size
    return pts.reshape(P, m, 2), wt.reshape(P, m)


def _patch_sum(K, src, W, right, centers, others, plan, edges):
    """sum_y w(y) K(src_p, y) W(y) right(y) over the polar patch of each
    center p, shape (P, 2, 2).  The factors are evaluated at positive-weight
    nodes only: a node outside the patch may sit on a singularity."""
    pts, wts = _patch_nodes_batch(centers, others, plan, edges)
    keep = wts > 0
    y = pts[keep]
    terms = np.zeros(wts.shape + (2, 2), dtype=complex)
    terms[keep] = wts[keep][:, None, None] * K(src[np.nonzero(keep)[0]], y) @ W(y) @ right(y)
    return terms.sum(axis=1)


def _compose(K1, W, right, x, xprime, plan):
    """(K1 W R)(x, x') for a right factor R(y) = right(y) with R's singularity
    at x': polar patches around x and x' (one uncut patch around x on the
    diagonal), radial panels and angular count refined together (the
    radial-limit function has kinks, so angular error must be refined too)
    until core._converge accepts (tolerance plan.tol, floor 1).  Returns
    (value, last change); raises its QuadratureError."""
    diagonal = bool(np.array_equal(x, xprime))
    centers = x[None, :] if diagonal else np.stack([x, xprime])
    others = None if diagonal else centers[::-1]
    src = np.broadcast_to(x, centers.shape)

    def refinements():
        cur, edges = plan, _base_edges(plan.radial_panels)
        for _ in range(plan.max_refinements + 1):
            yield _patch_sum(K1, src, W, right, centers, others, cur, edges).sum(axis=0)
            cur, edges = replace(cur, n_angular=2 * cur.n_angular), _refine_edges(edges)

    return _converge(refinements(), plan.tol, 1.0, "kernel composition")


def compose2(K1, W, K2, x, xprime, plan=None):
    """Evaluate the double-kernel composition (K1 W K2)(x, x').

    Refined as in _compose; the returned error is the last refinement change
    plus the truncation tail.
    """
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    if np.array_equal(x, xprime):
        raise ValueError("compose2 requires x != x' (log singularity on the diagonal)")
    if plan is None:
        plan = CompositionPlan.for_pair(x, xprime, lam=getattr(K1, "lam", 1.0))
    if W.sup_norm == 0.0:
        return ComposedValue(np.zeros((2, 2), dtype=complex), 0.0)
    value, change = _compose(K1, W, lambda Y: K2(Y, np.broadcast_to(xprime, Y.shape)),
                             x, xprime, plan)
    return ComposedValue(value, float(change) + plan.tail_estimate)


def _inner_plan(plan):
    return replace(
        plan,
        n_angular=max(12, plan.n_angular // 2),
        radial_nodes=8,
        radial_panels=max(5, plan.radial_panels // 2),
        min_radius=max(plan.min_radius, 1e-3),
        max_refinements=0,
    )


def _inner_batch(K2, W2, K3, Ys, xprime, inner, inner_edges):
    """(K2 W2 K3)(y, x') for a batch of outer nodes y, fixed inner grids."""
    Xp = np.broadcast_to(xprime, Ys.shape)

    def right(Y):
        return K3(Y, np.broadcast_to(xprime, Y.shape))

    # patch around each y, cut toward x', plus patch around x' cut toward y
    return sum(_patch_sum(K2, Ys, W2, right, centers, others, inner, inner_edges)
               for centers, others in ((Ys, Xp), (Xp, Ys)))


def compose3(K1, W1, K2, W2, K3, x, xprime, plan=None):
    """Triple-kernel composition (K1 W1 K2 W2 K3)(x, x').

    The log singularity of the inner pair integrates away, so the diagonal
    x = x' is allowed.  The outer quadrature is refined as in _compose, with
    the inner composition (K2 W2 K3)(y, x') as its right factor, run on a
    fixed reduced grid.  If the refinements run out unconverged, the finest
    estimate is returned with the last measured change as its error (with
    max_refinements = 0 nothing is measured and the error is the tail
    estimate alone).
    """
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    if plan is None:
        plan = CompositionPlan.for_pair(
            x, xprime, lam=getattr(K1, "lam", 1.0),
            n_angular=16, radial_panels=7, radial_nodes=8, max_refinements=1,
            tol=3e-3,
        )
    if W1.sup_norm == 0.0 or W2.sup_norm == 0.0:
        return ComposedValue(np.zeros((2, 2), dtype=complex), 0.0)
    inner = _inner_plan(plan)
    inner_edges = _base_edges(inner.radial_panels)

    def right(Y):
        return np.concatenate([_inner_batch(K2, W2, K3, Y[i:i + 256], xprime, inner, inner_edges)
                               for i in range(0, len(Y), 256)])

    try:
        value, change = _compose(K1, W1, right, x, xprime, plan)
    except QuadratureError as e:
        value = e.last
        change = 0.0 if e.previous is None else sup_norm(e.last - e.previous)
    return ComposedValue(value, float(change) + plan.tail_estimate)


def _dense_grid(x, xprime, lam, n):
    """Uniform grid on a half-plane box adapted to the pair (x, x')."""
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    c1 = 0.5 * (x[0] + xprime[0])
    L = 0.5 * np.linalg.norm(x - xprime) + 12.0 / lam
    g1 = np.linspace(c1 - L, c1 + L, n)
    h = g1[1] - g1[0]
    g2 = h * (np.arange(n) + 0.5)
    Y = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    return Y, h


def _lattice(Y, h):
    """(n1, n2) of a row-major lattice Y[i*n2 + j] = (Y[0, 0] + i*h, x2_j) with
    distinct heights x2_j.  Raises ValueError for any other layout, where a
    gather over translates would give wrong numbers."""
    n2 = np.unique(Y[:, 1]).size
    n1, rest = divmod(Y.shape[0], n2)
    G = Y[:n1 * n2].reshape(n1, n2, 2)
    if (rest or not h > 0 or np.any(G[:, :, 0] != G[:, :1, 0])
            or np.any(G[:, :, 1] != G[:1, :, 1])
            or not np.all(np.abs(np.diff(G[:, 0, 0]) - h) <= 1e-9 * h)):
        raise ValueError("points are not a row-major lattice of step h in x1")
    return n1, n2


def _triple_pairs(n1, n2):
    """Flat grid indices (p, q), each (2*n1 - 1, n2, n2), of one pair
    (y_p, y_q) per distinct triple (i - k, j, l): p = (max(m, 0), j) and
    q = (max(-m, 0), l) for m = i - k."""
    m = np.arange(1 - n1, n1)[:, None, None]
    j = np.arange(n2)
    return np.broadcast_arrays(np.maximum(m, 0) * n2 + j[:, None], np.maximum(-m, 0) * n2 + j)


def _gather_triples(table):
    """(2N, 2N) block matrix, entry (2p + a, 2q + c), from the 2x2 blocks
    table[m + n1 - 1, j, l] of each triple m = i - k; table as _triple_pairs."""
    n1, n2 = (table.shape[0] + 1) // 2, table.shape[1]
    i = np.arange(n1)
    blocks = table[i[:, None] - i[None, :] + n1 - 1]            # (i, k, j, l, a, c)
    return blocks.transpose(0, 2, 4, 1, 3, 5).reshape(2 * n1 * n2, 2 * n1 * n2)


def _kernel_triples(gamma, lam, Y, h):
    """Kernel blocks K(y_p, y_q) on a lattice (see _lattice), one per distinct
    triple (i - k, j, l) in the (2*n1 - 1, n2, n2, 2, 2) layout of
    _triple_pairs, with singular-cell correction on the i = k, j = l triples.

    K depends only on (x1 - y1, x2, y2), and the reflection identity
    K(y, x) = K(P1 x, P1 y)^T (P1: x1 -> -x1) gives
    table[m, j, l] = table[m, l, j]^T, so the kernel is evaluated once per
    mirror pair: on the triples with j <= l off the singular cells, and the
    triples with j > l are filled by transposition.  The
    diagonal cell integral is dominated by the bulk part, whose cell average
    is computed in closed form over the equal-area disc (radius h/sqrt(pi));
    the smooth reflected part is added at face value.
    """
    Y = np.asarray(Y, dtype=float)
    n1, n2 = _lattice(Y, h)
    p, q = _triple_pairs(n1, n2)
    diag = p == q
    upper = ~diag & (np.arange(n2)[:, None] <= np.arange(n2))
    table = np.empty(p.shape + (2, 2), dtype=complex)
    table[upper] = halfplane_kernel_batch(gamma, lam, Y[p[upper]], Y[q[upper]])
    rho = h / np.sqrt(np.pi)
    diag_w = (1j / lam) * (1.0 - lam * rho * _bessel_k01(lam * rho)[1])
    F = edge_F_batch(np.zeros(n2), 2.0 * lam * Y[:n2, 1], gamma)
    edge = lam * F[..., ::-1] / (4.0 * np.pi)          # F sigma_1: columns swapped
    table[diag] = edge + (diag_w / h**2) * np.eye(2)
    j, l = np.tril_indices(n2, -1)
    table[:, j, l] = np.swapaxes(table[:, l, j], -1, -2)
    return table


def _dense_kernel_matrix(gamma, lam, Y, h):
    """Kernel matrix K(y_p, y_q) on a lattice (see _lattice) as a (2N, 2N)
    block matrix: the blocks of _kernel_triples, gathered."""
    return _gather_triples(_kernel_triples(gamma, lam, Y, h))


def _series_terms(rows, M, col, k_max):
    """rows M^(k-1) col for k = 1..k_max, each of shape (P, 2, 2).

    rows (P, N, 2, 2) and col (N, 2, 2) hold a 2x2 block per grid point; M
    is a (2N, 2N) block matrix as from _dense_kernel_matrix.
    """
    P, N = rows.shape[:2]
    row = rows.transpose(0, 2, 1, 3).reshape(2 * P, 2 * N)
    col = col.reshape(2 * N, 2)
    terms = [row @ col]
    for _ in range(1, k_max):
        col = M @ col
        terms.append(row @ col)
    return [t.reshape(P, 2, 2) for t in terms]


def born_series(gamma, W, lam, order, x, xprime):
    """Partial Born series for the perturbed resolvent at energy i*lam.

    Returns the BornResult of every partial sum sum_{k<=n} (-1)^k [K W]^k K
    at (x, x'), for n = 0..order, from one pass: orders 1 and 2 by the
    continuum compositions above, higher orders on a dense auxiliary grid
    (their size is already (|W|/lam)^3 of the leading term).  Requires
    |W| < lam; the certified tail is the geometric remainder.
    """
    if not isinstance(gamma, BoundaryParam):
        gamma = BoundaryParam(gamma)
    lam = float(lam)
    order = int(order)
    if not 0 <= order <= 5:
        raise ValueError(f"order must lie in 0..5, got {order}")
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}")
    ratio = W.sup_norm / lam
    if ratio >= 1.0:
        raise ValueError(
            f"potential bound {W.sup_norm} is not below lam={lam}; "
            "the series is outside the certified convergence regime"
        )
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    K = resolvent_kernel(gamma, lam)
    # (term, accuracy allowance) of each order; orders without one add zero
    terms = [(K(x[None, :], xprime[None, :])[0], 0.0)]
    if order >= 1 and W.sup_norm > 0.0:
        c2 = compose2(K, W, K, x, xprime)
        terms.append((-c2.value, c2.error))
    if order >= 2 and W.sup_norm > 0.0:
        # the quadratic term is already (|W|/lam)^2 of the leading one, so a
        # reduced quadrature plus a flat accuracy allowance is enough here
        plan3 = CompositionPlan.for_pair(
            x, xprime, lam=lam, n_angular=12, radial_panels=5,
            radial_nodes=6, max_refinements=0, tol=3e-3,
        )
        c3 = compose3(K, W, K, W, K, x, xprime, plan=plan3)
        terms.append((c3.value, c3.error + 2e-3 * ratio**2 / lam))
    if order >= 3 and W.sup_norm > 0.0:
        Y, h = _dense_grid(x, xprime, lam, 30)
        Wgrid = W(Y)
        n = Y.shape[0]
        KW = _dense_kernel_matrix(gamma, lam, Y, h).reshape(2 * n, n, 1, 2) @ Wgrid
        rowW = K(np.broadcast_to(x, Y.shape), Y) @ Wgrid
        col = K(Y, np.broadcast_to(xprime, Y.shape))
        grid = _series_terms(h**2 * rowW[None], h**2 * KW.reshape(2 * n, 2 * n), col, order)
        for k in range(3, order + 1):                     # [KW]^k K (x, x')
            terms.append(((-1.0) ** k * grid[k - 1][0], ratio**k * 0.1 / lam))
    terms += [(0.0, 0.0)] * (order + 1 - len(terms))
    results, total, err = [], 0.0, 0.0
    for k, (term, allowance) in enumerate(terms):
        total, err = total + term, err + allowance
        tail = ratio ** (k + 1) / (lam * (1.0 - ratio))
        results.append(BornResult(total, float(tail), float(err)))
    return results


def low_lambda_form(resolvent_at_i, z, order=5):
    """Resolvent at a nearby energy from powers of the resolvent at i.

    Given the matrix R = (H - i)^{-1}, returns (sum_{j<=order} (z-i)^j R^{j+1},
    remainder_bound) with remainder_bound = |z-i|^{order+1} |Im z|^{-1} |R^3|^2
    in the spectral norm.  z is a SpectralPoint, so Im z != 0 is guaranteed.
    """
    R = np.asarray(resolvent_at_i, dtype=complex)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"resolvent must be a square matrix, got shape {R.shape}")
    dz = z.z - 1j
    acc = np.zeros_like(R)
    power = R.copy()
    for j in range(order + 1):
        acc += dz**j * power
        power = power @ R
    R3 = np.linalg.matrix_power(R, 3)
    bound = abs(dz) ** (order + 1) / abs(z.v) * np.linalg.norm(R3, ord=2) ** 2
    return acc, float(bound)

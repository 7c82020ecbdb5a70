"""Gauge-invariant magnetic perturbation theory on the half-plane.

The constant-field resolvent at large |lambda| is assembled from the
zero-field kernel K by phase dressing,

    S_b(x,x') = e^{i b phi(x,x')} K(x,x'),
    T_b(x,x') = b sigma.a_t(x-x') e^{i b phi(x,x')} K(x,x'),

with phi(x,x') = (x1'-x1)(x2+x2')/2 and a_t(x) = (-x2, x1)/2, and the
Neumann series (D_b - i lambda)^{-1} = sum_k S_b T_b^k, valid once the
Schur estimate of ||T_b||, exactly C(gamma) b / lambda^2 because the kernel
scales with lambda, drops below one.  Discrete half-plane Dirac stencils
with link (Peierls) phases realize the local gauge-transform identity and
magnetic-translation covariance exactly at the matrix level.
"""

import numpy as np

from .core import (
    PAULI,
    _converge,
    _gamma_value,
    gauss_legendre_panels,
)
from .edge_kernel import ContourConfig, halfplane_kernel_batch
from .kernel_ops import (
    _gather_triples,
    _kernel_triples,
    _series_terms,
    _triple_pairs,
)

__all__ = [
    "gauge_phase",
    "transverse_gauge",
    "transverse_gauge_residual",
    "S_b_kernel",
    "T_b_kernel",
    "schur_norm_Tb",
    "select_lambda0",
    "magnetic_resolvent",
    "dirac_stencil_2d",
    "magnetic_translation_matrix",
]


def gauge_phase(x, xprime):
    """phi(x,x') = (x1' - x1)(x2 + x2')/2, antisymmetric in its arguments."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xprime, dtype=float)
    return (xp[..., 0] - x[..., 0]) * (x[..., 1] + xp[..., 1]) / 2.0


def transverse_gauge(d):
    """a_t(d) = (-d2, d1)/2."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    out[..., 0] = -d[..., 1] / 2.0
    out[..., 1] = d[..., 0] / 2.0
    return out


def transverse_gauge_residual(x, xprime, fd_step=1e-5):
    """a(x) - grad_x phi(x,x'), which equals a_t(x - x').

    The gradient is evaluated both analytically and by central differences;
    both results are checked against a_t(x-x') before returning it.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xprime, dtype=float)
    a = np.array([-x[1], 0.0])
    grad_analytic = np.array([-(x[1] + xp[1]) / 2.0, (xp[0] - x[0]) / 2.0])
    grad_fd = np.array(
        [
            (gauge_phase(x + [fd_step, 0], xp) - gauge_phase(x - [fd_step, 0], xp))
            / (2 * fd_step),
            (gauge_phase(x + [0, fd_step], xp) - gauge_phase(x - [0, fd_step], xp))
            / (2 * fd_step),
        ]
    )
    expected = transverse_gauge(x - xp)
    if np.max(np.abs(grad_fd - grad_analytic)) > 1e-8:
        raise AssertionError("finite-difference gradient of phi disagrees with analytic form")
    if np.max(np.abs(a - grad_analytic - expected)) > 1e-12:
        raise AssertionError("a(x) - grad phi does not reduce to a_t(x - x')")
    return expected


def _check_field(b, W):
    """The input check of every magnetic kernel, estimate and assembly: b a
    finite nonnegative flux density, and no potential (W None or zero)."""
    if not (np.isfinite(b) and b >= 0.0):
        raise ValueError(f"flux density b must be finite and nonnegative, got {b}")
    if W is not None and W.sup_norm != 0.0:
        raise NotImplementedError("magnetic kernels implemented for W = 0")


def _sigma_dot_at(D):
    """sigma . a_t(D) for displacement array D of shape (..., 2)."""
    at = transverse_gauge(D)
    out = np.zeros(D.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 1] = at[..., 0] - 1j * at[..., 1]
    out[..., 1, 0] = at[..., 0] + 1j * at[..., 1]
    return out


def _dress(b, K, X, Xp, kind):
    """Gauge-dress zero-field kernel values K(X, Xp), shape (..., 2, 2).

    kind "S" gives S_b = e^{i b phi} K and "T" gives T_b = b sigma.a_t S_b.
    "T*" gives T_b(-i lam)^*(x, y) = -b e^{i b phi} K sigma.a_t(x - y), the
    mirror expansion's factor, whose gauge factor acts from the right.
    """
    X = np.asarray(X, dtype=float)
    Xp = np.asarray(Xp, dtype=float)
    S = np.exp(1j * b * gauge_phase(X, Xp))[..., None, None] * K
    if kind == "S":
        return S
    sig_at = _sigma_dot_at(X - Xp)
    return b * sig_at @ S if kind == "T" else -b * S @ sig_at


def S_b_kernel(b, W, gamma, lam, x, xprime):
    """Phase-dressed zero-field kernel e^{i b phi} (D_0 - i lam)^{-1} over point
    arrays x, x' of shape (..., 2), refined (halfplane_kernel_batch with
    cfg=ContourConfig()); W must be None or zero."""
    _check_field(b, W)
    K = halfplane_kernel_batch(gamma, lam, x, xprime, ContourConfig())
    return _dress(b, K, x, xprime, "S")


def T_b_kernel(b, W, gamma, lam, x, xprime):
    """b sigma.a_t(x-x') e^{i b phi} (D_0 - i lam)^{-1} over point arrays as
    S_b_kernel; zero at b = 0 and at pairs with x = x'."""
    _check_field(b, W)
    x, xp = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xprime, dtype=float))
    out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    off = ~np.all(x == xp, axis=-1)
    if b != 0.0 and np.any(off):
        x, xp = x[off], xp[off]
        K = halfplane_kernel_batch(gamma, lam, x, xp, ContourConfig())
        out[off] = _dress(b, K, x, xp, "T")
    return out


# the Schur ring integrals: angles (even, see _schur_constant), tolerance, most shells
_SCHUR_ANGLES = 24
_SCHUR_TOL = 1e-3
_SCHUR_MAX_EXTENSIONS = 8


def _schur_constant(gamma):
    """C(gamma) = schur_norm_Tb at b = lam = 1: sup over probe points x of
    the larger of the row and column integrals of r/2 |K_1| around x.

    The probes sit at x1 = 0, so the column norm |K(y, x)| = |K(x, P1 y)|
    (P1: y1 -> -y1, see edge_kernel) is the row norm at the mirror angle
    pi - phi; the angle set phi_a = (a + 1/2) 2 pi / n with n = _SCHUR_ANGLES
    is closed under it as n is even, and only the row kernel is evaluated.
    Each integral is summed over shells of width 6 until core._converge
    accepts the running total (tolerance _SCHUR_TOL, floor 1e-300).
    """
    probes = np.array([[0.0, t] for t in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0)])
    phis = (np.arange(_SCHUR_ANGLES) + 0.5) * (2 * np.pi / _SCHUR_ANGLES)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    mirror = _mirror_angles(_SCHUR_ANGLES)

    def totals(x):
        total, r_lo, r_hi = 0.0, 0.0, 6.0
        for _ in range(_SCHUR_MAX_EXTENSIONS):
            nodes, wts = gauss_legendre_panels(np.linspace(r_lo, r_hi, 7), 8)
            pts = x + nodes[:, None, None] * dirs
            ok = pts[..., 1] > 1e-9
            env = np.zeros(ok.shape)
            K = halfplane_kernel_batch(gamma, 1.0, np.broadcast_to(x, pts[ok].shape), pts[ok])
            env[ok] = _norm_2x2(K)
            env = np.maximum(env, env[:, mirror])
            r = nodes[:, None]
            total += np.sum(wts[:, None] * (r / 2.0) * env * r) * (2 * np.pi / _SCHUR_ANGLES)
            yield total
            r_lo, r_hi = r_hi, r_hi + 6.0

    return max(_converge(totals(x), _SCHUR_TOL, 1e-300, "Schur integral tail")[0]
               for x in probes)


def _norm_2x2(M):
    """Operator 2-norm of each 2x2 block of M (..., 2, 2) in closed form.

    With rows a, b of M, ||M||^2 is the larger eigenvalue of M M^*,
    (p + q)/2 + hypot((p - q)/2, |<a, b>|) with p = |a|^2, q = |b|^2.  This
    equals (|M|_F^2 + sqrt(|M|_F^4 - 4 |det M|^2)) / 2, but without that
    form's cancellation when the two singular values are close.
    """
    sq = M.real**2 + M.imag**2
    p, q = sq[..., 0, :].sum(axis=-1), sq[..., 1, :].sum(axis=-1)
    ab = np.sum(M[..., 0, :] * M[..., 1, :].conj(), axis=-1)
    return np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, np.abs(ab)))


def _mirror_angles(n_angular):
    """Index of pi - phi_a in the angle set phi_a = (a + 1/2) 2 pi / n_angular."""
    return (n_angular // 2 - 1 - np.arange(n_angular)) % n_angular


def _schur_scale(b, W, lam):
    """b / lam^2, the factor schur_norm_Tb puts on C(gamma), after its input
    checks; 0 for b = 0, where lam need only be finite."""
    _check_field(b, W)
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if b == 0.0:
        return 0.0
    if lam < 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    return b / lam**2


def _schur_estimates(pairs, W, gamma):
    """schur_norm_Tb at each (b, lam) of pairs, every pair checked, from one
    C(gamma) (none when every b is 0)."""
    scales = [_schur_scale(b, W, lam) for b, lam in pairs]
    C = _schur_constant(gamma) if any(scales) else 0.0
    return [scale * C for scale in scales]


def schur_norm_Tb(b, W, gamma, lam):
    """Schur-test estimate of ||T_b(i lam)||: sup over probe points of the
    larger of the row and column integrals of the entrywise operator norm.

    The probes, the shells (width 6/lam) and the kernel all scale with
    1/lam (K_lam(x, y) = lam K_1(lam x, lam y)) and the stop rule is
    relative, so the estimate is exactly (b / lam^2) C(gamma), with C the
    integral at b = lam = 1 (see _schur_constant).  Only W = 0 is supported
    (the Neumann assembly is run at W = 0; with a potential the bound
    follows from the same kernel envelope).
    """
    return _schur_estimates([(b, lam)], W, gamma)[0]


def select_lambda0(b, W, gamma, lams):
    """Smallest lambda in the sweep with Schur estimate below 1/2."""
    lams = sorted(lams)
    for lam, estimate in zip(lams, _schur_estimates([(b, lam) for lam in lams], W, gamma)):
        if estimate < 0.5:
            return lam
    raise ValueError("no lambda in the sweep brings the Schur estimate below 1/2")


def _dressed_grid(b, gamma, lam, x_list, xprime, n=26, adjoint=False):
    """Cell-centered grid covering the kernels' effective support, its step,
    and the dense T_b matrix on it (T_b(-i lam)^* with adjoint=True) in the
    (2N, 2N) block layout of kernel_ops._dense_kernel_matrix.

    The gauge phase and sigma.a_t(y - z) depend, like K, only on the triple
    (i - k, j, l), so the kernel table of kernel_ops._kernel_triples is
    dressed once per triple and then gathered.
    """
    pts = np.vstack([np.atleast_2d(x_list), [xprime]])
    c1 = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
    half = 0.5 * (pts[:, 0].max() - pts[:, 0].min()) + 10.0 / lam
    top = pts[:, 1].max() + 10.0 / lam
    h = 2.0 * half / n
    n2 = max(int(np.ceil(top / h)), 4)
    g1 = c1 - half + h * (np.arange(n) + 0.5)
    g2 = h * (np.arange(n2) + 0.5)
    Y = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    p, q = _triple_pairs(n, n2)
    T = _dress(b, _kernel_triples(gamma, lam, Y, h), Y[p], Y[q], "T*" if adjoint else "T")
    return Y, h, _gather_triples(T)


def magnetic_resolvent(b, W, gamma, lam, order, x, xprime, adjoint=False, n_grid=26):
    """Truncated Neumann assembly sum_{k<=order} S_b T_b^k at (x, x').

    x may be a single point or an (n, 2) batch sharing one quadrature grid.
    Returns (value, tail_bound); the tail is ||S_b|| ||T_b||^{order+1} /
    (1 - ||T_b||) with the Schur estimate for ||T_b||.  With adjoint=True
    the mirror expansion sum_k (T_b(-i lam)*)^k S_b(-i lam)* is used.
    """
    _check_field(b, W)
    g = _gamma_value(gamma)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    xprime = np.asarray(xprime, dtype=float)
    t_norm = schur_norm_Tb(b, None, g, lam)
    if t_norm >= 1.0:
        raise ValueError(
            f"Neumann series not certified: Schur estimate of ||T_b|| is {t_norm:.3f} >= 1"
        )
    s_norm = 1.0 / lam
    tail = s_norm * t_norm ** (order + 1) / (1.0 - t_norm)

    out = S_b_kernel(b, None, g, lam, X, xprime)
    if order > 0:
        Y, h, T = _dressed_grid(b, g, lam, X, xprime, n=n_grid, adjoint=adjoint)
        Yc = np.broadcast_to(xprime, Y.shape)
        Xr = np.broadcast_to(X[:, None, :], (X.shape[0],) + Y.shape)
        Yr = np.broadcast_to(Y, Xr.shape)
        # direct: S_b(x_i, .) [T_b]^(k-1) T_b(., x'); mirror: the adjoint
        # factors T_b(-il)^*(x_i, .) [T_b(-il)^*]^(k-1) S_b(-il)^*(., x'),
        # where S_b(-il)^* is the same phase-dressed kernel as S_b
        row_kind, col_kind = ("T*", "S") if adjoint else ("S", "T")
        rows = _dress(b, halfplane_kernel_batch(g, lam, Xr, Yr), Xr, Yr, row_kind)
        col = _dress(b, halfplane_kernel_batch(g, lam, Y, Yc), Y, Yc, col_kind)
        for term in _series_terms(h**2 * rows, h**2 * T, col, order):
            out += term
    return (out[0], tail) if single else (out, tail)


def _link_phase(a_mid, step_vec, h):
    # exp(-i * integral of A along the link), midpoint rule (exact for
    # linear A)
    return np.exp(-1j * h * (a_mid * step_vec).sum(axis=-1))


def dirac_stencil_2d(h, n1, n2, b=0.0, mass=0.0, gauge="landau", xprime=(0.0, 0.0),
                     x2_offset=0.0):
    """Discrete 2D Dirac operator on an n1 x n2 box with link phases.

    Centered 2nd-order differences; hops carry Peierls phases
    exp(-i int A.dl) so gauge identities hold exactly at the stencil level.
    gauge="landau": A = b(-x2, 0); gauge="transverse": A = b a_t(x - x').
    Rows within one stencil width of the box edge see truncated hops; callers
    assert identities on interior rows only.  Returns (H, coords) with H
    Hermitian of dimension 2*n1*n2.
    """
    xprime = np.asarray(xprime, dtype=float)
    x1 = h * (np.arange(n1) - (n1 - 1) / 2.0)
    x2 = x2_offset + h * np.arange(n2)
    P1, P2 = np.meshgrid(x1, x2, indexing="ij")
    coords = np.stack([P1.ravel(), P2.ravel()], axis=-1)
    ns = n1 * n2

    def a_field(pts):
        if gauge == "landau":
            out = np.zeros_like(pts)
            out[:, 0] = -b * pts[:, 1]
            return out
        if gauge == "transverse":
            return b * transverse_gauge(pts - xprime)
        raise ValueError(f"unknown gauge {gauge!r}")

    H = np.zeros((2 * ns, 2 * ns), dtype=complex)
    site = lambda i, j: i * n2 + j
    idx = np.arange(ns)
    ii, jj = idx // n2, idx % n2
    c = -1j / (2.0 * h)

    for (di, dj, sigma) in ((1, 0, PAULI[0]), (0, 1, PAULI[1])):
        src = (ii + di < n1) & (jj + dj < n2)
        s_from = site(ii[src], jj[src])
        s_to = site(ii[src] + di, jj[src] + dj)
        mid = 0.5 * (coords[s_from] + coords[s_to])
        step = np.array([di, dj], dtype=float)
        ph = _link_phase(a_field(mid), step, h)
        for a in range(2):
            for bb in range(2):
                if sigma[a, bb] == 0:
                    continue
                H[2 * s_from + a, 2 * s_to + bb] += c * sigma[a, bb] * ph
                H[2 * s_to + a, 2 * s_from + bb] += -c * sigma[a, bb] * np.conj(ph)
    if mass != 0.0:
        H[2 * idx, 2 * idx] += mass
        H[2 * idx + 1, 2 * idx + 1] -= mass
    return H, coords


def magnetic_translation_matrix(coords, h, n1, n2, ell, b):
    """Unitary magnetic translation (tau f)(x) = e^{-i b x1 ell2} f(x - ell)
    on the grid; ell must be an integer lattice vector divisible by h."""
    ell = np.asarray(ell, dtype=float)
    steps = ell / h
    if np.max(np.abs(steps - np.round(steps))) > 1e-12:
        raise ValueError("translation must be a multiple of the grid step")
    s1, s2 = int(round(steps[0])), int(round(steps[1]))
    ns = n1 * n2
    U = np.zeros((2 * ns, 2 * ns), dtype=complex)
    site = lambda i, j: i * n2 + j
    for i in range(n1):
        for j in range(n2):
            i0, j0 = i - s1, j - s2
            if 0 <= i0 < n1 and 0 <= j0 < n2:
                ph = np.exp(-1j * b * coords[site(i, j), 0] * ell[1])
                for a in range(2):
                    U[2 * site(i, j) + a, 2 * site(i0, j0) + a] = ph
    return U

import numpy as np
import pytest

from dirac_edge.closed_form import bulk_plane_kernel
from dirac_edge.core import (
    PAULI,
    SIGMA_1,
    QuadratureError,
    SpectralPoint,
    gauss_legendre_panels,
)
from dirac_edge.edge_kernel import ContourConfig, edge_F_batch, halfplane_kernel_batch
from dirac_edge import kernel_ops
from dirac_edge.fiber import discretize_fiber
from dirac_edge.kernel_ops import (
    CompositionPlan,
    PotentialField,
    born_series,
    compose2,
    compose3,
    low_lambda_form,
    resolvent_kernel,
)
from dirac_edge.magnetic import _dressed_grid, dirac_stencil_2d, gauge_phase, transverse_gauge
from numpy.polynomial.legendre import leggauss

RNG = np.random.default_rng(419)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _dense_compose2(gamma, lam, W, x, xp, n=60, pad=3.5, rad=1.2, sub=16):
    """Plain dense-grid Riemann sum for (K W K)(x, x').

    Cells near either singular center are averaged over a sub x sub
    refinement of the full product, the rest use midpoints.
    """
    lo1 = min(x[0], xp[0]) - pad
    hi1 = max(x[0], xp[0]) + pad
    h = (hi1 - lo1) / n
    n2 = int(np.ceil((max(x[1], xp[1]) + pad) / h))
    c1 = lo1 + h * (np.arange(n) + 0.5)
    c2 = h * (np.arange(n2) + 0.5)
    Y = np.stack(np.meshgrid(c1, c2, indexing="ij"), -1).reshape(-1, 2)
    d = np.minimum(np.hypot(*(Y - x).T), np.hypot(*(Y - xp).T))
    far = d >= rad

    def prod(P):
        A = halfplane_kernel_batch(gamma, lam, np.broadcast_to(x, P.shape), P)
        B = halfplane_kernel_batch(gamma, lam, P, np.broadcast_to(xp, P.shape))
        return np.einsum("nab,nbc,ncd->nad", A, W(P), B)

    val = prod(Y[far]).sum(axis=0) * h * h
    off = (np.arange(sub) + 0.5) / sub - 0.5
    o1, o2 = np.meshgrid(off, off, indexing="ij")
    offs = h * np.stack([o1, o2], -1).reshape(-1, 2)
    for yc in Y[~far]:
        val += prod(yc[None, :] + offs).mean(axis=0) * h * h
    return val


def _massive_fiber_kernel(m, xi, lam, gamma, t, tp):
    """Closed-form half-line resolvent kernel of the 1d fiber operator
    [[m, xi - d/dt], [xi + d/dt, -m]] at energy i*lam, psi2(0) = gamma psi1(0).
    """
    kap = np.sqrt(xi**2 + m**2 + lam**2)

    def whole(z):
        s = np.sign(z)
        e = np.exp(-kap * abs(z)) / (2.0 * kap)
        return e * np.array([[m + 1j * lam, xi + kap * s],
                             [xi - kap * s, -m + 1j * lam]])

    v = np.array([xi + kap, -(m - 1j * lam)])
    Kr = whole(-tp)
    c = (gamma * Kr[0, :] - Kr[1, :]) / (v[1] - gamma * v[0])
    return whole(t - tp) + np.exp(-kap * t) * np.outer(v, c)


def _assembled_massive_kernel(m, lam, gamma, x, xp, Xi=40.0, dxi=0.02):
    """2d kernel of the mass-perturbed operator from its momentum fibers."""
    xs = np.arange(-Xi, Xi + dxi / 2, dxi)
    acc = np.zeros((2, 2), complex)
    for xi in xs:
        acc += np.exp(1j * xi * (x[0] - xp[0])) * _massive_fiber_kernel(
            m, xi, lam, gamma, x[1], xp[1]
        )
    return acc * dxi / (2.0 * np.pi)


def _fiber_kernel_pairs(xi, lam, gamma, S, T):
    """Massless fiber kernel K_xi(s, t) for all pairs from S (rows), T (cols)."""
    kap = np.sqrt(xi**2 + lam**2)
    Z = S[:, None] - T[None, :]
    sgn = np.sign(Z)
    e = np.exp(-kap * np.abs(Z)) / (2.0 * kap)
    out = np.empty(Z.shape + (2, 2), complex)
    out[..., 0, 0] = e * (1j * lam)
    out[..., 0, 1] = e * (xi + kap * sgn)
    out[..., 1, 0] = e * (xi - kap * sgn)
    out[..., 1, 1] = e * (1j * lam)
    v = np.array([xi + kap, 1j * lam])
    eT = np.exp(-kap * T) / (2.0 * kap)
    den = v[1] - gamma * v[0]
    c0 = (gamma * eT * (1j * lam) - eT * (xi + kap)) / den
    c1 = (gamma * eT * (xi - kap) - eT * (1j * lam)) / den
    corr = np.exp(-kap * S)[:, None, None, None] * (
        v[:, None] * np.stack([c0, c1], 1)[:, None, :]
    )[None, ...]
    return out + corr


def _fiber_triple_diag(xi, lam, gamma, t, panels=30, nodes=6, depth=12.0):
    """K_xi^3 on the half-line, evaluated at (t, t) by composite Gauss rules."""
    kap = np.sqrt(xi**2 + lam**2)
    Tmax = t + depth / kap
    gx, gw = leggauss(nodes)
    edges = np.unique(np.concatenate([
        np.linspace(0.0, t, max(2, int(panels * t / Tmax) + 1)),
        np.linspace(t, Tmax, max(2, panels)),
    ]))
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    S = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    Wq = (half[:, None] * gw[None, :]).ravel()
    tarr = np.array([t])
    row = _fiber_kernel_pairs(xi, lam, gamma, tarr, S)[0]
    col = _fiber_kernel_pairs(xi, lam, gamma, S, tarr)[:, 0]
    midm = _fiber_kernel_pairs(xi, lam, gamma, S, S)
    T1 = np.einsum("ijbc,j,jcd->ibd", midm, Wq, col)
    return np.einsum("i,iab,ibd->ad", Wq, row, T1)


def _assembled_triple_diag(lam, gamma, t, Xi=80.0, dxi=0.2):
    """(K K K)(x, x) at x = (., t): the triple composition is diagonal in
    the momentum decomposition when the potential is a constant scalar."""
    xs = np.arange(-Xi, Xi + dxi / 2, dxi)
    acc = np.zeros((2, 2), complex)
    for xi in xs:
        acc += _fiber_triple_diag(xi, lam, gamma, t)
    return acc * dxi / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# potential and kernel plumbing
# ---------------------------------------------------------------------------

def test_potential_field_basics():
    W = PotentialField.constant(w0=0.4, w3=0.3)
    Y = RNG.normal(size=(5, 2))
    M = W(Y)
    assert np.allclose(M[:, 0, 0], 0.7) and np.allclose(M[:, 1, 1], 0.1)
    assert np.allclose(M[:, 0, 1], 0.0)
    assert np.max(np.abs(M - np.conj(np.swapaxes(M, -1, -2)))) == 0.0
    assert W.sup_norm == pytest.approx(0.7)
    assert np.allclose(W.pointwise_bound(Y), 0.7)
    Z = PotentialField.zero()
    assert Z.sup_norm == 0.0 and np.max(np.abs(Z(Y))) == 0.0
    with pytest.raises(ValueError):
        PotentialField(Z.w0, Z.w1, Z.w2, Z.w3, -1.0)


def test_resolvent_kernel_matches_pointwise():
    K = resolvent_kernel(1.0, 2.0)
    X = np.abs(RNG.normal(size=(17, 2))) + 0.05
    Y = np.abs(RNG.normal(size=(17, 2))) + 0.05
    out = K(X, Y)
    for i in range(X.shape[0]):
        single = halfplane_kernel_batch(1.0, 2.0, X[i], Y[i], ContourConfig())
        assert np.max(np.abs(out[i] - single)) < 1e-12
    # chunk-order bookkeeping: a permuted batch permutes the output
    p = RNG.permutation(17)
    assert np.max(np.abs(K(X[p], Y[p]) - out[p])) < 1e-12


# ---------------------------------------------------------------------------
# double composition
# ---------------------------------------------------------------------------

def test_compose2_zero_potential_and_diagonal():
    K = resolvent_kernel(1.0, 1.0)
    x, xp = np.array([0.2, 0.9]), np.array([1.1, 0.6])
    out = compose2(K, PotentialField.zero(), K, x, xp)
    assert np.max(np.abs(out.value)) == 0.0 and out.error == 0.0
    with pytest.raises(ValueError, match="x != x'"):
        compose2(K, PotentialField.constant(w0=1.0), K, x, x)


def test_compose2_matches_dense_grid_oracle():
    g, lam = 1.0, 1.0
    K = resolvent_kernel(g, lam)
    W = PotentialField.constant(w0=1.0)
    x, xp = np.array([0.0, 1.0]), np.array([1.0, 0.5])
    got = compose2(K, W, K, x, xp)
    ref = _dense_compose2(g, lam, W, x, xp)
    assert np.max(np.abs(got.value - ref)) < 3e-3
    assert got.error < 1e-3


def test_compose2_is_bilinear_in_kernels_and_potential():
    K = resolvent_kernel(1.0, 1.0)
    x, xp = np.array([0.2, 0.9]), np.array([1.1, 0.6])
    base = compose2(K, PotentialField.constant(w0=1.0), K, x, xp).value
    scaled_W = compose2(K, PotentialField.constant(w0=-1.7), K, x, xp).value
    assert np.max(np.abs(scaled_W + 1.7 * base)) < 1e-12

    def scale(Kf, a):
        S = lambda X, Y: a * Kf(X, Y)
        S.lam = Kf.lam
        S.gamma = Kf.gamma
        return S

    v = compose2(scale(K, 2.0), PotentialField.constant(w0=1.0),
                 scale(K, 0.5), x, xp).value
    assert np.max(np.abs(v - base)) == 0.0


def test_compose2_decay_rate():
    # exponential decay rate at least 0.8*lam once the polynomial prefactor
    # of the one-fold composition is modeled out
    lam = 2.0
    K = resolvent_kernel(1.0, lam)
    W = PotentialField.constant(w0=1.0)
    xp = np.array([1.1, 0.6])
    u = np.array([0.6, 0.8])
    ds = np.array([0.6, 1.0, 1.4, 1.8, 2.2])
    mags = np.array([
        np.max(np.abs(compose2(K, W, K, xp, xp + d * u).value)) for d in ds
    ])
    corr = np.log(mags) - np.log(1.0 + lam * ds)
    c_hat = -np.polyfit(ds, corr, 1)[0] / lam
    assert c_hat >= 0.8


def test_compose2_log_modulated_envelope():
    # |K W K|(x, x') stays below C * log(2 + 1/d) * exp(-0.8 lam d) down to
    # small separations: the ratio to that envelope is bounded and tame
    lam = 1.0
    K = resolvent_kernel(1.0, lam)
    W = PotentialField.constant(w0=1.0)
    xp = np.array([1.1, 0.6])
    q = []
    for d in (0.05, 0.2, 0.8, 1.6):
        v = np.max(np.abs(compose2(K, W, K, xp, xp + np.array([d, 0.0])).value))
        q.append(v * np.exp(0.8 * lam * d) / np.log(2.0 + 1.0 / d))
    q = np.array(q)
    assert q.max() < 0.3
    assert q.max() / q.min() < 3.0


def test_compose2_continuity_under_mesh_refinement():
    # values on a spatial mesh: the largest jump shrinks when the mesh is
    # refined (fixed deterministic quadrature layout per pair)
    K = resolvent_kernel(1.0, 1.0)
    W = PotentialField.constant(w0=1.0)
    xp = np.array([1.1, 0.6])
    x0 = np.array([0.3, 1.0])

    def val(xx):
        plan = CompositionPlan.for_pair(
            xx, xp, lam=1.0, n_angular=16, radial_panels=6, radial_nodes=6,
            max_refinements=1, tol=0.5,
        )
        return compose2(K, W, K, xx, xp, plan=plan).value

    jumps = {}
    for delta in (0.08, 0.04):
        vals = [val(x0 + np.array([k * delta, 0.0])) for k in range(5)]
        jumps[delta] = max(
            np.max(np.abs(a - b)) for a, b in zip(vals[1:], vals[:-1])
        )
    assert jumps[0.08] < 2e-2
    assert jumps[0.04] < 0.7 * jumps[0.08]


# ---------------------------------------------------------------------------
# triple composition
# ---------------------------------------------------------------------------

def _cheap_plan(x, xp, lam):
    return CompositionPlan.for_pair(
        x, xp, lam=lam, n_angular=12, radial_panels=5, radial_nodes=6,
        max_refinements=0, tol=3e-3,
    )


def test_compose3_zero_potential():
    K = resolvent_kernel(1.0, 1.0)
    x = np.array([0.3, 1.0])
    W = PotentialField.constant(w0=1.0)
    for W1, W2 in ((PotentialField.zero(), W), (W, PotentialField.zero())):
        out = compose3(K, W1, K, W2, K, x, x)
        assert np.max(np.abs(out.value)) == 0.0 and out.error == 0.0


def test_compose3_unconverged_error_is_last_change(monkeypatch):
    # when the refinements run out, the reported error must cover the last
    # measured change between the two finest estimates
    A = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    B = A + np.array([[0.0, 3e-4], [0.0, 0.0]])
    estimates = iter([A, B])
    monkeypatch.setattr(kernel_ops, "_patch_sum", lambda *args: next(estimates)[None])
    x, xp = np.array([0.3, 0.8]), np.array([1.0, 0.4])
    plan = CompositionPlan.for_pair(x, xp, lam=2.0, n_angular=4, radial_panels=2,
                                    radial_nodes=3, tol=1e-12, max_refinements=1)
    W = PotentialField.constant(w3=0.2)
    out = compose3(None, W, None, W, None, x, xp, plan=plan)
    assert np.array_equal(out.value, B)
    assert out.error >= np.max(np.abs(A - B))


def test_compose3_right_point_on_a_node_outside_the_patches():
    # on the benchmark's 4x2x4 plan some inner nodes fall outside their patch
    # (weight 0); kernels must not be evaluated there, wherever x' lies, so
    # x' = (0, 1) gives the limit of nearby points
    K = resolvent_kernel(1.0, 2.0)
    W = PotentialField.constant(w3=0.2)
    x = np.array([0.3, 0.8])
    vals = []
    for xp in (np.array([0.0, 1.0]), np.array([0.0, 1.0 + 1e-12])):
        plan = CompositionPlan.for_pair(x, xp, lam=2.0, n_angular=4, radial_panels=2,
                                        radial_nodes=4, max_refinements=0)
        vals.append(compose3(K, W, K, W, K, x, xp, plan=plan).value)
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-9 * np.max(np.abs(vals[1]))


def test_compose3_diagonal_matches_fiber_oracle():
    # with a constant scalar potential the triple composition splits over
    # momentum fibers, where it reduces to cheap 1d quadrature
    g, lam = 1.0, 1.0
    K = resolvent_kernel(g, lam)
    W = PotentialField.constant(w0=1.0)
    x = np.array([0.3, 1.0])
    got = compose3(K, W, K, W, K, x, x, plan=_cheap_plan(x, x, lam))
    ref = _assembled_triple_diag(lam, g, x[1])
    assert np.isfinite(got.value).all()
    assert np.max(np.abs(got.value - ref)) < 3e-3


def test_compose3_decay_rate():
    lam = 2.0
    K = resolvent_kernel(1.0, lam)
    W = PotentialField.constant(w0=1.0)
    xp = np.array([1.1, 0.6])
    u = np.array([0.6, 0.8])
    ds = np.array([0.6, 1.5, 2.4])
    mags = []
    for d in ds:
        x = xp + d * u
        c = compose3(K, W, K, W, K, x, xp, plan=_cheap_plan(x, xp, lam))
        mags.append(np.max(np.abs(c.value)))
    # two-fold composition: quadratic polynomial prefactor
    corr = np.log(mags) - 2.0 * np.log(1.0 + lam * ds)
    c_hat = -np.polyfit(ds, corr, 1)[0] / lam
    assert c_hat >= 0.8


# ---------------------------------------------------------------------------
# Born series
# ---------------------------------------------------------------------------

def test_born_series_order_zero_and_refusals():
    g, lam = 1.0, 2.0
    x, xp = np.array([0.3, 0.8]), np.array([1.0, 0.4])
    W = PotentialField.constant(w3=0.2)
    (out,) = born_series(g, W, lam, 0, x, xp)
    K = halfplane_kernel_batch(g, lam, x, xp, ContourConfig())
    assert np.max(np.abs(out.value - K)) < 1e-14
    with pytest.raises(ValueError, match="order"):
        born_series(g, W, lam, 6, x, xp)
    with pytest.raises(ValueError, match="lam"):
        born_series(g, W, 0.5, 1, x, xp)
    with pytest.raises(ValueError, match="convergence"):
        born_series(g, PotentialField.constant(w0=3.0), lam, 1, x, xp)


def test_born_series_matches_massive_fiber_oracle():
    # constant mass term: the perturbed kernel is known in closed form fiber
    # by fiber; the series must approach it at the certified geometric rate
    m, lam, g = 0.2, 2.0, 1.0
    x, xp = np.array([0.3, 0.8]), np.array([1.0, 0.4])
    exact = _assembled_massive_kernel(m, lam, g, x, xp)
    W = PotentialField.constant(w3=m)
    ratio = W.sup_norm / lam
    # one call returns every partial sum; order 3 is the first grid term
    results = born_series(g, W, lam, 3, x, xp)
    assert len(results) == 4
    diffs = [np.max(np.abs(b.value - exact)) for b in results]
    for d, b in zip(diffs, results):
        assert d < b.tail_bound + b.error
    assert diffs[2] < 1e-3
    diffs, values = diffs[:3], [b.value for b in results[:3]]
    # successive-step contraction: each added term within the geometric bound
    for j, (a, b_) in enumerate(zip(values[:-1], values[1:])):
        assert np.max(np.abs(b_ - a)) < 1.5 * ratio ** (j + 1) / lam
    # observed convergence exponent within 10% of log(|W|/lam)
    slope = np.polyfit([0, 1, 2], np.log(diffs), 1)[0]
    assert abs(slope - np.log(ratio)) < 0.1 * abs(np.log(ratio))


# ---------------------------------------------------------------------------
# uniform-grid operator
# ---------------------------------------------------------------------------

def _pair_blocks(M):
    """(2N, 2N) block matrix as (N, N, 2, 2) blocks per grid pair."""
    n = M.shape[0] // 2
    return M.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)


def _disc_average_bulk(lam, rho, n_ang=64):
    """Average of the bulk kernel over the disc of radius rho, by polar
    Gauss-Legendre quadrature graded toward the singular center."""
    r, wr = gauss_legendre_panels(rho * kernel_ops._base_edges(24), 10)
    phi = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    d = r[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)[None]
    B = bulk_plane_kernel(lam, d)
    return np.einsum("r,rpab->ab", wr * r, B) * (2.0 * np.pi / n_ang) / (np.pi * rho**2)


def test_grid_operator_on_both_grid_layouts():
    b, g, lam = 0.5, 1.0, 2.0
    x, xp = np.array([0.1, 0.45]), np.array([0.3, 0.6])
    Yd, hd = kernel_ops._dense_grid(x, xp, lam, 5)                    # 5 x 5, edge-aligned in x1
    Yc, hc, _ = _dressed_grid(b, g, lam, x, xp, n=6)                   # 6 x 4, cell-centered
    assert Yc.shape == (24, 2)
    for Y, h in ((Yd, hd), (Yc, hc)):
        n = Y.shape[0]
        M = _pair_blocks(kernel_ops._dense_kernel_matrix(g, lam, Y, h))
        P, Q = np.nonzero(~np.eye(n, dtype=bool))
        ref = halfplane_kernel_batch(g, lam, Y[P], Y[Q])
        assert np.max(np.abs(M[P, Q] - ref)) <= 1e-13 * np.max(np.abs(ref))
        # diagonal cells: reflected term at face value plus the bulk cell average
        edge = lam * edge_F_batch(np.zeros(n), 2.0 * lam * Y[:, 1], g) @ SIGMA_1 / (4.0 * np.pi)
        cell = _disc_average_bulk(lam, h / np.sqrt(np.pi))
        diag = M[np.arange(n), np.arange(n)]
        assert np.max(np.abs(diag - edge - cell)) <= 1e-10 * np.max(np.abs(cell))
        # a gather is only valid on the lattice
        jittered = Y.copy()
        jittered[3, 0] += 1e-3
        for bad, step in ((Y[::-1], h), (jittered, h), (Y, 1.01 * h)):
            with pytest.raises(ValueError, match="lattice"):
                kernel_ops._dense_kernel_matrix(g, lam, bad, step)
    # the dressed matrices, pair by pair: T_b = b sigma.a_t e^{ib phi} K and
    # T_b(-i lam)^* = -b e^{ib phi} K sigma.a_t
    K = _pair_blocks(kernel_ops._dense_kernel_matrix(g, lam, Yc, hc))
    phase = np.exp(1j * b * gauge_phase(Yc[:, None, :], Yc[None, :, :]))[..., None, None]
    at = transverse_gauge(Yc[:, None, :] - Yc[None, :, :])
    sig_at = at[..., 0, None, None] * PAULI[0] + at[..., 1, None, None] * PAULI[1]
    for adjoint, want in ((False, b * sig_at @ (phase * K)), (True, -b * (phase * K) @ sig_at)):
        Y, h, T = _dressed_grid(b, g, lam, x, xp, n=6, adjoint=adjoint)
        assert np.array_equal(Y, Yc) and h == hc
        assert np.max(np.abs(_pair_blocks(T) - want)) <= 1e-13 * np.max(np.abs(want))


def test_grid_operator_evaluates_one_kernel_per_mirror_pair(monkeypatch):
    # table[m, j, l] = table[m, l, j]^T: only the triples with j <= l off the
    # singular cells reach the kernel, each once
    g, lam = 1.0, 2.0
    Y, h, _ = _dressed_grid(0.5, g, lam, np.array([0.1, 0.45]), np.array([0.3, 0.6]), n=6)
    n1, n2 = 6, Y.shape[0] // 6
    seen = []

    def recording(gamma, lam, X, Xp, cfg=None):
        seen.append((X, Xp))
        return halfplane_kernel_batch(gamma, lam, X, Xp, cfg)

    monkeypatch.setattr(kernel_ops, "halfplane_kernel_batch", recording)
    table = kernel_ops._kernel_triples(g, lam, Y, h)
    X, Xp = (np.concatenate(a) for a in zip(*seen))
    m = np.rint((X[:, 0] - Xp[:, 0]) / h).astype(int)
    j = np.searchsorted(Y[:n2, 1], X[:, 1])
    l = np.searchsorted(Y[:n2, 1], Xp[:, 1])
    assert np.all(j <= l) and not np.any((m == 0) & (j == l))
    assert np.unique((m * n2 + j) * n2 + l).size == X.shape[0] == (2 * n1 - 1) * n2 * (n2 + 1) // 2 - n2
    assert np.array_equal(table, np.swapaxes(np.swapaxes(table, 1, 2), -1, -2))


def test_gauss_legendre_panels_matches_per_panel_rule():
    # one set of edges of each kind in use: uniform (edge_kernel,
    # schur_norm_Tb), geometric (hs_calculus), dyadic (polar patches)
    x, w = leggauss(8)
    for edges in (np.linspace(-3.7, 3.7, 19), np.geomspace(1e-4, 0.5, 13),
                  kernel_ops._base_edges(10)):
        nodes, wts = gauss_legendre_panels(edges, 8)
        pairs = list(zip(edges[:-1], edges[1:]))
        assert np.array_equal(nodes, np.concatenate([0.5 * (a + c) + 0.5 * (c - a) * x
                                                     for a, c in pairs]))
        assert np.array_equal(wts, np.concatenate([0.5 * (c - a) * w for a, c in pairs]))


# ---------------------------------------------------------------------------
# resolvent expansion at low energy
# ---------------------------------------------------------------------------

def test_low_lambda_form_at_center():
    H = np.diag([0.3, -0.7, 1.2])
    R = np.linalg.inv(H - 1j * np.eye(3))
    out, bound = low_lambda_form(R, SpectralPoint(0.0, 1.0))
    assert np.max(np.abs(out - R)) == 0.0 and bound == 0.0
    with pytest.raises(ValueError, match="square"):
        low_lambda_form(np.ones((2, 3)), SpectralPoint(0.0, 1.0))


def test_low_lambda_form_matches_direct_inverse():
    fib = discretize_fiber(1.0, 0.0, 1.0, h=1.0 / 64, T_dom=6.0)
    H = fib.dense()
    I = np.eye(H.shape[0])
    R = np.linalg.inv(H - 1j * I)
    z = SpectralPoint(0.01, 1.005)
    out, bound = low_lambda_form(R, z)
    err = np.linalg.norm(out - np.linalg.inv(H - z.z * I), 2)
    assert err <= bound
    assert err < 1e-10
    # remainder shrinks like |z - i|^6: doubling the offset scales it by ~64
    z2 = SpectralPoint(0.02, 1.01)
    err2 = np.linalg.norm(
        low_lambda_form(R, z2)[0] - np.linalg.inv(H - z2.z * I), 2
    )
    assert 32.0 < err2 / err < 128.0


# ---------------------------------------------------------------------------
# decay contracts on a discretized testbed
# ---------------------------------------------------------------------------

def test_resolvent_off_diagonal_bound_on_testbed():
    # |<x| (H - u - iv)^{-1} |x'>| <= d2 / |v| * exp(-d1 |v| |x - x'|) on a
    # 2d stencil, with one d1 > 0 shared across v (rates fitted per shell
    # maximum; the staggered scheme zeroes one sublattice exactly)
    H, coords = dirac_stencil_2d(0.25, 28, 28, b=0.0, x2_offset=-3.5)
    N = H.shape[0]
    src = np.argmin(np.hypot(coords[:, 0] + 1.5, coords[:, 1] + 1.5))
    d = np.hypot(coords[:, 0] - coords[src, 0], coords[:, 1] - coords[src, 1])
    edges = np.arange(0.5, 4.01, 0.5)
    rates, samples = {}, []
    for v in (0.5, 1.0, 2.0):
        G = np.linalg.solve(H - 1j * v * np.eye(N), np.eye(N)[:, 2 * src])
        mag = np.abs(G[0::2]) + np.abs(G[1::2])
        cen, mx = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (d >= lo) & (d < hi)
            cen.append(d[sel][np.argmax(mag[sel])])
            mx.append(mag[sel].max())
        rates[v] = -np.polyfit(cen, np.log(mx), 1)[0]
        samples += [(v, c, m) for c, m in zip(cen, mx)]
        assert rates[v] > 0.3 * v
    d1 = min(r / v for v, r in rates.items())
    assert d1 >= 0.5
    d2 = max(m * v * np.exp(d1 * v * c) for v, c, m in samples)
    assert d2 < 5.0


def test_composition_envelope_log_growth():
    # scalar model of the composed-kernel envelope: two inverse-distance
    # factors with exponential weight grow like log(2 + 1/d) as d -> 0
    def model_integral(d, n=400, L=8.0, sub=6):
        h = 2 * L / n
        c = -L + h * (np.arange(n) + 0.5)
        Y1, Y2 = np.meshgrid(c, c, indexing="ij")
        x1, x2 = -d / 2, d / 2
        r1 = np.hypot(Y1 - x1, Y2)
        r2 = np.hypot(Y1 - x2, Y2)
        f = np.exp(-(r1 + r2)) / (r1 * r2)
        near = np.minimum(r1, r2) < 3 * h
        f[near] = 0.0
        val = f.sum() * h * h
        off = (np.arange(sub) + 0.5) / sub - 0.5
        o1, o2 = np.meshgrid(off * h, off * h, indexing="ij")
        for i, j in zip(*np.nonzero(near)):
            y1, y2 = Y1[i, j] + o1, Y2[i, j] + o2
            r1 = np.hypot(y1 - x1, y2)
            r2 = np.hypot(y1 - x2, y2)
            val += (np.exp(-(r1 + r2)) / np.maximum(r1 * r2, 1e-12)).mean() * h * h
        return val

    ds = np.geomspace(0.02, 1.0, 7)
    I = np.array([model_integral(d) for d in ds])
    assert np.all(np.diff(I) < 0.0)            # grows as d shrinks
    ratio = I / np.log(2.0 + 1.0 / ds)
    assert ratio.max() < 7.0                   # bounded by the log envelope
    # the ratio flattens toward small d: log growth, not a power law
    assert ratio[0] / ratio[1] < 1.02

import numpy as np
import pytest

from dirac_edge import magnetic
from dirac_edge.core import gauss_legendre_panels
from dirac_edge.edge_kernel import ContourConfig, fit_decay, halfplane_kernel_batch
from dirac_edge.kernel_ops import PotentialField
from dirac_edge.magnetic import (
    _mirror_angles,
    _norm_2x2,
    S_b_kernel,
    T_b_kernel,
    dirac_stencil_2d,
    gauge_phase,
    magnetic_resolvent,
    magnetic_translation_matrix,
    schur_norm_Tb,
    select_lambda0,
    transverse_gauge,
    transverse_gauge_residual,
)

RNG = np.random.default_rng(1217)
REFINED = ContourConfig()


def test_gauge_phase_values():
    x = np.array([0.4, 1.1])
    assert gauge_phase(x, x) == 0.0
    assert gauge_phase([0.0, 1.0], [2.0, 3.0]) == 4.0
    X = RNG.normal(size=(30, 2))
    Y = RNG.normal(size=(30, 2))
    assert np.max(np.abs(gauge_phase(X, Y) + gauge_phase(Y, X))) < 1e-14


def test_transverse_gauge_residual_matches_a_t():
    for _ in range(10):
        x, xp = RNG.normal(size=2), RNG.normal(size=2)
        res = transverse_gauge_residual(x, xp)
        assert np.allclose(res, transverse_gauge(x - xp), atol=1e-12)


def test_S_b_is_phase_dressed_kernel():
    x, xp = np.array([0.3, 1.0]), np.array([1.1, 0.4])
    K = halfplane_kernel_batch(1.0, 2.0, x, xp, REFINED)
    S = S_b_kernel(0.8, None, 1.0, 2.0, x, xp)
    # dressing by a unit-modulus phase: entrywise moduli unchanged
    assert np.max(np.abs(np.abs(S) - np.abs(K))) < 1e-15
    assert np.max(np.abs(S_b_kernel(0.0, None, 1.0, 2.0, x, xp) - K)) < 1e-15


def test_T_b_entrywise_bound():
    # |T_b(x,x')| = (b/2)|x-x'| |K(x,x')| entrywise after the sigma row swap
    x, xp = np.array([0.3, 1.0]), np.array([1.1, 0.4])
    b = 0.8
    K = halfplane_kernel_batch(1.0, 2.0, x, xp, REFINED)
    T = T_b_kernel(b, None, 1.0, 2.0, x, xp)
    d = np.linalg.norm(x - xp)
    assert np.max(np.abs(T) - (b / 2.0) * d * np.abs(K[::-1, :])) < 1e-14
    assert np.max(np.abs(T_b_kernel(b, None, 1.0, 2.0, x, x))) == 0.0
    assert np.max(np.abs(T_b_kernel(0.0, None, 1.0, 2.0, x, xp))) == 0.0


def test_T_b_batch_is_zero_on_coincident_pairs():
    # in a batch the pairs with x = x' give zero and the others their own
    # value, up to the node rule the batch shares
    X = np.array([[0.3, 1.0], [1.1, 0.4], [0.7, 0.2]])
    xp = np.array([1.1, 0.4])
    T = T_b_kernel(0.8, None, 1.0, 2.0, X, xp)
    assert T.shape == (3, 2, 2)
    assert np.max(np.abs(T[1])) == 0.0
    for i in (0, 2):
        single = T_b_kernel(0.8, None, 1.0, 2.0, X[i], xp)
        assert np.max(np.abs(T[i] - single)) <= 1e-14 * np.max(np.abs(single))


def test_magnetic_kernels_refuse_a_potential():
    W = PotentialField.constant(w3=0.2)
    x, xp = [0.3, 1.0], [1.1, 0.4]
    for call in (S_b_kernel, T_b_kernel):
        with pytest.raises(NotImplementedError):
            call(0.8, W, 1.0, 2.0, x, xp)
    with pytest.raises(NotImplementedError):
        magnetic_resolvent(0.5, W, 1.0, 8.0, 0, x, xp)
    # a zero potential is the same as none
    zero = PotentialField.constant()
    assert np.array_equal(S_b_kernel(0.8, zero, 1.0, 2.0, x, xp),
                          S_b_kernel(0.8, None, 1.0, 2.0, x, xp))


def test_schur_estimate_scaling():
    s4 = schur_norm_Tb(0.5, None, 1.0, 4.0)
    s8 = schur_norm_Tb(0.5, None, 1.0, 8.0)
    assert 3.5 <= s4 / s8 <= 4.5          # ~ 1/lambda^2
    sb = schur_norm_Tb(1.0, None, 1.0, 4.0)
    assert 1.9 <= sb / s4 <= 2.1          # linear in b


def test_schur_estimate_input_handling():
    assert schur_norm_Tb(0.0, None, 1.0, 4.0) == 0.0
    # b = 0 needs no lambda >= 1
    assert magnetic._schur_estimates([(0.0, 0.5)], None, 1.0) == [0.0]
    with pytest.raises(ValueError):
        schur_norm_Tb(0.5, None, 1.0, 0.5)
    # a negative or non-finite field, or a non-finite lambda, is refused
    for b, lam in ((-0.5, 4.0), (np.nan, 4.0), (np.inf, 4.0), (0.5, np.nan),
                   (0.5, np.inf), (0.0, np.nan)):
        with pytest.raises(ValueError):
            schur_norm_Tb(b, None, 1.0, lam)
    with pytest.raises(ValueError):
        select_lambda0(-3.0, None, 1.0, [1.0, 2.0])
    # every magnetic entry point applies the same field check
    x, xp = [0.3, 1.0], [1.1, 0.4]
    for call in (S_b_kernel, T_b_kernel):
        for b in (-0.5, np.nan):
            with pytest.raises(ValueError, match="flux density"):
                call(b, None, 1.0, 2.0, x, xp)
    with pytest.raises(ValueError, match="flux density"):
        magnetic_resolvent(-0.5, None, 1.0, 8.0, 0, x, xp)


def _shell_norms(gamma, lam, x, r_lo, n_angular=24):
    """Row and column norms |K(x, y)| and |K(y, x)|, each (nodes, angles), on
    the shell r_lo <= |y - x| <= r_lo + 6/lam of the Schur estimate (0 where
    y2 <= 1e-9/lam), with the shell's radial nodes and weights."""
    phis = (np.arange(n_angular) + 0.5) * (2 * np.pi / n_angular)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    nodes, wts = gauss_legendre_panels(np.linspace(r_lo, r_lo + 6.0 / lam, 7), 8)
    pts = x + nodes[:, None, None] * dirs
    ok = pts[..., 1] > 1e-9 / lam
    Xrep = np.broadcast_to(x, pts[ok].shape)
    row, col = np.zeros(ok.shape), np.zeros(ok.shape)
    row[ok] = np.linalg.norm(halfplane_kernel_batch(gamma, lam, Xrep, pts[ok]), ord=2, axis=(1, 2))
    col[ok] = np.linalg.norm(halfplane_kernel_batch(gamma, lam, pts[ok], Xrep), ord=2, axis=(1, 2))
    return row, col, nodes, wts


def test_schur_mirror_angles_give_column_norms():
    # one probe on x1 = 0 and one shell that meets the boundary: the row norm
    # |K(x, y)| at the mirror angle equals the column norm |K(y, x)|
    row, col, _, _ = _shell_norms(1.0, 8.0, np.array([0.0, 0.2 / 8.0]), 6.0 / 8.0)
    assert np.any(row == 0.0)
    assert np.max(np.abs(row[:, _mirror_angles(24)] - col)) <= 1e-13 * np.max(col)
    assert np.max(np.abs(row - col)) > 1e-3 * np.max(col)   # the pairing matters


def test_closed_form_2x2_norm_matches_svd():
    # the closed-form operator norm of the Schur envelope against the SVD
    # norm: seeded random blocks, zero, rank-1 and scaled unitary blocks
    # (two equal singular values, where |M|_F^4 - 4 |det M|^2 cancels)
    rng = np.random.default_rng(5)
    n = 2000
    M = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    Q, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    scale = np.exp(rng.uniform(-20, 20, size=(n, 1, 1)))
    for batch in (M, u[:, :, None] * v[:, None, :].conj(), scale * Q):
        svd = np.linalg.norm(batch, ord=2, axis=(1, 2))
        assert np.max(np.abs(_norm_2x2(batch) - svd) / svd) <= 1e-14
    assert np.array_equal(_norm_2x2(np.zeros((3, 2, 2), dtype=complex)), np.zeros(3))


def _schur_by_rows_and_columns(b, gamma, lam, tol=1e-3):
    """The Schur estimate summed at (b, lam) itself, with the row and the
    column kernel both evaluated."""
    best = 0.0
    for t in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0):
        x = np.array([0.0, t / lam])
        prev, total, r_lo = None, 0.0, 0.0
        while prev is None or abs(total - prev) >= tol * total:
            prev = total
            row, col, nodes, wts = _shell_norms(gamma, lam, x, r_lo)
            r = nodes[:, None]
            total += np.sum(wts[:, None] * (b * r / 2.0) * np.maximum(row, col) * r) * (2 * np.pi / 24)
            r_lo += 6.0 / lam
        best = max(best, total)
    return best


def test_schur_estimate_is_exactly_b_over_lambda_squared():
    scaled = [lam**2 * schur_norm_Tb(b, None, 1.0, lam) / b
              for b in (0.25, 1.0) for lam in (1.0, 4.0, 8.0)]
    assert np.ptp(scaled) <= 1e-12 * scaled[0]
    # and the scaled value is the estimate summed at (b, lam) itself
    for b, lam in ((0.5, 8.0), (0.25, 3.0)):
        direct = _schur_by_rows_and_columns(b, 1.0, lam)
        assert abs(schur_norm_Tb(b, None, 1.0, lam) - direct) <= 1e-12 * direct


def test_schur_sweeps_integrate_once_per_gamma(monkeypatch):
    calls = []
    constant = magnetic._schur_constant
    monkeypatch.setattr(magnetic, "_schur_constant",
                        lambda *a, **kw: calls.append(a) or constant(*a, **kw))
    assert select_lambda0(0.5, None, 1.0, [4.0, 1.0, 2.0]) == 2.0
    estimates = magnetic._schur_estimates([(b, lam) for b in (0.25, 1.0) for lam in (2.0, 8.0)],
                                          None, 1.0)
    # every candidate is still checked, and b = 0 needs no integral
    with pytest.raises(ValueError, match="lambda must be >= 1"):
        magnetic._schur_estimates([(0.5, 2.0), (0.5, 0.5)], None, 1.0)
    assert magnetic._schur_estimates([(0.0, 0.5)], None, 1.0) == [0.0]
    assert len(calls) == 2
    assert estimates == [schur_norm_Tb(b, None, 1.0, lam) for b in (0.25, 1.0) for lam in (2.0, 8.0)]


def test_select_lambda0():
    assert select_lambda0(0.5, None, 1.0, [1.0, 2.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        select_lambda0(2.0, None, 1.0, [1.0])


def _interior_rows(n1, n2, margin=1):
    idx = np.arange(n1 * n2)
    ii, jj = idx // n2, idx % n2
    sites = idx[
        (ii >= margin) & (ii < n1 - margin) & (jj >= margin) & (jj < n2 - margin)
    ]
    return np.sort(np.concatenate([2 * sites, 2 * sites + 1]))


def test_gauge_covariance_stencil_identity():
    # conjugating the Landau-gauge stencil by e^{i b phi(.,x')} yields the
    # transverse-gauge stencil centered at x', exactly, on interior rows
    h, n1, n2, b = 0.25, 12, 12, 0.6
    xp = np.array([0.1, -0.3])
    Hb, coords = dirac_stencil_2d(h, n1, n2, b=b, gauge="landau", x2_offset=-1.5)
    Ht, _ = dirac_stencil_2d(
        h, n1, n2, b=b, gauge="transverse", xprime=xp, x2_offset=-1.5
    )
    P = np.diag(np.repeat(np.exp(1j * b * gauge_phase(coords, xp)), 2))
    rows = _interior_rows(n1, n2)
    resid = (Hb @ P - P @ Ht)[rows]
    assert np.max(np.abs(resid)) < 1e-13


def test_magnetic_translation_commutes_with_stencil():
    h, n1, n2, b = 0.25, 12, 12, 0.6
    ell = np.array([1.0, 0.5])
    H, coords = dirac_stencil_2d(h, n1, n2, b=b, gauge="landau", x2_offset=-1.5)
    U = magnetic_translation_matrix(coords, h, n1, n2, ell, b)
    margin = 1 + int(round(max(abs(ell)) / h))
    rows = _interior_rows(n1, n2, margin=margin)
    comm = (H @ U - U @ H)[np.ix_(rows, rows)]
    assert np.max(np.abs(comm)) < 1e-13
    with pytest.raises(ValueError, match="multiple of the grid step"):
        magnetic_translation_matrix(coords, h, n1, n2, [0.3, 0.0], b)


def test_magnetic_resolvent_order0_is_S_b():
    x, xp = np.array([0.2, 0.6]), np.array([0.5, 0.9])
    val, tail = magnetic_resolvent(0.5, None, 1.0, 8.0, 0, x, xp)
    assert np.array_equal(val, S_b_kernel(0.5, None, 1.0, 8.0, x, xp))
    assert tail > 0.0
    # a 5-point batch is one S_b call; each point agrees with its own
    # refined value up to the shared node rule
    X = x + 1e-3 * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    vals, tail_X = magnetic_resolvent(0.5, None, 1.0, 8.0, 0, X, xp)
    assert vals.shape == (5, 2, 2) and tail_X == tail
    assert np.array_equal(vals, S_b_kernel(0.5, None, 1.0, 8.0, X, xp))
    for i in range(5):
        single = S_b_kernel(0.5, None, 1.0, 8.0, X[i], xp)
        assert np.max(np.abs(vals[i] - single)) <= 1e-14 * np.max(np.abs(single))


def test_magnetic_resolvent_series_refusal():
    with pytest.raises(ValueError, match="not certified"):
        magnetic_resolvent(2.0, None, 1.0, 1.0, 2, [0.2, 0.6], [0.5, 0.9])


def test_magnetic_resolvent_finite_difference_residual():
    # apply the discrete D_b - i lam (Landau gauge) to the assembled column;
    # away from the source the result must be small on the kernel scale
    b, lam = 0.5, 8.0
    xp = np.array([0.3, 0.6])
    x0 = np.array([0.1, 0.45])
    hfd = 1e-3
    X = np.array(
        [x0, x0 + [hfd, 0], x0 - [hfd, 0], x0 + [0, hfd], x0 - [0, hfd]]
    )
    vals, tail = magnetic_resolvent(b, None, 1.0, lam, 3, X, xp)
    K = vals[0]
    d1 = (vals[1] - vals[2]) / (2 * hfd)
    d2 = (vals[3] - vals[4]) / (2 * hfd)
    resid = np.empty((2, 2), dtype=complex)
    resid[0, :] = -1j * d1[1, :] - d2[1, :] + b * x0[1] * K[1, :] - 1j * lam * K[0, :]
    resid[1, :] = -1j * d1[0, :] + d2[0, :] + b * x0[1] * K[0, :] - 1j * lam * K[1, :]
    rel = np.max(np.abs(resid)) / (lam * np.max(np.abs(K)))
    assert rel < 1e-2
    assert tail < 1e-8


def test_magnetic_resolvent_adjoint_consistency():
    # the i*lam and mirror -i*lam assemblies differ only by series reordering,
    # second order in T: well below the first-order correction itself
    b, lam = 0.5, 8.0
    x0, xp = np.array([0.1, 0.45]), np.array([0.3, 0.6])
    v_0, _ = magnetic_resolvent(b, None, 1.0, lam, 0, x0, xp)
    v_f, _ = magnetic_resolvent(b, None, 1.0, lam, 2, x0, xp)
    v_a, _ = magnetic_resolvent(b, None, 1.0, lam, 2, x0, xp, adjoint=True)
    diff = np.max(np.abs(v_f - v_a))
    corr = np.max(np.abs(v_f - v_0))
    assert diff < 0.5 * corr
    assert diff < 1e-3


def test_magnetic_kernel_decay_shape():
    # fitted decay of the dressed kernel: positive rate, prefactor within 10x
    # of the zero-field fit (moderate b, large lambda)
    b, lam, g = 0.5, 4.0, 1.0
    xp = np.array([0.2, 0.6])
    u = np.array([0.8, 0.6])
    rs = np.geomspace(0.3, 3.2, 22)
    X = xp[None, :] + rs[:, None] * u[None, :]
    vals, _ = magnetic_resolvent(b, None, g, lam, 1, X, xp)
    fit_b = fit_decay([(x, xp, m) for x, m in zip(X, vals)], lam)
    fit_0 = fit_decay(
        [(x, xp, halfplane_kernel_batch(g, lam, x, xp, REFINED)) for x in X], lam
    )
    assert fit_b.c_hat > 0.0
    assert 0.1 < fit_b.C_hat / fit_0.C_hat < 10.0

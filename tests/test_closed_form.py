import mpmath as mp
import numpy as np
import pytest

from dirac_edge.closed_form import (
    _K_PIECES,
    _K_SERIES_MAX,
    _bessel_k01,
    alpha,
    apply_fiber_resolvent,
    beta_coeffs,
    bulk_plane_kernel,
    fiber_kernel,
    whole_line_kernel,
)
from dirac_edge.core import (
    SIGMA_1,
    BoundaryParam,
    DiagonalKernelError,
    bracket_xi,
    dagger,
)

RNG = np.random.default_rng(20240817)


def test_alpha_modulus_and_duality():
    xi = np.concatenate([np.linspace(-30, 30, 301), RNG.normal(0, 5, 200)])
    for g in (0.05, 0.3, 1.0, 2.7, 40.0):
        s = bracket_xi(xi) + xi
        mod = np.sqrt((g**2 + s**2) / (1.0 + g**2 * s**2))
        assert np.max(np.abs(np.abs(alpha(g, xi)) - mod)) < 1e-13
        # gamma <-> 1/gamma duality: the two reflection factors are inverse
        assert np.max(np.abs(alpha(g, xi) * alpha(1.0 / g, xi) - 1.0)) < 1e-12


def test_alpha_zigzag_limits():
    # gamma -> 0 and gamma -> inf drive alpha to +/- i times s^{+/-1}
    xi = np.linspace(-3, 3, 41)
    s = bracket_xi(xi) + xi
    a_small = alpha(1e-9, xi)
    assert np.max(np.abs(a_small - 1j * s)) < 1e-6
    a_big = alpha(1e9, xi)
    assert np.max(np.abs(a_big - 1.0 / (1j * s))) < 1e-6


def test_alpha_gamma_one_is_constant():
    xi = np.linspace(-20, 20, 101)
    assert np.max(np.abs(alpha(1.0, xi) - 1.0)) < 1e-14


def test_beta_coeffs_ratio_and_alpha_consistency():
    for _ in range(30):
        g = float(np.exp(RNG.uniform(-3, 3)))
        xi = float(RNG.normal(0, 3))
        b1, b2 = beta_coeffs(g, xi)
        assert abs(b1 + g * b2) < 1e-14
        # alpha is recovered from the matching coefficients
        s = float(bracket_xi(xi)) + xi
        assert abs(alpha(g, xi) - (g + 1j * s) * (-b2)) < 1e-13


def test_whole_line_kernel_values_and_jump():
    xi, z = 0.7, 1.3
    br = float(np.sqrt(1 + xi**2))
    K = whole_line_kernel(xi, z)
    pref = np.exp(-br * z) / (2 * br)
    assert abs(K[0, 0] - 1j * pref) < 1e-15
    assert abs(K[0, 1] - pref * (xi + br)) < 1e-15
    assert abs(K[1, 0] - pref * (xi - br)) < 1e-15
    # jump across z = 0 is the antisymmetric unit matrix, independent of xi
    h = 1e-9
    jump = whole_line_kernel(xi, h) - whole_line_kernel(xi, -h)
    assert np.max(np.abs(jump - np.array([[0, 1.0], [-1.0, 0]]))) < 1e-8
    with pytest.raises(DiagonalKernelError):
        whole_line_kernel(xi, 0.0)


def test_whole_line_kernel_solves_ode():
    # rows of K(z) must satisfy the fiber equation (D_xi - i) K = 0 away from 0
    xi = -1.1
    h = 1e-5
    for z0 in (0.4, -0.9, 2.2):
        Kp = whole_line_kernel(xi, z0 + h)
        Km = whole_line_kernel(xi, z0 - h)
        K0 = whole_line_kernel(xi, z0)
        dK = (Kp - Km) / (2 * h)
        # D = [[0, xi - d/dz], [xi + d/dz, 0]] acting on columns
        row0 = xi * K0[1, :] - dK[1, :]
        row1 = xi * K0[0, :] + dK[0, :]
        resid = np.array([row0 - 1j * K0[0, :], row1 - 1j * K0[1, :]])
        assert np.max(np.abs(resid)) < 1e-9


def test_fiber_kernel_boundary_condition():
    # second row equals gamma times first row at t = 0, for all t' > 0
    for _ in range(40):
        g = float(np.exp(RNG.uniform(-3, 3)))
        xi = float(RNG.normal(0, 4))
        tp = float(RNG.uniform(0.05, 4.0))
        K = fiber_kernel(g, xi, 0.0, tp)
        assert np.max(np.abs(K[1, :] - g * K[0, :])) < 1e-12 * max(1.0, np.max(np.abs(K)))


def test_fiber_kernel_symmetry():
    # K(t, t')^dagger = K(t', t) with the energy i flipped, which for this
    # kernel reads K(t', t) = -dagger(K(t, t')) on the off-diagonal structure;
    # check the weaker exact identity K(t,t') - K(t',t)^T has the sigma_1 form
    g, xi = 0.8, 1.4
    K1 = fiber_kernel(g, xi, 0.9, 0.3)
    K2 = fiber_kernel(g, xi, 0.3, 0.9)
    # direct parts transpose into each other; reflected parts are symmetric in
    # (t, t'), so the difference is the direct-part sign flip only
    br = float(bracket_xi(xi))
    d = K1 - K2
    expected = np.exp(-br * 0.6) * np.array([[0, 1.0], [-1.0, 0]])
    assert np.max(np.abs(d - expected)) < 1e-13


def test_fiber_kernel_coincidence_rejected():
    with pytest.raises(DiagonalKernelError):
        fiber_kernel(1.0, 0.0, 0.7, 0.7)


def test_apply_fiber_resolvent_inverts_operator():
    # (D_gamma(xi) - i) applied to K*psi returns psi, checked by finite
    # differences on a smooth compactly supported spinor
    g, xi = 1.7, -0.6
    h = 0.005
    t = h * np.arange(int(12.0 / h) + 1)
    bump = np.exp(-((t - 4.0) ** 2) / 0.5)
    psi = np.stack([bump * (1 + 0.3j), bump * t * 0.2], axis=1)
    phi = apply_fiber_resolvent(g, xi, psi, h)
    # centered derivative of phi
    dphi = np.gradient(phi, h, axis=0, edge_order=2)
    out = np.empty_like(phi)
    out[:, 0] = xi * phi[:, 1] - dphi[:, 1]
    out[:, 1] = xi * phi[:, 0] + dphi[:, 0]
    resid = out - 1j * phi - psi
    interior = slice(5, -5)
    assert np.max(np.abs(resid[interior])) < 5e-4
    # boundary condition of the image
    assert abs(phi[0, 1] - g * phi[0, 0]) < 5e-4


def _dense_fiber_resolvent(gamma, xi, psi, h):
    """Reference: the same trapezoid sums with n x n kernel matrices, O(n^2)."""
    n = psi.shape[0]
    t = h * np.arange(n)
    br = float(bracket_xi(xi))

    def kernel(z):
        s = np.where(z >= 0, 1.0, -1.0)
        pref = np.exp(-br * np.abs(z)) / (2.0 * br)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = 1j * pref
        out[..., 0, 1] = pref * (xi + br * s)
        out[..., 1, 0] = pref * (xi - br * s)
        return out

    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    refl = kernel(t[:, None] + t[None, :])
    phi = alpha(gamma, xi) * np.einsum("ijab,jb,j->ia", refl, psi @ SIGMA_1.T, w)
    direct = kernel(t[:, None] - t[None, :])
    direct[np.arange(n), np.arange(n)] = np.array([[1j, xi], [xi, 1j]]) / (2.0 * br)
    return phi + np.einsum("ijab,jb,j->ia", direct, psi, w)


def test_apply_fiber_resolvent_matches_dense_sum():
    h = 0.01
    t = h * np.arange(200)
    psi = np.stack([np.exp(-((t - 1.0) ** 2) / 0.1) * (1 + 0.3j),
                    RNG.normal(size=t.size) + 1j * RNG.normal(size=t.size)], axis=1)
    for g in (0.5, 1.7):
        for xi in (-2.0, 0.0, 2.0):
            ref = _dense_fiber_resolvent(g, xi, psi, h)
            phi = apply_fiber_resolvent(g, xi, psi, h)
            assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_apply_fiber_resolvent_rejects_coarse_grid():
    psi = np.zeros((10, 2), dtype=complex)
    with pytest.raises(ValueError):
        apply_fiber_resolvent(1.0, 0.0, psi, 0.5)


@pytest.mark.parametrize("lam,dx", [(1.0, (0.7, 0.4)), (2.5, (-0.3, 0.8)), (0.5, (1.5, -2.0))])
def test_bulk_plane_kernel_matches_fourier_inversion(lam, dx):
    r = float(np.hypot(*dx))
    n1, n2 = dx[0] / r, dx[1] / r
    mp.mp.dps = 30
    diag_int = mp.quadosc(
        lambda k: k * mp.besselj(0, k * r) / (k**2 + lam**2),
        [0, mp.inf],
        zeros=lambda n: mp.besseljzero(0, int(n)) / r,
    )
    off_int = mp.quadosc(
        lambda k: k**2 * mp.besselj(1, k * r) / (k**2 + lam**2),
        [0, mp.inf],
        zeros=lambda n: mp.besseljzero(1, int(n)) / r,
    )
    diag = 1j * lam / (2 * np.pi) * float(diag_int)
    off = 1j / (2 * np.pi) * float(off_int)
    oracle = np.array(
        [[diag, off * (n1 - 1j * n2)], [off * (n1 + 1j * n2), diag]], dtype=complex
    )
    K = bulk_plane_kernel(lam, np.array(dx))
    assert np.max(np.abs(K - oracle)) < 1e-10


def test_bulk_plane_kernel_energy_sign_conjugation():
    dx = np.array([0.6, -1.1])
    Kp = bulk_plane_kernel(1.7, dx)
    Km = bulk_plane_kernel(1.7, dx, energy_sign=-1)
    # (D + i lam)^{-1}(x, x') = (D - i lam)^{-1}(x', x)^dagger, i.e. the kernel
    # at the conjugate energy is the adjoint kernel with arguments swapped
    Kp_swap = bulk_plane_kernel(1.7, -dx)
    assert np.max(np.abs(Km - dagger(Kp_swap))) < 1e-14
    assert np.max(np.abs(Km[0, 0] + Kp[0, 0])) < 1e-15


def test_bulk_plane_kernel_batch_shapes():
    dx = RNG.normal(size=(7, 3, 2))
    K = bulk_plane_kernel(1.2, dx)
    assert K.shape == (7, 3, 2, 2)
    one = bulk_plane_kernel(1.2, dx[2, 1])
    assert np.max(np.abs(K[2, 1] - one)) < 1e-15


def test_bulk_plane_kernel_rejects_coincidence_and_bad_lam():
    with pytest.raises(DiagonalKernelError):
        bulk_plane_kernel(1.0, np.zeros(2))
    with pytest.raises(ValueError):
        bulk_plane_kernel(-1.0, np.array([1.0, 0.0]))


# _bessel_k01's branch switch, x = 2, and the edges x = _K_PIECES / j of
# its polynomial pieces, each with its two floating-point neighbours
_K_EDGES = np.concatenate([[_K_SERIES_MAX, 2.0], _K_PIECES / np.arange(1.0, _K_PIECES + 1)])
_K_EDGES = np.concatenate([_K_EDGES, np.nextafter(_K_EDGES, 0.0), np.nextafter(_K_EDGES, np.inf)])


def test_bessel_k01_matches_scipy():
    from scipy.special import k0, k1

    # the normal range: e^-x stays a normal float up to x = 708
    x = np.concatenate([np.geomspace(1e-8, 700.0, 3000), RNG.uniform(0.5, 20.0, 2000), _K_EDGES])
    K0, K1 = _bessel_k01(x)
    assert np.max(np.abs(K0 / k0(x) - 1.0)) <= 5e-15
    assert np.max(np.abs(K1 / k1(x) - 1.0)) <= 5e-15


def test_bessel_k01_matches_mpmath():
    mp.mp.dps = 30
    x = np.concatenate([np.geomspace(1e-6, 600.0, 60), _K_EDGES])
    K0, K1 = _bessel_k01(x)
    for xi, a0, a1 in zip(x, K0, K1):
        ref0, ref1 = (float(mp.besselk(n, mp.mpf(float(xi)))) for n in (0, 1))
        assert abs(a0 / ref0 - 1.0) <= 2e-15 and abs(a1 / ref1 - 1.0) <= 2e-15, xi


def test_bessel_k01_shapes_and_underflow():
    K0, K1 = _bessel_k01(2.0)
    assert np.ndim(K0) == np.ndim(K1) == 0
    x = np.geomspace(0.1, 50.0, 24).reshape(2, 3, 4)
    K0, K1 = _bessel_k01(x)
    assert K0.shape == K1.shape == (2, 3, 4)
    flat = _bessel_k01(x.ravel())
    assert np.array_equal(K0.ravel(), flat[0]) and np.array_equal(K1.ravel(), flat[1])
    K0, K1 = _bessel_k01(np.array([750.0, 1e4, np.inf]))
    assert np.all(K0 == 0.0) and np.all(K1 == 0.0)


def test_bulk_plane_kernel_rejects_one_coincident_point_in_a_batch():
    dx = RNG.normal(size=(5, 2))
    dx[3] = 0.0
    with pytest.raises(DiagonalKernelError):
        bulk_plane_kernel(1.0, dx)

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dirac_edge import fiber
from dirac_edge.core import QuadratureError, gauss_legendre_panels
from dirac_edge.fiber import discretize_fiber, edge_bulk_diagonal_gap
from dirac_edge.hs_calculus import (
    HsQuadrature,
    SchwartzFunction,
    _hs_sum,
    _interp_rows,
    _real_tridiagonal,
    almost_analytic_eval,
    dbar_eval,
    fiber_F_kernel,
    hs_apply_matrix,
)

RNG = np.random.default_rng(907)


def _random_hermitian(n):
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


def _zero_function():
    z = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return SchwartzFunction([z] * 7, (-1.0, 1.0))


def test_almost_analytic_basic_values():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    assert abs(almost_analytic_eval(F, 4, 1.3, 0.0) - F(1.3)) < 1e-15
    assert almost_analytic_eval(F, 4, 1.3, 1.2) == 0.0
    assert almost_analytic_eval(F, 4, 0.7, -1.0) == 0.0


def test_dbar_vanishing_order():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    vs = np.geomspace(1e-3, 1e-2, 10)
    for N in (2, 3, 4):
        mags = np.abs(dbar_eval(F, N, 0.7, vs))
        slope = np.polyfit(np.log(vs), np.log(mags), 1)[0]
        assert slope >= N - 0.1


def test_derivative_order_unavailable():
    F = SchwartzFunction.gaussian(0.0, 1.0, n_derivs=3)
    with pytest.raises(ValueError, match="derivative order"):
        dbar_eval(F, 3, 0.0, 0.1)


def test_plateau_window_shape():
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    assert F(0.0) == 1.0
    assert F(-1.3) == 0.0 and F(1.3) == 0.0
    assert 0.0 < F(0.7) < 1.0
    # derivative consistent with finite differences inside the ramp
    d1 = F.derivative(1)(0.7)
    fd = (F(0.7 + 1e-6) - F(0.7 - 1e-6)) / 2e-6
    assert abs(d1 - fd) < 1e-6
    with pytest.raises(ValueError):
        SchwartzFunction.plateau(0.5, -0.5, 1.0, 2.0)


def test_hs_diagonal_self_calibration():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    H = np.diag([1.0, 2.0])
    out = hs_apply_matrix(F, 4, H)
    exact = np.diag(F(np.array([1.0, 2.0])))
    assert np.max(np.abs(out - exact)) < 1e-6
    assert abs(hs_apply_matrix(F, 4, np.array([[0.7]]))[0, 0] - F(0.7)) < 1e-6


def test_hs_zero_function():
    out = hs_apply_matrix(_zero_function(), 4, np.diag([0.3, -0.4]))
    assert np.max(np.abs(out)) == 0.0


def test_hs_testbed_accuracy_and_hermiticity():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    H = _random_hermitian(50)
    E, V = np.linalg.eigh(H)
    exact = (V * F(E)[None, :]) @ V.conj().T
    out = hs_apply_matrix(F, 4, H)
    assert np.max(np.abs(out - exact)) < 1e-6
    assert np.max(np.abs(out - out.conj().T)) < 1e-10
    ev = np.sort(np.linalg.eigvalsh((out + out.conj().T) / 2.0))
    assert np.max(np.abs(ev - np.sort(F(E)))) < 1e-6


def test_hs_order_improves_error():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    H = _random_hermitian(50)
    E, V = np.linalg.eigh(H)
    exact = (V * F(E)[None, :]) @ V.conj().T
    out3 = hs_apply_matrix(F, 3, H)
    out5 = hs_apply_matrix(F, 5, H)
    assert np.max(np.abs(out5 - exact)) < np.max(np.abs(out3 - exact))
    assert np.max(np.abs(out3 - out5)) < 1e-5


def test_hs_input_errors():
    F = SchwartzFunction.gaussian(1.0, 0.5)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hs_apply_matrix(F, 4, bad)
    strict = HsQuadrature(u_panels=4, v_nodes=4, tol=1e-13, max_refinements=1)
    with pytest.raises(QuadratureError):
        hs_apply_matrix(F, 4, _random_hermitian(8), quad=strict)


def _hs_sum_per_node(F, N, H, quad, B):
    """Reference: the contour sum with one LAPACK banded solve per node."""
    a, bmax = F.support
    un, uw = gauss_legendre_panels(np.linspace(a - 2.0, bmax + 2.0, quad.u_panels + 1),
                                   quad.u_nodes)
    n_dec = int(np.ceil(np.log2(0.5 / quad.v_min)))
    ve_pos = np.concatenate(
        [np.geomspace(quad.v_min, 0.5, n_dec + 1), np.linspace(0.5, 1.0, 5)[1:]]
    )
    pieces = [gauss_legendre_panels(-ve_pos[::-1], quad.v_nodes),
              gauss_legendre_panels(ve_pos, quad.v_nodes)]
    vn = np.concatenate([p[0] for p in pieces])
    vw = np.concatenate([p[1] for p in pieces])
    U, V = np.meshgrid(un, vn, indexing="ij")
    flatD = (dbar_eval(F, N, U, V) * np.outer(uw, vw)).ravel()
    flatZ = (U + 1j * V).ravel()
    keep = np.abs(flatD) > 1e-14 * np.max(np.abs(flatD))
    T, Q = scipy.linalg.hessenberg(H, calc_q=True)
    ab = np.zeros((3, H.shape[0]), dtype=complex)
    ab[0, 1:] = np.diag(T, 1)
    ab[2, :-1] = np.diag(T, -1)
    # complex right-hand side: solve_banded cannot divide a real one in place
    # by a complex 1 x 1 matrix
    QB = (Q.conj().T @ B).astype(complex)
    acc = np.zeros(QB.shape, dtype=complex)
    for d, z in zip(flatD[keep], flatZ[keep]):
        ab[1] = np.diag(T) - z
        acc += d * scipy.linalg.solve_banded((1, 1), ab, QB)
    return (Q @ acc) / np.pi


def test_batched_hs_sum_matches_per_node_solves():
    # _hs_sum solves the nodes with Im z > 0 of a real tridiagonal; the
    # reference solves every node of the full plane on the complex Hessenberg
    F = SchwartzFunction.gaussian(1.0, 0.5)
    E = np.array([-1.0, 0.3, 0.3 + 1e-6, 0.9, 1.2, 1.5, 2.0, 3.0])
    Q, _ = np.linalg.qr(RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8)))
    for H, levels in (((Q * E) @ Q.conj().T, 2), (np.array([[0.7]]), 2)):
        H = (H + H.conj().T) / 2.0
        # the phase-reduced Hessenberg form: H = Qp T Qp^* with T real
        tri, Qp = _real_tridiagonal(H)
        assert np.max(np.abs((Qp * tri[0]) @ Qp.conj().T
                             + (Qp[:, 1:] * tri[1]) @ Qp[:, :-1].conj().T
                             + (Qp[:, :-1] * tri[1]) @ Qp[:, 1:].conj().T - H)) < 1e-14
        quad = HsQuadrature()
        for _ in range(levels):
            ref = _hs_sum_per_node(F, 4, H, quad, np.eye(H.shape[0]))
            out = Qp @ _hs_sum(F, 4, tri, np.eye(H.shape[0]), quad) @ Qp.conj().T
            assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
            quad = replace(quad, u_panels=2 * quad.u_panels, v_nodes=quad.v_nodes + 2)
    # the fiber route passes the tridiagonal as it is, with no hessenberg
    fib = discretize_fiber(1.0, 0.0, 1.0, T_dom=6.0)
    col = RNG.normal(size=(fib.dim, 2))
    ref = _hs_sum_per_node(F, 4, fib.dense(), HsQuadrature(), col)
    out = _hs_sum(F, 4, (fib.diag, fib.off), col, HsQuadrature())
    assert out.dtype == float
    assert np.max(np.abs(out - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_hs_block_diagonal_matrix():
    # the Hessenberg form of a block-diagonal H has an exactly zero
    # subdiagonal entry: its phase stays 1, with no 0/0
    F = SchwartzFunction.gaussian(1.0, 0.5)
    H = scipy.linalg.block_diag(_random_hermitian(4), np.array([[0.9]]), _random_hermitian(3))
    E, V = np.linalg.eigh(H)
    tri, _ = _real_tridiagonal(H)
    assert np.sum(tri[1] == 0.0) >= 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hs_apply_matrix(F, 4, H)
    assert np.max(np.abs(out - (V * F(E)) @ V.conj().T)) < 1e-6


def _edge_bulk_gap_inline_loop(F, g, b, x2_grid, window=True):
    """Reference: edge_bulk_diagonal_gap with its own copy of the xi-tail loop.
    With window=True each fiber keeps the nodes of discretize_fiber's grid
    that lie in its orbit window (c = -xi/b): [max(0, c - span), max(c, 0) +
    span] on the half line, with the boundary row only when the window starts
    at node 0, and [c - span, c + span] on the whole line; the density is 0
    outside.  With window=False the fibers are discretize_fiber's own."""
    dxi, span = 0.1 * np.sqrt(b), 6.0 / np.sqrt(b)
    xmax = float(np.max(x2_grid))

    def density(fib):
        E, psi = fib.eigensystem(emin=-F.support_max, emax=F.support_max)
        if E.size == 0:
            return np.zeros(x2_grid.size)
        dens = np.einsum("tse,e->t", np.abs(psi) ** 2, np.asarray(F(E))) / fib.h
        return np.interp(x2_grid, fib.grid, dens, left=0.0, right=0.0)

    def cut(fib, lo, hi):
        k0 = max(0, int(np.ceil((lo - fib.grid[0]) / fib.h)))
        k1 = min(fib.grid.size - 1, int(np.floor((hi - fib.grid[0]) / fib.h)))
        g_cut = fib.gamma if k0 == 0 else None
        return fiber._assemble(g_cut, fib.xi, b, fib.h, (k1 - k0) * fib.h,
                               fib.grid[0] + k0 * fib.h)

    def integrand(xi):
        fib_e = discretize_fiber(g, xi, b, T_dom=max(xmax + 2 * span, -xi / b + span))
        T_bulk = 2 * (abs(xi / b) + xmax + span)
        fib_b = discretize_fiber(None, xi, b, T_dom=T_bulk, whole_line=True)
        if window:
            c = -xi / b
            fib_e = cut(fib_e, max(0.0, c - span), max(c, 0.0) + span)
            fib_b = cut(fib_b, c - span, c + span)
        return density(fib_e) - density(fib_b)

    lo, hi = -b * (xmax + span), b * span
    xs = np.arange(lo, hi + dxi / 2, dxi)
    total = np.sum([integrand(x) for x in xs], axis=0) * dxi
    for _ in range(6):
        new_lo = np.arange(lo - b * span, lo, dxi)
        new_hi = np.arange(hi + dxi, hi + b * span + dxi / 2, dxi)
        tail = (np.sum([integrand(x) for x in new_lo], axis=0)
                + np.sum([integrand(x) for x in new_hi], axis=0)) * dxi
        total += tail
        lo, hi = lo - b * span, hi + b * span + dxi
        if np.max(np.abs(tail)) < 1e-4 * max(np.max(np.abs(total)), 1e-6):
            return total / (2.0 * np.pi)
    raise RuntimeError("xi-integration tail did not converge")


def test_edge_bulk_gap_shared_tail_loop_is_bit_identical():
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    x2 = np.array([0.5, 2.0])
    assert np.array_equal(edge_bulk_diagonal_gap(F, 1.0, 1.0, x2),
                          _edge_bulk_gap_inline_loop(F, 1.0, 1.0, x2))


def test_edge_bulk_gap_orbit_window_matches_full_domain():
    # the orbit-window fibers against discretize_fiber's whole-domain fibers
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    x2 = np.array([0.5, 2.0])
    ref = _edge_bulk_gap_inline_loop(F, 1.0, 1.0, x2, window=False)
    assert np.all(np.abs(edge_bulk_diagonal_gap(F, 1.0, 1.0, x2) - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_fiber_kernel_routes_agree():
    F = SchwartzFunction.gaussian(0.0, 0.35)
    fib = discretize_fiber(1.0, 0.0, 1.0, T_dom=6.0)
    Ke = fiber_F_kernel(F, 1.0, 1.0, 0.0, 0.5, 1.0, grid=fib)
    Kh = fiber_F_kernel(F, 1.0, 1.0, 0.0, 0.5, 1.0, grid=fib, method="hs", N=4)
    assert np.max(np.abs(Kh - Ke)) < 1e-6


def test_fiber_node_rows_match_eigensystem():
    # fiber_F_kernel reads spinors at a position through _interp_rows; at
    # every node t_j that row applied to the raw eigenvectors is the spinor
    # eigensystem() interpolates to t_j, on the half line and the whole line
    for fib in (discretize_fiber(0.7, 0.3, 1.0),
                discretize_fiber(None, 0.3, 1.0, whole_line=True)):
        _, V = fib.raw_eigensystem(-2.0, 2.0)
        _, psi = fib.eigensystem(-2.0, 2.0)
        assert V.shape[1] > 0
        for j, t in enumerate(fib.grid):
            assert np.allclose(_interp_rows(fib, t) @ V, psi[j], rtol=0.0, atol=1e-14)


def test_fiber_kernel_gap_supported_function_vanishes():
    # whole-line spectrum is the discrete Landau set; a function concentrated
    # inside a gap sees no spectrum at any momentum
    F = SchwartzFunction.gaussian(0.7, 0.05)
    fib = discretize_fiber(None, 0.0, 1.0, whole_line=True)
    K = fiber_F_kernel(F, None, 1.0, 0.0, 0.5, 1.0, grid=fib)
    assert np.max(np.abs(K)) < 1e-30


def test_fiber_kernel_trace_decay_in_xi():
    # for xi far on the vacuum side the spectrum climbs past supp F
    F = SchwartzFunction.gaussian(0.0, 0.35)
    traces = []
    for xi in (0.0, 2.0, 4.0):
        K = fiber_F_kernel(F, 1.0, 1.0, xi, 0.5, 0.5,
                           grid=discretize_fiber(1.0, xi, 1.0))
        traces.append(abs(np.trace(K)))
    assert traces[0] > 1e-2
    assert traces[1] < 1e-6 and traces[2] <= traces[1]


def test_fiber_kernel_convergence_guard():
    F = SchwartzFunction.gaussian(0.0, 0.35)
    K = fiber_F_kernel(F, 1.0, 1.0, 0.0, 0.5, 1.0, h=1.0 / 64, T_dom=6.0)
    assert K.shape == (2, 2) and np.all(np.isfinite(K))
    with pytest.raises(RuntimeError, match="not converged"):
        fiber_F_kernel(F, 1.0, 1.0, 0.0, 0.5, 1.0, h=1.0 / 64, T_dom=6.0,
                       rich_tol=1e-12)


def test_edge_bulk_diagonal_gap_decay():
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    x2 = np.array([0.2, 2.0, 3.0, 4.0, 6.0, 8.0])
    d = edge_bulk_diagonal_gap(F, 1.0, 1.0, x2)
    # boundary value is order one; onset decays faster than x2^-3
    assert 1e-2 < abs(d[0]) < 1.0
    sel = x2 >= 2.0
    slope = np.polyfit(
        np.log(x2[sel]), np.log(np.maximum(np.abs(d[sel]), 1e-300)), 1
    )[0]
    assert slope <= -3.0


def test_edge_bulk_diagonal_gap_zero_function():
    d = edge_bulk_diagonal_gap(_zero_function(), 1.0, 1.0, np.array([0.5, 2.0]))
    assert np.max(np.abs(d)) == 0.0


def test_assembled_kernel_rapid_offdiagonal_decay():
    # 2D kernel at x1 = x1': (1/2pi) int F(fiber)(t,t') dxi decays faster
    # than any power of the vertical separation
    F = SchwartzFunction.gaussian(0.0, 0.35)
    b, g = 1.0, 1.0
    t = 1.0
    tps = np.array([3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    span = 6.0
    dxi = 0.1
    xs = np.arange(-b * (tps.max() + span), b * span + dxi / 2, dxi)
    acc = np.zeros((tps.size, 2, 2))
    for xi in xs:
        fib = discretize_fiber(g, xi, b, T_dom=max(tps.max() + span, -xi / b + span))
        E, psi = fib.eigensystem(emin=-F.support_max, emax=F.support_max)
        if E.size == 0:
            continue
        vals = F(E)

        def spinor_at(pos):
            return np.array(
                [[np.interp(pos, fib.grid, psi[:, s, e]) for e in range(E.size)]
                 for s in range(2)]
            )

        pt = spinor_at(t)
        for k, tp in enumerate(tps):
            acc[k] += np.einsum("se,e,re->sr", pt, vals, spinor_at(tp)) / fib.h
    acc = np.max(np.abs(acc), axis=(1, 2)) * dxi / (2.0 * np.pi)
    seps = np.sqrt(1.0 + (tps - t) ** 2)
    slope = np.polyfit(np.log(seps), np.log(np.maximum(acc, 1e-300)), 1)[0]
    assert slope <= -4.0

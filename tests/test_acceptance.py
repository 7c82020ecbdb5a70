"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line,
and enforces a wall-clock budget alongside the numerical tolerances.
"""

import time

import numpy as np
import pytest
from mpmath import besselk
from numpy.polynomial.legendre import leggauss

from dirac_edge.closed_form import apply_fiber_resolvent
from dirac_edge.core import BoundaryParam, SpectralPoint, sup_norm
from dirac_edge.edge_kernel import (
    ContourConfig,
    edge_F_batch,
    edge_F_direct,
    fit_decay,
    halfplane_kernel_batch,
    zigzag_zero_mode,
)
from dirac_edge.fiber import (
    discretize_fiber,
    edge_bulk_diagonal_gap,
    edge_conductance,
    edge_density_rho,
    gap_window,
    bulk_ids,
    combes_thomas_check,
    ids_derivative,
    landau_levels,
)
from dirac_edge.hs_calculus import SchwartzFunction, hs_apply_matrix
from dirac_edge.kernel_ops import PotentialField, born_series
from dirac_edge.magnetic import magnetic_resolvent, schur_norm_Tb

RNG_SEED = 20260823
REFINED = ContourConfig()


def _report(num, name, ok, detail, t0, budget):
    dt = time.perf_counter() - t0
    in_budget = dt < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    line = (f"criterion {num:02d} {name}: {status} "
            f"({detail}; {dt:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok and in_budget, line


# --------------------------------------------------------------------------
# closed-form boundary integral F
# --------------------------------------------------------------------------

def test_criterion_01_bessel_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        F = edge_F_batch(0.0, T, BoundaryParam(1.0), REFINED)
        K0 = complex(besselk(0, T))
        K1 = complex(besselk(1, T))
        oracle = np.array([[2j * K0, 2 * K1], [-2 * K1, 2j * K0]])
        worst = max(worst, sup_norm(F - oracle))
    _report(1, "bessel cross-check", worst < 1e-8,
            f"max entrywise diff {worst:.2e} < 1e-8", t0, 1.0)


def test_criterion_02_contour_vs_direct_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(100):
        g = BoundaryParam(float(rng.uniform(0.2, 5.0)))
        S, T = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.5, 3.0))
        worst = max(worst, sup_norm(edge_F_batch(S, T, g, REFINED) - edge_F_direct(S, T, g)))
    _report(2, "contour/direct equivalence", worst < 1e-8,
            f"100 random geometries, max diff {worst:.2e} < 1e-8", t0, 30.0)


def _decay_samples(gamma, lam, base, direction, rs):
    base = np.asarray(base, dtype=float)
    u = np.asarray(direction, dtype=float)
    return [(base + r * u, base,
             halfplane_kernel_batch(gamma, lam, base + r * u, base, REFINED))
            for r in rs]


def test_criterion_03_decay_shape_and_zigzag_trend():
    t0 = time.perf_counter()
    # bulk-pointing samples: near-unit rate, tight fit
    u = np.array([np.sin(0.3), np.cos(0.3)])
    fits = []
    for lam in (1.0, 2.0, 4.0):
        rs = np.geomspace(2.0 / lam, 20.0 / lam, 24)
        fits.append(fit_decay(_decay_samples(1.0, lam, [0.0, 2.0 / lam], u, rs), lam))
    rate_ok = all(f.c_hat >= 0.9 and f.residual < 0.05 for f in fits)
    # samples hugging the boundary: the envelope constant at a fixed safe
    # rate grows toward both zigzag limits of the boundary parameter
    rs = np.geomspace(0.3, 3.0, 24)
    C = [fit_decay(_decay_samples(g, 1.0, [0.0, 0.1], [1.0, 0.0], rs),
                   1.0, fixed_rate=0.9).C_hat
         for g in (0.05, 0.2, 1.0, 5.0, 20.0)]
    mono_ok = C[0] > C[1] > C[2] and C[2] < C[3] < C[4]
    _report(3, "decay shape + zigzag trend", rate_ok and mono_ok,
            f"c_hat {min(f.c_hat for f in fits):.3f} >= 0.9, "
            f"residual {max(f.residual for f in fits):.3f} < 0.05, "
            f"C_hat sweep {np.round(C, 3).tolist()} monotone toward both ends",
            t0, 120.0)


def test_criterion_04_scaling_identity():
    t0 = time.perf_counter()
    g = BoundaryParam(0.6)
    x = np.array([0.4, 0.9])
    xp = np.array([-1.2, 0.3])
    worst = 0.0
    for lam in (0.5, 2.0, 4.0):
        a = halfplane_kernel_batch(g, lam, x, xp, REFINED)
        b = lam * halfplane_kernel_batch(g, 1.0, lam * x, lam * xp, REFINED)
        worst = max(worst, sup_norm(a - b) / sup_norm(a))
    _report(4, "scaling identity", worst < 1e-8,
            f"max relative diff {worst:.2e} < 1e-8", t0, 10.0)


def test_criterion_05_fiber_resolvent_residual():
    t0 = time.perf_counter()
    h, T = 1e-3, 3.0
    t = h * np.arange(int(T / h) + 1)
    bump = np.exp(-((t - 1.5) ** 2) / 0.1)
    psi = np.stack([bump * (1 + 0.3j), bump * 0.2 * t], axis=1)
    worst_res, worst_bc = 0.0, 0.0
    for g in (0.5, 1.0, 2.0):
        for xi in (-2.0, 0.0, 2.0):
            phi = apply_fiber_resolvent(g, xi, psi, h)
            dphi = np.gradient(phi, h, axis=0, edge_order=2)
            out = np.empty_like(phi)
            out[:, 0] = xi * phi[:, 1] - dphi[:, 1]
            out[:, 1] = xi * phi[:, 0] + dphi[:, 0]
            resid = out - 1j * phi - psi
            worst_res = max(worst_res, float(np.max(np.abs(resid[5:-5]))))
            worst_bc = max(worst_bc,
                           abs(phi[0, 1] - g * phi[0, 0]) / np.max(np.abs(phi)))
    _report(5, "fiber resolvent residual", worst_res < 1e-4 and worst_bc < 1e-8,
            f"FD residual {worst_res:.2e} < 1e-4, "
            f"boundary ratio {worst_bc:.2e} < 1e-8", t0, 30.0)


# --------------------------------------------------------------------------
# Born series against the closed-form massive-fiber oracle
# --------------------------------------------------------------------------

def _massive_fiber_kernel(m, xi, lam, gamma, t, tp):
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
    xs = np.arange(-Xi, Xi + dxi / 2, dxi)
    acc = np.zeros((2, 2), complex)
    for xi in xs:
        acc += np.exp(1j * xi * (x[0] - xp[0])) * _massive_fiber_kernel(
            m, xi, lam, gamma, x[1], xp[1]
        )
    return acc * dxi / (2.0 * np.pi)


def test_criterion_06_born_series_oracle():
    t0 = time.perf_counter()
    m, lam, g = 0.2, 2.0, 1.0
    x, xp = np.array([0.3, 0.8]), np.array([1.0, 0.4])
    exact = _assembled_massive_kernel(m, lam, g, x, xp)
    W = PotentialField.constant(w3=m)
    ratio = W.sup_norm / lam
    results = born_series(g, W, lam, 2, x, xp)
    diffs = [np.max(np.abs(b.value - exact)) for b in results]
    certified = all(d < b.tail_bound + b.error for d, b in zip(diffs, results))
    slope = np.polyfit([0, 1, 2], np.log(diffs), 1)[0]
    slope_ok = abs(slope - np.log(ratio)) < 0.1 * abs(np.log(ratio))
    _report(6, "born series vs massive oracle",
            diffs[2] < 1e-3 and certified and slope_ok,
            f"order-2 diff {diffs[2]:.2e} < 1e-3, all within certified tails, "
            f"contraction exponent {slope:.3f} vs log ratio {np.log(ratio):.3f}",
            t0, 300.0)


def test_criterion_07_schur_estimate_doubling():
    t0 = time.perf_counter()
    s4 = schur_norm_Tb(0.5, None, 1.0, 4.0)
    s8 = schur_norm_Tb(0.5, None, 1.0, 8.0)
    sb = schur_norm_Tb(1.0, None, 1.0, 4.0)
    lam_ok = 3.5 <= s4 / s8 <= 4.5
    b_ok = 1.9 <= sb / s4 <= 2.1
    _report(7, "schur bound doubling", lam_ok and b_ok,
            f"lambda-doubling factor {s4 / s8:.3f} in [3.5,4.5], "
            f"b-doubling factor {sb / s4:.3f} in [1.9,2.1]", t0, 120.0)


def test_criterion_08_magnetic_residual():
    t0 = time.perf_counter()
    b, lam = 0.5, 8.0
    xp = np.array([0.3, 0.6])
    x0 = np.array([0.1, 0.45])
    hfd = 1e-3
    X = np.array([x0, x0 + [hfd, 0], x0 - [hfd, 0], x0 + [0, hfd], x0 - [0, hfd]])
    vals, tail = magnetic_resolvent(b, None, 1.0, lam, 3, X, xp)
    K = vals[0]
    d1 = (vals[1] - vals[2]) / (2 * hfd)
    d2 = (vals[3] - vals[4]) / (2 * hfd)
    resid = np.empty((2, 2), dtype=complex)
    resid[0, :] = -1j * d1[1, :] - d2[1, :] + b * x0[1] * K[1, :] - 1j * lam * K[0, :]
    resid[1, :] = -1j * d1[0, :] + d2[0, :] + b * x0[1] * K[0, :] - 1j * lam * K[1, :]
    rel = np.max(np.abs(resid)) / (lam * np.max(np.abs(K)))
    _report(8, "magnetic FD residual", rel < 1e-2 and tail < 1e-8,
            f"relative residual {rel:.2e} < 1e-2, series tail {tail:.1e}",
            t0, 300.0)


def test_criterion_09_hs_calculus_testbeds():
    t0 = time.perf_counter()
    F = SchwartzFunction.gaussian(1.0, 0.5)
    diag = np.diag([1.0, 2.0])
    err_diag = np.max(np.abs(hs_apply_matrix(F, 4, diag)
                             - np.diag(F(np.array([1.0, 2.0])))))
    rng = np.random.default_rng(RNG_SEED)
    A = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    H = (A + A.conj().T) / 2.0
    E, V = np.linalg.eigh(H)
    exact = (V * F(E)[None, :]) @ V.conj().T
    out = hs_apply_matrix(F, 4, H)
    err_rand = np.max(np.abs(out - exact))
    herm = np.max(np.abs(out - out.conj().T))
    _report(9, "smooth functional calculus",
            err_diag < 1e-6 and err_rand < 1e-6 and herm < 1e-10,
            f"diag err {err_diag:.2e}, random 50x50 err {err_rand:.2e} < 1e-6, "
            f"hermiticity {herm:.2e} < 1e-10", t0, 60.0)


def test_criterion_10_landau_levels_richardson():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (0.8, 1.0, 1.25):
        T_dom = 12.0 / np.sqrt(b)
        lv1 = landau_levels(b, 4, h=1.0 / (152 * b), T_dom=T_dom)
        lv2 = landau_levels(b, 4, h=1.0 / (304 * b), T_dom=T_dom)
        rich = (4.0 * lv2 - lv1) / 3.0
        exact = np.sqrt(2.0 * b * np.arange(5))
        worst = max(worst, float(np.max(np.abs(rich - exact))))
    _report(10, "landau levels", worst < 1e-5,
            f"max Richardson error {worst:.2e} < 1e-5 over b in (0.8,1,1.25)",
            t0, 60.0)


def test_criterion_11_bulk_edge_correspondence():
    t0 = time.perf_counter()
    match_ok, int_ok = True, True
    worst_dist = 0.0
    for b in (0.8, 1.0, 1.25):
        ids2pi = {gap: 2.0 * np.pi * ids_derivative(b, gap_window(b, *gap))
                  for gap in ((0, 0), (1, 1))}
        for g in (0.5, 1.0, 2.0):
            for gap, val in ids2pi.items():
                w = gap_window(b, *gap)
                sigma = edge_conductance(g, b, w, 0.5 * (w.e3 + w.e4), (-8.0, 3.0))
                dist = abs(val - round(val))
                worst_dist = max(worst_dist, dist)
                int_ok = int_ok and dist < 1e-2
                match_ok = match_ok and sigma == round(val)
    # finite-strip edge density approaches the bulk value monotonically
    w = gap_window(1.0, 1, 1)
    F = SchwartzFunction.plateau(w.e1, w.e2, w.e3, w.e4)
    I = bulk_ids(1.0, w)
    errs = np.abs(edge_density_rho(1.0, 1.0, F, (4.0, 8.0, 16.0)) - I)
    rho_ok = errs[0] > errs[1] > errs[2]
    _report(11, "bulk-edge correspondence", match_ok and int_ok and rho_ok,
            f"conductance == round(2pi dIds/db) on 18 combos, "
            f"max integer distance {worst_dist:.1e} < 1e-2, "
            f"rho_L errors {np.format_float_scientific(errs[0], 2)} > "
            f"{np.format_float_scientific(errs[1], 2)} > "
            f"{np.format_float_scientific(errs[2], 2)}", t0, 600.0)


def test_criterion_12_edge_bulk_diagonal_decay():
    t0 = time.perf_counter()
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    x2 = np.array([2.0, 3.0, 4.0, 6.0, 8.0])
    d = edge_bulk_diagonal_gap(F, 1.0, 1.0, x2)
    slope = np.polyfit(np.log(x2), np.log(np.maximum(np.abs(d), 1e-300)), 1)[0]
    _report(12, "edge-bulk diagonal decay", slope <= -3.0,
            f"log-log slope {slope:.2f} <= -3 on x2 in [2,8]", t0, 300.0)


def test_criterion_13_combes_thomas():
    t0 = time.perf_counter()
    fib = discretize_fiber(1.0, 0.0, 1.0)
    ok = True
    worst_ratio = 0.0
    for C1 in (0.25, 0.5, 0.75):
        for v in (0.5, 1.0, 2.0):
            measured, bound = combes_thomas_check(
                fib, SpectralPoint(0.3, v), C1, 2.0
            )
            ok = ok and abs(bound - 1.0 / ((1.0 - C1) * v)) < 1e-12
            worst_ratio = max(worst_ratio, measured / bound)
    _report(13, "combes-thomas bound", ok and worst_ratio <= 1.1,
            f"max measured/bound {worst_ratio:.3f} <= 1.1 over 9 combos",
            t0, 60.0)


def test_criterion_14_zigzag_anomaly():
    t0 = time.perf_counter()
    hs = np.geomspace(1e-3, 1e-1, 9)
    mags = np.array([abs(zigzag_zero_mode([0.0, h], [0.0, h])) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(mags), 1)[0]
    # at gamma = 1 the kernel stays bounded over the same boundary approach
    regs = np.array([
        np.max(np.abs(halfplane_kernel_batch(1.0, 1.0, [0.0, h], [0.5, h], REFINED)))
        for h in hs
    ])
    _report(14, "zigzag anomaly", abs(slope + 2.0) < 0.01 and regs.max() < 1.0,
            f"diagonal slope {slope:.4f} within -2 +- 0.01, "
            f"gamma=1 kernel max {regs.max():.3f} bounded", t0, 10.0)

import numpy as np
import pytest
from scipy.special import k0, k1

from dirac_edge import edge_kernel
from dirac_edge.closed_form import bulk_plane_kernel
from dirac_edge.core import (
    BoundaryParam,
    ContourError,
    DiagonalKernelError,
    QuadratureError,
    sup_norm,
)
from dirac_edge.edge_kernel import (
    ContourConfig,
    edge_F_batch,
    edge_F_direct,
    fit_decay,
    halfplane_kernel_batch,
    zigzag_zero_mode,
)

RNG = np.random.default_rng(911)
REFINED = ContourConfig()


def test_edge_geometry_validation():
    # the mirrored height T must be positive at every point of a batch, on
    # the single pass and the refined path alike, and no separation S may be
    # NaN; the direct oracle needs T >= 0.1 and rejects a NaN height
    for T in (0.0, -1.0, np.nan, [1.0, 0.0]):
        for cfg in (None, REFINED):
            with pytest.raises(ValueError, match="positive"):
                edge_F_batch(1.0, T, 1.0, cfg)
    for cfg in (None, REFINED):
        with pytest.raises(ValueError, match="NaN"):
            edge_F_batch([1.0, np.nan], 1.0, 1.0, cfg)
    with pytest.raises(ValueError, match="T >= 0.1"):
        edge_F_direct(1.0, np.nan, 1.0)


def test_edge_F_bessel_identity_gamma_one():
    # at gamma = 1 the reflection factor is 1 and at S = 0 the integral
    # reduces to modified Bessel functions:
    # F(0, T) = [[2i K0(T), 2 K1(T)], [-2 K1(T), 2i K0(T)]]
    for T in (0.5, 1.0, 3.0):
        F = edge_F_batch(0.0, T, BoundaryParam(1.0), REFINED)
        oracle = np.array(
            [[2j * k0(T), 2 * k1(T)], [-2 * k1(T), 2j * k0(T)]], dtype=complex
        )
        assert sup_norm(F - oracle) < 1e-12


def test_edge_F_contour_matches_direct_quadrature():
    # the deformed-contour route must agree with plain momentum quadrature
    # wherever the latter converges (T not too small)
    for _ in range(20):
        g = BoundaryParam(float(np.exp(RNG.uniform(-2.5, 2.5))))
        S = float(RNG.uniform(-6, 6))
        T = float(RNG.uniform(0.15, 5.0))
        a = edge_F_batch(S, T, g, REFINED)
        b = edge_F_direct(S, T, g)
        assert sup_norm(a - b) < 1e-9 * max(1.0, sup_norm(a))


def test_edge_F_independent_of_deformation_angle():
    g = BoundaryParam(0.7)
    vals = [
        edge_F_batch(2.0, 0.8, g, ContourConfig(epsilon=e)) for e in (0.2, 0.35, 0.5)
    ]
    assert sup_norm(vals[0] - vals[1]) < 1e-11
    assert sup_norm(vals[1] - vals[2]) < 1e-11


def test_edge_F_large_S_small_T():
    # near-boundary, large separation: the direct route is hopeless here, but
    # the contour result must still satisfy the boundary-trace identity when
    # assembled into the half-plane kernel (checked below); here just check
    # convergence and the expected exponential smallness in r
    S, T = 40.0, 0.01
    F = edge_F_batch(S, T, BoundaryParam(2.0), REFINED)
    assert np.all(np.isfinite(F))
    assert sup_norm(F) < np.exp(-0.9 * np.hypot(S, T))
    # past r ~ 750 the term underflows to exactly zero, out to S = inf
    for cfg in (None, REFINED):
        assert np.all(edge_F_batch([1e3, 1e300, np.inf], 0.5, 2.0, cfg) == 0.0)


def test_edge_F_batch_matches_single():
    # the single pass of the batch path against the refined value per point,
    # over separations up to 20, heights down to 1e-3 and gamma in e^[-2.5, 2.5]
    rng = np.random.default_rng(2024)
    for _ in range(6):
        g = BoundaryParam(float(np.exp(rng.uniform(-2.5, 2.5))))
        S = rng.uniform(-20, 20, size=20)
        T = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=20))
        batch = edge_F_batch(S, T, g)
        for i in range(S.size):
            single = edge_F_batch(S[i], T[i], g, REFINED)
            assert sup_norm(batch[i] - single) <= 1e-13 * sup_norm(single)


def test_edge_F_batch_matches_refined_at_large_r():
    # the single pass over r up to 80 (the lam-scaled reach of the compose
    # paths), angles within 5e-5 of +-pi/2 and both ends of the gamma range,
    # in one batch with a point at small r: the exp(-r cosh) peak narrows
    # like 1/sqrt(r), and the step must follow it
    r = np.geomspace(0.03, 80.0, 12)
    theta = np.array([-np.pi / 2 + 5e-5, -1.2, 0.0, 0.7, np.pi / 2 - 1e-3, np.pi / 2 - 5e-5])
    S = np.append(np.outer(r, np.sin(theta)), [0.0, -50.0, 60.0])
    T = np.append(np.outer(r, np.cos(theta)), [0.03, 40.0, 30.0])
    for g in (np.exp(-2.5), 1.0, np.exp(2.5)):
        batch = edge_F_batch(S, T, g)
        refined = edge_F_batch(S, T, g, REFINED)
        assert np.all(sup_norm(batch - refined) <= 1e-12 * sup_norm(refined))


def test_edge_F_single_pass_at_large_r():
    # r about 200, off the boundary line: the undeformed contour carries a
    # real exponent -r cosh(x) and no cancellation, so the single pass stays
    # at rounding level (the contour shifted by eps = 0.3 lost 3.8e-11 here)
    S, T = np.array([150.0, -120.0]), np.array([130.0, 160.0])
    single = edge_F_batch(S, T, 1.0)
    refined = edge_F_batch(S, T, 1.0, REFINED)
    assert np.all(sup_norm(single - refined) <= 1e-13 * sup_norm(refined))


def test_undeformed_contour_matches_shifted_contours():
    # Cauchy: for theta <= pi/2 - eps the undeformed-contour sum equals the
    # trapezoid sum on contours shifted down by 0.05 and by 0.3
    rng = np.random.default_rng(77)
    eps = REFINED.epsilon
    for _ in range(4):
        g = float(np.exp(rng.uniform(-2.5, 2.5)))
        S = rng.uniform(-20, 20, size=60)
        T = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=60))
        r, theta = np.hypot(S, T), np.arctan2(S, T)
        keep = theta <= np.pi / 2 - eps
        r, theta = r[keep], theta[keep]
        undeformed = edge_kernel._contour_sum(g, r, theta, eps, 0)
        assert np.array_equal(undeformed, edge_kernel._trapezoid(g, r, theta, 0.0, eps, 0))
        for shift in (0.05, 0.3):
            shifted = edge_kernel._trapezoid(g, r, theta, shift, shift, 0)
            assert np.all(sup_norm(undeformed - shifted) <= 1e-13 * sup_norm(undeformed))


def test_contour_switch_is_continuous():
    # at theta = pi/2 - eps -+ 1e-9 the points fall on either side of the
    # switch between the two contours; on each side the chosen contour
    # agrees with the other one at the same point
    eps = REFINED.epsilon
    r = np.geomspace(0.01, 20.0, 8)
    for side, own, other in ((-1e-9, 0.0, eps), (1e-9, eps, 0.0)):
        theta = np.full(r.size, np.pi / 2 - eps + side)
        for g in (np.exp(-2.5), 1.0, np.exp(2.5)):
            F = edge_kernel._contour_sum(g, r, theta, eps, 0)
            assert np.array_equal(F, edge_kernel._trapezoid(g, r, theta, own, eps, 0))
            across = edge_kernel._trapezoid(g, r, theta, other, eps / 2, 0)
            assert np.all(sup_norm(F - across) <= 1e-13 * sup_norm(F))


def test_contour_sum_rejects_angle_past_the_pole():
    # for |theta| < pi/2 the denominator stays above sin(eps) on the contour;
    # past pi/2 + eps the deformation has crossed the pole of c and the
    # safety check must refuse, whatever the side of the pole the nodes fall
    for eps in (0.05, 0.3, 1.0):
        for g in (0.5, 1.0, 3.0):
            theta = np.array([np.pi / 2 + 1.5 * eps])
            with pytest.raises(FloatingPointError, match="safety bound"):
                edge_kernel._contour_sum(g, np.array([1.0]), theta, eps, 0)
    # right up to the boundary line the same check stays silent
    theta = np.array([-np.pi / 2 + 1e-12, np.pi / 2 - 1e-12])
    assert np.all(np.isfinite(edge_kernel._contour_sum(2.0, np.array([0.5, 0.5]), theta, 0.3, 0)))


def test_contour_failure_has_a_package_type():
    # the CLI maps the package's RuntimeError types to exit code 3
    with pytest.raises(ContourError, match="safety bound") as exc:
        edge_kernel._contour_sum(1.0, np.array([1.0]), np.array([np.pi / 2 + 0.45]), 0.3, 0)
    assert isinstance(exc.value, RuntimeError)


def test_small_epsilon_near_the_boundary_line(monkeypatch):
    # at eps = 0.05 and theta -> pi/2 the analyticity strip is about 0.05
    # wide, so the steps are fine: the single pass and the refined batch at
    # eps = 0.05 still match the default contour, and every block holds at
    # most _BLOCK point-nodes, also when it is shrunk below one point's nodes
    theta = np.pi / 2 - np.array([5e-5, 1e-3, 0.05])
    r = np.array([0.01, 0.5, 3.0, 20.0])
    S = np.outer(r, np.sin(theta)).ravel()
    T = np.outer(r, np.cos(theta)).ravel()
    seen = []
    blocks, default = edge_kernel._blocks, edge_kernel._BLOCK

    def spy(*args):
        for points, h, lo, hi in blocks(*args):
            seen.append(points.size * (hi - lo))
            yield points, h, lo, hi

    monkeypatch.setattr(edge_kernel, "_blocks", spy)
    for g in (np.exp(-2.5), 1.0, np.exp(2.5)):
        monkeypatch.setattr(edge_kernel, "_BLOCK", default)
        reference = edge_F_batch(S, T, g, REFINED)
        single = edge_kernel._contour_sum(g, np.hypot(S, T), np.arctan2(S, T), 0.05, 0)
        assert np.all(sup_norm(single - reference) <= 1e-12 * sup_norm(reference))
        for block in (default, 1 << 10):
            monkeypatch.setattr(edge_kernel, "_BLOCK", block)
            seen.clear()
            F = edge_F_batch(S, T, g, ContourConfig(epsilon=0.05))
            assert max(seen) <= block
            assert np.all(sup_norm(F - reference) <= 1e-12 * sup_norm(reference))
        assert max(seen) == 1 << 10     # some point's nodes span several blocks


def test_edge_F_direct_rejects_small_T():
    with pytest.raises(ValueError):
        edge_F_direct(1.0, 0.05, BoundaryParam(1.0))


def test_quadrature_error_carries_iterates():
    cfg = ContourConfig(tol=1e-30, max_refinements=1)
    with pytest.raises(QuadratureError) as exc:
        edge_F_batch(1.0, 1.0, BoundaryParam(1.0), cfg)
    assert exc.value.last is not None
    assert exc.value.previous is not None


def test_refined_stop_test_is_relative(monkeypatch):
    # two estimates of a small F (|F| = 1e-8) that are 1e-6 apart relative
    # must not pass a tolerance of 1e-10, and do pass one of 1e-5
    est = 1e-8 * np.eye(2, dtype=complex)[None]
    for tol, passes in ((1e-10, False), (1e-5, True)):
        estimates = iter([est, est * (1.0 + 1e-6)])
        monkeypatch.setattr(edge_kernel, "_contour_sum", lambda *args: next(estimates))
        cfg = ContourConfig(tol=tol, max_refinements=1)
        if passes:
            assert np.array_equal(edge_F_batch(1.0, 1.0, 1.0, cfg), est[0] * (1.0 + 1e-6))
        else:
            with pytest.raises(QuadratureError):
                edge_F_batch(1.0, 1.0, 1.0, cfg)


def test_halfplane_kernel_boundary_condition_exact():
    # trace on the boundary: row 2 = gamma * row 1 at x2 = 0
    for g in (0.3, 1.0, 4.0):
        for x1 in (-2.0, 0.0, 1.5):
            K = halfplane_kernel_batch(g, 1.3, (x1, 0.0), (0.4, 0.7), REFINED)
            err = np.abs(K[1, :] - g * K[0, :])
            assert np.max(err) < 1e-10 * sup_norm(K)


def test_halfplane_kernel_scaling_identity():
    # K_lam(x, x') = lam * K_1(lam x, lam x')
    g = BoundaryParam(0.6)
    x = np.array([0.4, 0.9])
    xp = np.array([-1.2, 0.3])
    for lam in (0.5, 2.0, 7.0):
        a = halfplane_kernel_batch(g, lam, x, xp, REFINED)
        b = lam * halfplane_kernel_batch(g, 1.0, lam * x, lam * xp, REFINED)
        assert sup_norm(a - b) < 1e-11 * sup_norm(a)


def test_halfplane_kernel_solves_pde():
    # away from x', each column of K(., x') is annihilated by (D - i lam):
    # D = [[0, -i d1 - d2], [-i d1 + d2, 0]]; checked by central differences
    g = BoundaryParam(1.9)
    lam = 1.3
    xp = np.array([1.0, 0.4])
    h = 1e-3
    for x in (np.array([0.2, 1.1]), np.array([-0.7, 0.3]), np.array([2.0, 2.5])):
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        def K_at(y):
            return halfplane_kernel_batch(g, lam, y, xp, REFINED)

        d1 = (K_at(x + e1) - K_at(x - e1)) / (2 * h)
        d2 = (K_at(x + e2) - K_at(x - e2)) / (2 * h)
        K = K_at(x)
        resid = np.empty((2, 2), dtype=complex)
        resid[0, :] = -1j * d1[1, :] - d2[1, :] - 1j * lam * K[0, :]
        resid[1, :] = -1j * d1[0, :] + d2[0, :] - 1j * lam * K[1, :]
        assert sup_norm(resid) < 5e-5 * max(1.0, sup_norm(K))


def test_halfplane_kernel_far_from_boundary_is_bulk():
    # both points deep in the interior: the reflected term is exponentially
    # negligible and the kernel reduces to the whole-plane one
    g = BoundaryParam(0.8)
    x = np.array([0.0, 30.0])
    xp = np.array([1.0, 30.5])
    K = halfplane_kernel_batch(g, 1.0, x, xp, REFINED)
    B = bulk_plane_kernel(1.0, x - xp)
    assert sup_norm(K - B) < 1e-12


def test_halfplane_kernel_batch_matches_single():
    g = BoundaryParam(2.2)
    X = np.column_stack([RNG.uniform(-2, 2, 8), RNG.uniform(0.2, 2, 8)])
    Xp = np.column_stack([RNG.uniform(-2, 2, 8), RNG.uniform(0.2, 2, 8)])
    batch = halfplane_kernel_batch(g, 1.5, X, Xp)
    for i in range(8):
        single = halfplane_kernel_batch(g, 1.5, X[i], Xp[i], REFINED)
        assert sup_norm(batch[i] - single) < 1e-8


def test_halfplane_kernel_reflection_transpose_identity():
    # K(y, x) = K(P1 x, P1 y)^T with P1: x1 -> -x1, on random pairs and on
    # closure points x2 = 0 at either end of a pair
    n = 60
    X = np.column_stack([RNG.uniform(-3, 3, n), RNG.uniform(0.0, 2.0, n)])
    Y = np.column_stack([RNG.uniform(-3, 3, n), RNG.uniform(0.0, 2.0, n)])
    X[:10, 1] = 0.0
    Y[10:20, 1] = 0.0
    P1 = np.array([-1.0, 1.0])
    for g in (np.exp(-2.0), 1.0, np.exp(2.0)):
        for lam in (1.0, 8.0):
            K = halfplane_kernel_batch(g, lam, Y, X)
            mirrored = np.swapaxes(halfplane_kernel_batch(g, lam, P1 * X, P1 * Y), -1, -2)
            scale = np.max(np.abs(K), axis=(1, 2))
            assert np.all(np.max(np.abs(K - mirrored), axis=(1, 2)) <= 1e-14 * scale)


def test_halfplane_kernel_rejects_bad_input():
    # a single (2,)-shaped pair and a 2-row batch raise the same exception
    # type for each bad pair; in the batch the bad pair follows a good one
    cases = [
        (DiagonalKernelError, 1.0, (0.5, 0.5), (0.5, 0.5)),
        (ValueError, -1.0, (0.0, 1.0), (1.0, 1.0)),
        (ValueError, 0.0, (0.0, 1.0), (1.0, 1.0)),
        (ValueError, 1.0, (0.0, -0.2), (1.0, 1.0)),
        (ValueError, 1.0, (0.0, 1.0), (1.0, -0.2)),
        # both points exactly on the boundary: mirrored height vanishes
        (ValueError, 1.0, (0.0, 0.0), (1.0, 0.0)),
    ]
    for exc_type, lam, x, xp in cases:
        X = np.array([[0.3, 0.8], x])
        Xp = np.array([[1.0, 0.4], xp])
        for call in (
            lambda: halfplane_kernel_batch(1.0, lam, x, xp, REFINED),
            lambda: halfplane_kernel_batch(1.0, lam, X, Xp),
        ):
            with pytest.raises(exc_type) as info:
                call()
            assert type(info.value) is exc_type


def _decay_samples(gamma, lam, n=24):
    base = np.array([0.0, 2.0 / lam])
    direction = np.array([np.sin(0.3), np.cos(0.3)])
    rs = np.geomspace(2.0 / lam, 20.0 / lam, n)
    out = []
    for r in rs:
        xp = base + r * direction
        out.append((xp, base, halfplane_kernel_batch(gamma, lam, xp, base, REFINED)))
    return out


def test_fit_decay_recovers_unit_rate():
    for lam in (1.0, 2.0, 4.0):
        fit = fit_decay(_decay_samples(1.0, lam), lam)
        assert fit.c_hat > 0.9
        assert fit.residual < 0.05


def test_fit_decay_fixed_rate_bounds_samples():
    samples = _decay_samples(0.5, 1.0)
    fit = fit_decay(samples, 1.0, fixed_rate=0.9)
    for x, xp, mat in samples:
        r = float(np.linalg.norm(np.asarray(x) - np.asarray(xp)))
        assert sup_norm(mat) <= fit.C_hat * np.exp(-0.9 * r) / r * (1 + 1e-12)


def test_fit_decay_input_validation():
    samples = _decay_samples(1.0, 1.0)
    with pytest.raises(ValueError):
        fit_decay(samples[:10], 1.0)
    narrow = [s for s in samples if True][:20]
    # force a narrow spread by reusing the first sample
    narrow = [samples[0]] * 20
    with pytest.raises(ValueError):
        fit_decay(narrow, 1.0)


def test_zigzag_zero_mode_shape():
    v = zigzag_zero_mode((1.0, 0.5), (0.0, 0.5))
    assert abs(v - 1.0 / (1j * 1.0 + 1.0) ** 2) < 1e-15
    # divergence rate as both points sit at the same boundary location
    for x2 in (1e-2, 1e-3, 1e-4):
        v = zigzag_zero_mode((0.0, x2), (0.0, x2))
        assert abs(v * (2 * x2) ** 2 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        zigzag_zero_mode((0.0, 0.0), (0.0, 0.0))

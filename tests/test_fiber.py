import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from dirac_edge import fiber, hs_calculus
from dirac_edge.core import EigensolverError, SpectralPoint
from dirac_edge.fiber import (
    GapWindow,
    _count_in,
    _window_eigh,
    assembled_bulk_diagonal,
    bulk_ids,
    combes_thomas_check,
    discretize_fiber,
    dispersion_curves,
    edge_conductance,
    edge_density_rho,
    gap_window,
    ids_derivative,
    landau_levels,
)
from dirac_edge.hs_calculus import SchwartzFunction

RNG = np.random.default_rng(4242)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (35 - 84 * u + 70 * u**2 - 20 * u**3)


def _window_function(w):
    def F(E):
        E = np.asarray(E, dtype=float)
        return _smoothstep((E - w.e1) / (w.e2 - w.e1)) * _smoothstep(
            (w.e4 - E) / (w.e4 - w.e3)
        )

    F.support_max = abs(w.e4) + 0.1
    return F


def test_fiber_matrix_hermitian():
    for g, xi, b in [(1.0, 0.4, 1.0), (0.3, -2.0, 0.8), (5.0, 1.5, 2.0)]:
        fib = discretize_fiber(g, xi, b)
        A = fib.dense()
        assert np.max(np.abs(A - A.T)) < 1e-12
    fib = discretize_fiber(None, 0.7, 1.0, whole_line=True)
    A = fib.dense()
    assert np.max(np.abs(A - A.T)) < 1e-12


def test_fiber_boundary_condition_ratio():
    # the bottom eigenvector satisfies psi2(0) = gamma psi1(0) to O(h^2)
    for g in (0.5, 1.0, 3.0):
        fib = discretize_fiber(g, 0.0, 1.0, h=1.0 / 64, T_dom=6.0)
        E, psi = fib.eigensystem(emin=-2.0, emax=2.0)
        j = int(np.argmin(np.abs(E)))
        norm = np.linalg.norm(psi[:, :, j])
        ratio = abs(psi[0, 1, j] - g * psi[0, 0, j]) / norm
        assert ratio < 10 * fib.h**2


def test_whole_line_landau_levels_richardson():
    # relativistic Landau levels sqrt(2 b n), observed 2nd order in h
    for b in (1.0, 2.0):
        lv1 = landau_levels(b, 4, h=1.0 / (128 * b))
        lv2 = landau_levels(b, 4, h=1.0 / (256 * b))
        exact = np.sqrt(2.0 * b * np.arange(5))
        err1 = np.max(np.abs(lv1 - exact))
        err2 = np.max(np.abs(lv2 - exact))
        assert 3.0 < err1 / err2 < 5.0          # order 2 in h
        rich = (4.0 * lv2 - lv1) / 3.0
        assert np.max(np.abs(rich - exact)) < 1e-7


def test_whole_line_particle_hole_symmetry():
    fib = discretize_fiber(None, 0.3, 1.0, whole_line=True)
    E = fib.eigenvalues(-3.0, 3.0)
    E = np.sort(E)
    assert np.max(np.abs(E + E[::-1])) < 1e-10


def test_discretize_fiber_input_errors():
    with pytest.raises(ValueError, match="T_dom"):
        discretize_fiber(1.0, -10.0, 1.0, T_dom=5.0)
    with pytest.raises(ValueError, match="decrease h"):
        discretize_fiber(1.0, 0.0, 1.0, h=0.05, T_dom=12.0)
    # worded as the magnetic routines' field check; an infinite field is
    # refused before it reaches the assembly
    for b in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="flux density b must be finite and positive"):
            discretize_fiber(1.0, 0.0, b)


def test_dispersion_plateaus_at_landau_levels():
    # deep on the bulk side the branches flatten onto +/- sqrt(2n)
    xi = np.linspace(-9.0, 2.0, 180)
    disp = dispersion_curves(1.0, 1.0, xi, 3)
    targets = [-2.0, -np.sqrt(2.0), 0.0, np.sqrt(2.0), 2.0]
    deep = disp.xi_grid < -7.0
    for tgt in targets:
        vals = disp.branches[:, deep]
        best = np.nanmin(np.abs(vals - tgt))
        assert best < 1e-4


def test_dispersion_no_pinned_zero_mode():
    # for finite gamma no branch is identically zero (zigzag anomaly happens
    # only in the gamma -> 0 or infinity limits)
    xi = np.linspace(-6.0, 2.0, 280)
    for g in (0.2, 1.0, 5.0):
        disp = dispersion_curves(g, 1.0, xi, 2)
        for br in disp.branches:
            vals = np.abs(br[np.isfinite(br)])
            assert np.max(vals) > 0.05


def test_dispersion_branch_continuity_under_refinement():
    coarse = dispersion_curves(1.0, 1.0, np.linspace(-4, 1, 60), 2)
    fine = dispersion_curves(1.0, 1.0, np.linspace(-4, 1, 120), 2)
    step_c = np.nanmax(np.abs(np.diff(coarse.branches, axis=1)))
    step_f = np.nanmax(np.abs(np.diff(fine.branches, axis=1)))
    assert step_f < 0.75 * step_c


def test_dispersion_matching_failure_diagnostics():
    with pytest.raises(RuntimeError, match="refine"):
        dispersion_curves(1.0, 1.0, np.linspace(-8, 2, 12), 3)


def test_gap_window_validation():
    with pytest.raises(ValueError):
        GapWindow(1.0, 0.5, 2.0, 3.0)
    w = gap_window(1.0, 1, 1)
    assert w.e1 < w.e2 < -np.sqrt(2) < np.sqrt(2) < w.e3 < w.e4


def _spectral_flow(dispersion, e, slope_tol=1e-6):
    """Oracle: signed count of dispersion-branch crossings of the energy e."""
    total = 0
    for br in dispersion.branches:
        vals = br[np.isfinite(br)]
        s = np.sign(vals - e)
        if np.any(s == 0):
            raise RuntimeError(f"branch exactly touches e={e}; choose a different e")
        for k in np.where(s[:-1] * s[1:] < 0)[0]:
            de = vals[k + 1] - vals[k]
            if abs(de) < slope_tol:
                raise RuntimeError(
                    f"crossing tangent to e={e} (|dE|={abs(de):.2e}); choose a different e"
                )
            total += 1 if de > 0 else -1
    return int(total)


def _branch_conductance(dispersion, window):
    """Oracle: window conductance by tracking branches through both gaps."""
    return (_spectral_flow(dispersion, 0.5 * (window.e3 + window.e4))
            - _spectral_flow(dispersion, 0.5 * (window.e1 + window.e2)))


def _eigh_count(diag, off, lo, hi):
    """Oracle: eigenvalues in (lo, hi] from the full spectrum."""
    E = eigh_tridiagonal(diag, off, eigvals_only=True)
    return int(np.sum((E > lo) & (E <= hi)))


def test_sturm_count_matches_eigensolver():
    mats = [(f.diag, f.off) for f in (discretize_fiber(1.0, 0.0, 1.0),
                                      discretize_fiber(0.4, 1.0, 1.3),
                                      discretize_fiber(2.0, -1.0, 1.0))]
    mats += [(RNG.normal(size=n), RNG.normal(size=n - 1)) for n in (1, 2, 7, 60)]
    for diag, off in mats:
        E = eigh_tridiagonal(diag, off, eigvals_only=True)
        gaps = np.diff(E)
        # energies 1e-8 either side of eigenvalues isolated by more than 1e-6
        iso = [E[k] for k in range(E.size)
               if (k == 0 or gaps[k - 1] > 1e-6) and (k == E.size - 1 or gaps[k] > 1e-6)]
        picks = RNG.choice(iso, size=min(4, len(iso)), replace=False)
        energies = np.concatenate([picks - 1e-8, picks + 1e-8,
                                   RNG.uniform(E[0] - 1.0, E[-1] + 1.0, 3)])
        for lo in energies:
            for hi in energies[energies > lo]:
                assert _count_in(diag, off, lo, hi) == _eigh_count(diag, off, lo, hi)


def test_sturm_count_exact_zero_pivot():
    # integer tridiagonals probed at integers hit pivots that are exactly 0
    hits = 0
    for _ in range(200):
        n = int(RNG.integers(2, 9))
        diag = RNG.integers(-2, 3, size=n).astype(float)
        off = RNG.choice([-1.0, 1.0, 2.0], size=n - 1)
        E = eigh_tridiagonal(diag, off, eigvals_only=True)
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)):
            if min(np.min(np.abs(E - lo)), np.min(np.abs(E - hi))) < 1e-9:
                continue
            hits += diag[0] in (lo, hi)
            assert _count_in(diag, off, lo, hi) == _eigh_count(diag, off, lo, hi)
    assert hits > 0


def test_edge_conductance_matches_branch_tracking():
    xi = np.linspace(-8.0, 3.0, 60)
    for g in (0.5, 2.0):
        for gap in ((0, 0), (1, 1)):
            w = gap_window(1.0, *gap)
            disp = dispersion_curves(g, 1.0, xi, gap[1] + 2)
            oracle = _branch_conductance(disp, w)
            assert oracle == 2 * gap[1] + 1
            for e in (0.5 * (w.e3 + w.e4), 0.5 * (w.e1 + w.e2)):
                assert edge_conductance(g, 1.0, w, e, (-8.0, 3.0)) == oracle


def test_edge_conductance_integer_and_stability():
    w = gap_window(1.0, 1, 1)
    vals = {edge_conductance(1.0, 1.0, w, e, (-8.0, 3.0)) for e in (1.5, 1.6, 1.7)}
    assert vals == {3}
    # probing from the lower gap gives the same window conductance
    assert edge_conductance(1.0, 1.0, w, -1.7, (-8.0, 3.0)) == 3
    with pytest.raises(ValueError):
        edge_conductance(1.0, 1.0, w, 0.0, (-8.0, 3.0))


def test_edge_conductance_empty_spectrum_window():
    # window far below every branch that moves over this momentum range:
    # both gaps see zero flow
    w = GapWindow(-30.0, -29.0, -21.0, -20.0)
    assert edge_conductance(1.0, 1.0, w, -29.5, (-3.0, 0.0)) == 0


def test_bulk_ids_level_counting():
    b = 1.3
    # plateau from the gap below 0 to the gap above sqrt(2b): levels {0, sqrt(2b)}
    s = np.sqrt(2.0 * b)
    w = GapWindow(-0.8 * s, -0.2 * s, 1.1 * s, 1.3 * s)
    assert abs(bulk_ids(b, w) - 2.0 * b / (2.0 * np.pi)) < 1e-14
    empty = GapWindow(1.05 * s, 1.1 * s, 1.2 * s, 1.25 * s)
    assert bulk_ids(b, empty) == 0.0


def test_bulk_ids_window_collision_error():
    w = GapWindow(-1.0, -0.5, np.sqrt(2.0), 2.5)   # e3 exactly on a level
    with pytest.raises(ValueError, match="window edge"):
        bulk_ids(1.0, w)


def test_ids_derivative_is_integer_over_2pi():
    for b, (nb, na) in [(1.0, (1, 1)), (0.8, (0, 0)), (1.25, (1, 1))]:
        w = gap_window(b, nb, na)
        val = 2.0 * np.pi * ids_derivative(b, w)
        assert abs(val - round(val)) < 1e-2


def test_assembled_bulk_diagonal_translation_invariant():
    w = gap_window(1.0, 1, 1)
    x2 = np.array([0.0, 0.37, 1.0, 2.21])
    diag = assembled_bulk_diagonal(1.0, w, x2)
    assert np.max(np.abs(diag - diag[0])) < 1e-6
    assert abs(diag[0] - bulk_ids(1.0, w)) < 1e-6


def test_edge_density_zero_function():
    F = lambda E: np.zeros_like(np.asarray(E, dtype=float))
    F.support_max = 0.5
    assert edge_density_rho(1.0, 1.0, F, 4.0) == 0.0


def test_edge_density_converges_to_bulk_ids():
    w = gap_window(1.0, 1, 1)
    F = _window_function(w)
    I = bulk_ids(1.0, w)
    errs = np.abs(edge_density_rho(1.0, 1.0, F, (4.0, 8.0, 16.0)) - I)
    assert errs[0] > errs[1] > errs[2]
    # boundary-layer contribution is O(1): L * |rho_L - I| stays bounded.
    # With the t-integral ending at L on every fiber's grid, the boundary
    # layer is the same at every L: L * |rho_L - I| agrees within 5%
    scaled = [L * e for L, e in zip((4.0, 8.0, 16.0), errs)]
    assert max(scaled) / min(scaled) - 1.0 < 0.05


def _plateau(w):
    return SchwartzFunction.plateau(w.e1, w.e2, w.e3, w.e4)


def test_edge_density_within_its_measured_step_error(monkeypatch):
    # the xi-integrated totals at the steps (h, h/2) that edge_density_rho
    # extrapolates; their difference over 3 is the measured step error
    seen, momentum_integral = [], fiber._momentum_integral
    monkeypatch.setattr(fiber, "_momentum_integral",
                        lambda *args: seen.append(momentum_integral(*args)) or seen[-1])
    F = _plateau(gap_window(1.0, 1, 1))
    for g in (0.5, 2.0):
        rho = edge_density_rho(g, 1.0, F, 4.0)
        coarse, fine = seen[-1][0][:, 0] / (2.0 * np.pi * 4.0)
        step_error = abs(fine - coarse) / 3.0
        assert step_error > 0.0
        with monkeypatch.context() as m:
            m.setattr(fiber, "_FIBER_STEP", fiber._FIBER_STEP / 2.0)
            assert abs(edge_density_rho(g, 1.0, F, 4.0) - rho) <= step_error


def test_edge_density_one_sweep_serves_every_L():
    F = _plateau(gap_window(1.0, 1, 1))
    both = edge_density_rho(1.0, 1.0, F, [4.0, 8.0])
    single = [edge_density_rho(1.0, 1.0, F, L) for L in (4.0, 8.0)]
    assert both.shape == (2,) and all(isinstance(r, float) for r in single)
    assert np.allclose(both, single, rtol=1e-12, atol=0.0)


def test_edge_density_rejects_strip_widths():
    F = _plateau(gap_window(1.0, 0, 0))
    for L in (0.0, -4.0, [4.0, np.nan]):
        with pytest.raises(ValueError, match="strip widths"):
            edge_density_rho(1.0, 1.0, F, L)


def _edge_density_rho_inline_loop(g, b, F, L, window=True):
    """Reference: edge_density_rho with its own copy of the xi-tail loop, on
    the orbit lattice: the momenta xi = -b h j, h = (1/48)/sqrt(b), j a
    multiple of 5 (xi step (5/48) sqrt(b)), so that the orbit centre c = j h
    is the node jc = c/step of both steps h and h/2; each xi is taken at
    both, then the Richardson value.  With window=True the fiber at node jc
    keeps the nodes max(0, jc - k) .. max(jc, 0) + k, k = floor(span/step):
    it is solved, with its boundary row, when jc <= k, and otherwise reads
    the density of one whole-line fiber at xi = 0 on the nodes -k .. k from
    node jc - k.  With window=False every fiber is solved on the whole
    domain [0, max(L + 2 span, c + span)]."""
    span = 6.0 / np.sqrt(b)
    h = (1.0 / 48) / np.sqrt(b)
    dxi, ext = 5 * b * h, -(-int(span / h) // 5)
    T_dom = L + 2 * span

    def density(fib):
        E, psi = fib.eigensystem(emin=-F.support_max, emax=F.support_max)
        return np.einsum("tse,e->t", np.abs(psi) ** 2, np.asarray(F(E))) / fib.h

    bulk = {}
    for step in (h, h / 2.0):
        k = int(span / step)
        bulk[step] = density(fiber._assemble(None, 0.0, b, step, 2 * k * step, -k * step))

    def strip(step, jc):
        k = int(span / step)
        if not window:
            k0, dens = 0, density(fiber._assemble(g, -b * step * jc, b, step,
                                                  max(T_dom, jc * step + span)))
        elif jc > k:
            k0, dens = jc - k, bulk[step]
        else:
            k0, dens = 0, density(fiber._assemble(g, -b * step * jc, b, step,
                                                  (max(jc, 0) + k) * step))
        m = int(L / step)
        s = L / step - m
        # trapezoid rule to the last node t_m <= L, then the linear
        # interpolant of t_m and t_(m+1) over [t_m, L]; node k0 is dens[0]
        w = np.full(m + 2, step)
        w[0] = step / 2.0
        w[m], w[m + 1] = step * (0.5 + s - s * s / 2.0), step * s * s / 2.0
        w = w[k0 : k0 + dens.size]
        return w @ dens[: w.size]

    def part(lo, hi):
        return np.sum([[[strip(h, 5 * n)], [strip(h / 2.0, 10 * n)]]
                       for n in range(lo, hi)], axis=0)

    lo, hi = -ext, int(np.ceil(L / (h * 5))) + ext + 1
    total = part(lo, hi) * dxi
    for _ in range(6):
        tail = (part(lo - ext, lo) + part(hi, hi + ext)) * dxi
        total = total + tail
        lo, hi = lo - ext, hi + ext
        if np.max(np.abs(tail)) < 1e-4 * max(np.max(np.abs(total)), 1.0):
            break
    else:
        raise RuntimeError("xi-integration tail did not converge")
    if abs(total[1, 0] - total[0, 0]) / 3.0 >= 1e-4 * max(abs(total[1, 0]), 1.0):
        raise RuntimeError("fiber step did not converge")
    coarse, fine = total[:, 0] / (2.0 * np.pi * L)
    return (4.0 * fine - coarse) / 3.0


def test_edge_density_shared_tail_loop_is_bit_identical():
    w = gap_window(1.0, 0, 0)
    F = _window_function(w)
    assert edge_density_rho(1.0, 1.0, F, 4.0) == _edge_density_rho_inline_loop(1.0, 1.0, F, 4.0)


def test_edge_density_orbit_window_matches_full_domain(monkeypatch):
    # the translated and orbit-window fibers against fibers solved at every
    # xi on the whole domain: the states left out have density below e^-36.
    # Every solved fiber meets the edge (k0 = 0, boundary row); the lattice
    # reaches orbit centres past one span, whose fibers are translates
    k0s, js = [], []
    orbit_fiber, momentum_integral = fiber._orbit_fiber, fiber._momentum_integral

    def recording(*args):
        fib, k0 = orbit_fiber(*args)
        k0s.append(k0)
        return fib, k0

    monkeypatch.setattr(fiber, "_orbit_fiber", recording)
    monkeypatch.setattr(fiber, "_momentum_integral", lambda integrand, *args: momentum_integral(
        lambda j: js.append(j) or integrand(j), *args))
    for b, g, gap in ((0.5, 1.0, (0, 0)), (2.0, 0.5, (1, 1)), (1.0, 2.0, (1, 1))):
        F = _plateau(gap_window(b, *gap))
        rho = edge_density_rho(g, b, F, 4.0)
        ref = _edge_density_rho_inline_loop(g, b, F, 4.0, window=False)
        assert abs(rho - ref) <= 1e-12 * max(1.0, abs(ref))
        # orbit centre j h = j _FIBER_STEP/sqrt(b) past span = 6/sqrt(b)
        assert set(k0s) == {0} and max(js) * fiber._FIBER_STEP > 6.0
        k0s.clear()
        js.clear()


def test_lattice_densities_translate_the_whole_line_fiber():
    # a fiber whose orbit window starts past the edge, assembled on its own,
    # has the density of the xi = 0 whole-line fiber moved by jc nodes
    F = _plateau(gap_window(1.0, 1, 1))
    for b, step in ((1.0, fiber._FIBER_STEP), (0.5, fiber._FIBER_STEP / np.sqrt(0.5) / 2.0)):
        k = int(6.0 / np.sqrt(b) / step)
        _, density = fiber._lattice_densities(2.0, b, step, F)
        for jc in (k + 1, k + 7, 3 * k):
            dens, k0 = density(jc)
            fib, k0_own = fiber._orbit_fiber(2.0, jc, b, step)
            own = fiber._diagonal_density(fib, F)
            assert k0 == k0_own == jc - k and fib.gamma is None
            assert np.max(np.abs(dens - own)) <= 1e-12 * np.max(own)


def test_fiber_solves_do_not_grow_with_L_or_x2(monkeypatch):
    # only the fibers whose orbit window meets the edge are solved, so the
    # eigensolves per call depend neither on the strip widths nor on max x2
    calls, window_eigh = [], fiber._window_eigh
    monkeypatch.setattr(fiber, "_window_eigh", lambda *a: calls.append(1) or window_eigh(*a))

    def solves(run):
        calls.clear()
        run()
        return len(calls)

    F = _plateau(gap_window(1.0, 1, 1))
    rho = [solves(lambda: edge_density_rho(1.0, 1.0, F, L)) for L in (4.0, [4.0, 8.0, 16.0, 32.0])]
    G = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    gap = [solves(lambda: fiber.edge_bulk_diagonal_gap(G, 1.0, 1.0, [2.0, xmax]))
           for xmax in (8.0, 32.0)]
    assert rho[0] == rho[1] <= 360 and gap[0] == gap[1] <= 360


def _assert_window_eigh_matches_oracle(diag, off, emin, emax):
    """_window_eigh against scipy's eigh_tridiagonal at full precision: the
    same count, eigenvalues and densities sum |v|^2 within 1e-12, and an
    orthonormal basis."""
    E0, V0 = eigh_tridiagonal(diag, off, select="v", select_range=(emin, emax))
    E, V = _window_eigh(diag, off, emin, emax)
    assert E.size == E0.size and V.shape == (diag.size, E.size)
    if E.size:
        assert np.max(np.abs(E - E0)) <= 1e-12
        assert np.max(np.abs(np.sum(V**2, axis=1) - np.sum(V0**2, axis=1))) <= 1e-12
        assert np.max(np.abs(V.T @ V - np.eye(E.size))) <= 1e-10
    return E


def test_window_eigh_matches_full_precision_eigensolver():
    counts = []
    for g in (0.5, 2.0, 5.0):
        for xi in (-6.0, -1.5, 0.0, 2.0):
            for step in (1.0 / 48, 1.0 / 96):
                fib = fiber._assemble(g, xi, 1.0, step, max(8.0 + 12.0, -xi + 6.0))
                counts.append(_assert_window_eigh_matches_oracle(
                    fib.diag, fib.off, -2.5, 2.5).size)
    for xi in (-3.0, 0.4):
        fib = discretize_fiber(None, xi, 1.0, whole_line=True)
        counts.append(_assert_window_eigh_matches_oracle(fib.diag, fib.off, -3.0, 3.0).size)
    assert min(counts) == 0 and max(counts) >= 5


def test_window_eigh_near_degenerate_pairs():
    # two copies of one fiber coupled at their junction: for small couplings
    # each level splits into a pair closer than the bisection tolerance,
    # which the Rayleigh-Ritz step returns as a basis of its span
    fib = discretize_fiber(1.0, -3.0, 1.0)
    for coupling in (0.0, 1e-14, 1e-10, 1e-6):
        diag = np.concatenate([fib.diag, fib.diag])
        off = np.concatenate([fib.off, [coupling], fib.off])
        E = _assert_window_eigh_matches_oracle(diag, off, -2.5, 2.5)
        assert E.size >= 6 and np.min(np.diff(E)) < fiber._BISECT_TOL


def test_window_eigh_edges_on_eigenvalues_and_empty_window():
    fib = discretize_fiber(1.0, -2.0, 1.0)
    E_all = eigh_tridiagonal(fib.diag, fib.off, eigvals_only=True)
    k = int(np.searchsorted(E_all, 0.0))
    # window edges exactly on eigenvalues: both solvers count (emin, emax]
    for lo, hi in ((E_all[k], E_all[k + 3]), (E_all[k - 2], E_all[k + 1])):
        _assert_window_eigh_matches_oracle(fib.diag, fib.off, lo, hi)
    gap_lo, gap_hi = E_all[k] + 1e-3, E_all[k + 1] - 1e-3
    E, V = _window_eigh(fib.diag, fib.off, gap_lo, gap_hi)
    assert E.shape == (0,) and V.shape == (fib.dim, 0)


def test_window_eigh_residual_check_raises(monkeypatch):
    # a bisection tolerance of 1 leaves inverse iteration too far from the
    # eigenvalues to converge: the Ritz residual check catches it
    monkeypatch.setattr(fiber, "_BISECT_TOL", 1.0)
    fib = discretize_fiber(1.0, -2.0, 1.0)
    with pytest.raises(EigensolverError, match="Ritz residual") as exc:
        fib.eigensystem(-2.5, 2.5)
    assert isinstance(exc.value, RuntimeError)


def test_one_eigensolver_path(monkeypatch):
    # every fiber eigensolve goes through _window_eigh; scipy's
    # eigh_tridiagonal stays the tests' oracle only
    def refuse(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called from dirac_edge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
    for mod in (fiber, hs_calculus):
        assert not hasattr(mod, "eigh_tridiagonal")
    w = gap_window(1.0, 0, 0)
    F = SchwartzFunction.plateau(w.e1, w.e2, w.e3, w.e4)
    assert 0.1 < edge_density_rho(1.0, 1.0, F, 4.0) < 0.3
    assert dispersion_curves(1.0, 1.0, np.linspace(-4.0, 1.0, 60), 2).branches.shape[0] > 0
    assert bulk_ids(1.0, w) > 0.0
    K = hs_calculus.fiber_F_kernel(SchwartzFunction.gaussian(0.0, 0.35), 1.0, 1.0, 0.0,
                                   0.5, 1.0, grid=discretize_fiber(1.0, 0.0, 1.0, T_dom=6.0))
    assert np.max(np.abs(K)) > 0.0


def test_combes_thomas_bound():
    fib = discretize_fiber(1.0, 0.0, 1.0)
    z = SpectralPoint(0.3, 1.0)
    measured, bound = combes_thomas_check(fib, z, 0.5, 2.0)
    assert abs(bound - 2.0) < 1e-14
    assert measured <= 2.2


def test_combes_thomas_small_c1_limit():
    fib = discretize_fiber(1.0, 0.0, 1.0)
    z = SpectralPoint(-0.2, 0.7)
    measured, bound = combes_thomas_check(fib, z, 1e-8, 1.0)
    plain = np.linalg.norm(
        np.linalg.inv(fib.dense() - z.z * np.eye(fib.dim)), ord=2
    )
    assert abs(measured - plain) < 1e-5
    assert plain <= 1.0 / abs(z.v) * (1 + 1e-10)


def test_combes_thomas_input_errors():
    fib = discretize_fiber(1.0, 0.0, 1.0)
    z = SpectralPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        combes_thomas_check(fib, z, 1.5, 0.0)
    mat = np.diag(np.zeros(4))
    coords = np.array([0.0, 1e4, 2e4, 3e4])
    with pytest.raises(OverflowError):
        combes_thomas_check((mat, coords), z, 0.5, 0.0)


def test_combes_thomas_resolvent_column_decay():
    # entries of the resolvent column centered at x0 decay at rate >= 0.9 C1 |v|
    fib = discretize_fiber(1.0, 0.0, 1.0)
    z = SpectralPoint(0.1, 1.0)
    C1 = 0.5
    R = np.linalg.inv(fib.dense() - z.z * np.eye(fib.dim))
    coords = fib.coords
    x0 = coords[fib.dim // 2]
    col = np.abs(R[:, fib.dim // 2])
    d = np.abs(coords - x0)
    sel = (d > 1.0) & (d < 4.0) & (col > 1e-280)
    slope = np.polyfit(d[sel], np.log(col[sel]), 1)[0]
    assert slope <= -0.9 * C1 * abs(z.v)

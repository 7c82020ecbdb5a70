"""Correctness checks for the benchmark workloads.

Each check reads one output of the program and compares it with a
computation made apart from the program (an oracle assembled here, or an
exact reference known from how the input was built) or with a property the
method must have.  No check compares against a stored copy of an earlier
output.  Every function returns a list of (name, ok, detail) triples.
"""

import numpy as np


def _check(name, ok, detail):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# magnetic-grid
# ---------------------------------------------------------------------------

def magnetic_fd_residual(vals, x0, hfd, b, lam):
    """Relative residual of (D_b - i lam) K at x0 by central differences.

    vals holds K at x0, x0 +- hfd e1, x0 +- hfd e2 (in that order).  D_b is
    the Dirac operator in the Landau gauge A = b(-x2, 0).
    """
    K = vals[0]
    d1 = (vals[1] - vals[2]) / (2.0 * hfd)
    d2 = (vals[3] - vals[4]) / (2.0 * hfd)
    r = np.empty((2, 2), dtype=complex)
    r[0, :] = -1j * d1[1, :] - d2[1, :] + b * x0[1] * K[1, :] - 1j * lam * K[0, :]
    r[1, :] = -1j * d1[0, :] + d2[0, :] + b * x0[1] * K[0, :] - 1j * lam * K[1, :]
    return float(np.max(np.abs(r)) / (lam * np.max(np.abs(K))))


def magnetic_checks(direct, mirror, order0, tail, x0, hfd, b, lam):
    """direct/mirror/order0 are (5, 2, 2) stencil values; tail is the
    series tail bound reported with the direct assembly."""
    res_d = magnetic_fd_residual(direct, x0, hfd, b, lam)
    res_m = magnetic_fd_residual(mirror, x0, hfd, b, lam)
    gap = float(np.max(np.abs(direct - mirror)))
    first = float(np.max(np.abs(direct - order0)))
    return [
        _check("magnetic.direct_fd_residual", res_d < 1e-2,
               f"relative residual {res_d:.2e} < 1e-2"),
        _check("magnetic.mirror_fd_residual", res_m < 1e-2,
               f"relative residual {res_m:.2e} < 1e-2"),
        _check("magnetic.tail", 0.0 < tail < 1e-8, f"series tail {tail:.2e} < 1e-8"),
        _check("magnetic.mirror_agrees", gap < 1e-3,
               f"max |direct - mirror| {gap:.2e} < 1e-3"),
        _check("magnetic.mirror_within_half_first_order", gap < 0.5 * first,
               f"max |direct - mirror| {gap:.2e} < half of first-order "
               f"correction {first:.2e}"),
    ]


# ---------------------------------------------------------------------------
# born-quadrature
# ---------------------------------------------------------------------------

def massive_fiber_kernel(m, xi, lam, gamma, t, tp):
    """Half-line fiber kernel of the Dirac operator with constant mass m
    (potential m sigma_3) at energy i lam and edge momentum xi, with the
    boundary condition psi2(0) = gamma psi1(0); closed form."""
    kap = np.sqrt(xi * xi + m * m + lam * lam)

    def whole(z):
        s = np.sign(z)
        e = np.exp(-kap * abs(z)) / (2.0 * kap)
        return e * np.array([[m + 1j * lam, xi + kap * s],
                             [xi - kap * s, -m + 1j * lam]])

    v = np.array([xi + kap, -(m - 1j * lam)])
    Kr = whole(-tp)
    c = (gamma * Kr[0, :] - Kr[1, :]) / (v[1] - gamma * v[0])
    return whole(t - tp) + np.exp(-kap * t) * np.outer(v, c)


ORACLE_XI_MAX, ORACLE_DXI = 40.0, 0.02


def massive_halfplane_kernel(m, lam, gamma, x, xp):
    """Oracle for the Born series with W = m sigma_3: the exact massive
    half-plane kernel as a Fourier sum of fiber kernels over the edge
    momentum xi in [-ORACLE_XI_MAX, ORACLE_XI_MAX] at step ORACLE_DXI."""
    acc = np.zeros((2, 2), dtype=complex)
    dxi = ORACLE_DXI
    for xi in np.arange(-ORACLE_XI_MAX, ORACLE_XI_MAX + dxi / 2, dxi):
        acc += np.exp(1j * xi * (x[0] - xp[0])) * massive_fiber_kernel(
            m, xi, lam, gamma, x[1], xp[1])
    return acc * dxi / (2.0 * np.pi)


def born_checks(orders, oracle, ratio, lam):
    """orders: list of (value (2,2), tail_bound, error) for orders 0, 1, 2."""
    checks = []
    diffs = []
    for k, (value, tail, err) in enumerate(orders):
        d = float(np.max(np.abs(value - oracle)))
        diffs.append(d)
        checks.append(_check(f"born.order{k}_within_bound", d < tail + err,
                             f"|order {k} - oracle| {d:.2e} < tail+error {tail + err:.2e}"))
    checks.append(_check("born.order2_diff", diffs[2] < 1e-3,
                         f"|order 2 - oracle| {diffs[2]:.2e} < 1e-3"))
    slope = float(np.polyfit(np.arange(len(diffs)), np.log(diffs), 1)[0])
    want = float(np.log(ratio))
    checks.append(_check("born.contraction", abs(slope - want) < 0.1 * abs(want),
                         f"contraction exponent {slope:.3f} within 10% of "
                         f"log(|W|/lam) = {want:.3f}"))
    return checks


def born_tail_bound(ratio, lam, order):
    """Geometric remainder of the Born series: ||R_0|| <= 1/lam, ||W|| <= ratio*lam."""
    return ratio ** (order + 1) / (lam * (1.0 - ratio))


# ---------------------------------------------------------------------------
# fiber-spectral
# ---------------------------------------------------------------------------

def bulk_edge_checks(rows, rho_L, b, rho_count):
    """rows: dicts with n_below, n_above, conductance, two_pi_ids_derivative.
    rho_L: {L: edge density} for a gap window holding rho_count levels."""
    checks = []
    for r in rows:
        count = int(r["n_below"]) + int(r["n_above"]) + 1
        cond = float(r["conductance"])
        tpi = float(r["two_pi_ids_derivative"])
        tag = f"gamma={float(r['gamma']):g} gap=({int(r['n_below'])},{int(r['n_above'])})"
        checks.append(_check("fiber.conductance_is_level_count", cond == count,
                             f"{tag}: conductance {cond:g} == level count {count}"))
        checks.append(_check("fiber.ids_derivative_is_level_count",
                             abs(tpi - count) < 1e-2,
                             f"{tag}: 2pi dI/db {tpi:.6f} within 1e-2 of {count}"))
    bulk = b * rho_count / (2.0 * np.pi)
    Ls = sorted(rho_L)
    dist = [abs(rho_L[L] - bulk) for L in Ls]
    shrinking = all(d1 > d2 for d1, d2 in zip(dist, dist[1:]))
    checks.append(_check("fiber.rho_L_approaches_bulk",
                         shrinking and dist[-1] < 0.1 * bulk,
                         f"|rho_L - b*{rho_count}/2pi| over L={Ls}: "
                         + ", ".join(f"{d:.2e}" for d in dist)
                         + " decreasing, last < 10% of bulk"))
    return checks


def fiber_resolvent_checks(phi, psi, gamma, xi, h):
    """phi = (fiber resolvent at energy i) applied to psi on t_j = j h."""
    dphi = np.gradient(phi, h, axis=0, edge_order=2)
    out = np.empty_like(phi)
    out[:, 0] = xi * phi[:, 1] - dphi[:, 1]
    out[:, 1] = xi * phi[:, 0] + dphi[:, 0]
    resid = float(np.max(np.abs((out - 1j * phi - psi)[5:-5])))
    bc = float(abs(phi[0, 1] - gamma * phi[0, 0]) / np.max(np.abs(phi)))
    tag = f"gamma={gamma:g} xi={xi:g}"
    return [
        _check("fiber.resolvent_fd_residual", resid < 1e-4,
               f"{tag}: FD residual {resid:.2e} < 1e-4"),
        _check("fiber.resolvent_boundary", bc < 1e-8,
               f"{tag}: |phi2(0) - gamma phi1(0)| / max|phi| {bc:.2e} < 1e-8"),
    ]


def hs_checks(out, exact):
    """out = F(H) from the contour integral; exact = Q diag(F(E)) Q^* from
    the eigenpairs the matrix was built from."""
    err = float(np.max(np.abs(out - exact)))
    herm = float(np.max(np.abs(out - out.conj().T)))
    return [
        _check("hs.matches_eigendecomposition", err < 1e-6,
               f"max |F(H) - Q F(E) Q*| {err:.2e} < 1e-6"),
        _check("hs.hermitian", herm < 1e-10, f"max |F(H) - F(H)*| {herm:.2e} < 1e-10"),
    ]

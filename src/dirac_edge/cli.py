"""Configuration-driven experiment runner.

`dirac-edge run config.json` executes one experiment described by a JSON
document and writes a CSV result table plus a JSON metadata sidecar;
`dirac-edge list` enumerates the experiments and their config keys.

Complex columns are split into `_re`/`_im` pairs.  Files are written to a
temporary name and renamed into place, so a failed run leaves no partial
outputs.  Runs are deterministic for a given config: randomness is seeded
from the config (default 0) and all reductions use fixed orders.
"""

import argparse
import csv
import json
import os
import sys
import tempfile
import time

import numpy as np

from .core import (
    BranchMatchingError,
    ContourError,
    EigensolverError,
    QuadratureError,
    SpectralPoint,
)
from .edge_kernel import ContourConfig, fit_decay, halfplane_kernel_batch, zigzag_zero_mode
from .fiber import (
    combes_thomas_check,
    discretize_fiber,
    dispersion_curves,
    edge_bulk_diagonal_gap,
    edge_conductance,
    edge_density_rho,
    gap_window,
    ids_derivative,
)
from .hs_calculus import SchwartzFunction, fiber_F_kernel, hs_apply_matrix
from .kernel_ops import PotentialField, born_series
from .magnetic import _schur_estimates, magnetic_resolvent, select_lambda0


class ConfigError(Exception):
    """Raised for any problem with the config document (exit code 2)."""


# the package's numerical failure types (exit code 3) and their message prefixes
_EXIT_3_PREFIX = {
    QuadratureError: "numerical non-convergence",
    EigensolverError: "eigensolver failure",
    ContourError: "contour failure",
    BranchMatchingError: "branch matching failure",
}


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _atomic_write(path, write_body):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as f:
            write_body(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    def body(f):
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])

    _atomic_write(path, body)


def _write_meta(path, meta):
    _atomic_write(path, lambda f: json.dump(meta, f, indent=2, sort_keys=True))


def _complex_cols(prefix):
    return [f"{prefix}{a}{b}_{p}" for a in "01" for b in "01" for p in ("re", "im")]


def _complex_vals(M):
    out = []
    for a in range(2):
        for b in range(2):
            out += [M[a, b].real, M[a, b].imag]
    return out


def _potential(cfg):
    return PotentialField.constant(
        w0=cfg.get("w0", 0.0), w1=cfg.get("w1", 0.0),
        w2=cfg.get("w2", 0.0), w3=cfg.get("w3", 0.0),
    )


def _schwartz(spec):
    kind = spec.get("type", "gaussian")
    if kind == "gaussian":
        return SchwartzFunction.gaussian(spec.get("center", 0.0), spec["sigma"])
    if kind == "plateau":
        e = spec["energies"]
        return SchwartzFunction.plateau(*e)
    raise ConfigError(f"unknown function type {kind!r} (gaussian or plateau)")


# ---------------------------------------------------------------------------
# experiments: each returns (header, rows, extra_metadata)
# ---------------------------------------------------------------------------

def _exp_kernel_grid(cfg):
    g, lam = cfg["gamma"], cfg["lam"]
    xp = np.asarray(cfg.get("xprime", [0.0, 0.5]), dtype=float)
    n = int(cfg.get("n", 41))
    lo1, hi1 = cfg.get("x1_range", [-2.0, 2.0])
    lo2, hi2 = cfg.get("x2_range", [0.05, 4.0])
    g1 = np.linspace(lo1, hi1, n)
    g2 = np.linspace(lo2, hi2, n)
    X = np.stack(np.meshgrid(g1, g2, indexing="ij"), -1).reshape(-1, 2)
    keep = ~np.all(X == xp, axis=1)
    K = np.zeros((X.shape[0], 2, 2), complex)
    K[keep] = halfplane_kernel_batch(g, lam, X[keep], np.broadcast_to(xp, X[keep].shape))
    rows = [[x[0], x[1]] + _complex_vals(K[i]) for i, x in enumerate(X) if keep[i]]
    return ["x1", "x2"] + _complex_cols("K"), rows, {}


def _exp_edge_decay_fit(cfg):
    g, lam = cfg["gamma"], cfg["lam"]
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("n_samples", 24))
    r_min, r_max = cfg.get("r_range", [0.25, 4.0])
    rng = np.random.default_rng(seed)
    xp = np.asarray(cfg.get("xprime", [0.3, 0.5]), dtype=float)
    rs = np.geomspace(r_min, r_max, n)
    th = rng.uniform(0.15 * np.pi, 0.85 * np.pi, size=n)
    X = xp[None, :] + rs[:, None] * np.stack([np.cos(th), np.sin(th)], -1)
    K = halfplane_kernel_batch(g, lam, X, np.broadcast_to(xp, X.shape))
    fit = fit_decay([(x, xp, K[i]) for i, x in enumerate(X)], lam)
    rows = [[rs[i], np.max(np.abs(K[i]))] + _complex_vals(K[i]) for i in range(n)]
    meta = {"c_hat": fit.c_hat, "C_hat": fit.C_hat, "residual": fit.residual}
    return ["r", "sup_abs"] + _complex_cols("K"), rows, meta


def _exp_zigzag_demo(cfg):
    hs = np.asarray(cfg.get("h_values", np.geomspace(1e-3, 1e-1, 9).tolist()), float)
    lam = cfg.get("lam", 1.0)
    sep = cfg.get("separation", 0.5)
    mags = np.array([abs(zigzag_zero_mode([0.0, h], [0.0, h])) for h in hs])
    X = np.column_stack([np.zeros_like(hs), hs])
    K = halfplane_kernel_batch(1.0, lam, X, X + [sep, 0.0], ContourConfig())
    regs = np.max(np.abs(K), axis=(1, 2))
    rows = [[h, zz, reg] for h, zz, reg in zip(hs, mags, regs)]
    slope = np.polyfit(np.log(hs), np.log(mags), 1)[0]
    meta = {"zigzag_slope": float(slope), "regular_max": float(regs.max()),
            "regular_min": float(regs.min())}
    return ["h", "zigzag_abs", "regular_abs"], rows, meta


def _exp_born_series(cfg):
    g, lam = cfg["gamma"], cfg["lam"]
    W = _potential(cfg)
    x = np.asarray(cfg["x"], float)
    xp = np.asarray(cfg["xprime"], float)
    orders = [int(k) for k in cfg.get("orders", [0, 1, 2])]
    if min(orders, default=0) < 0:
        raise ValueError(f"order must lie in 0..5, got {min(orders)}")
    results = born_series(g, W, lam, max(orders, default=0), x, xp)
    rows = [[k] + _complex_vals(results[k].value) + [results[k].tail_bound, results[k].error]
            for k in orders]
    return (["order"] + _complex_cols("K") + ["tail_bound", "error"], rows,
            {"W_sup_norm": W.sup_norm})


def _exp_magnetic_neumann(cfg):
    b, g = cfg["b"], cfg["gamma"]
    lams = cfg.get("lambda_candidates", [1.0, 2.0, 4.0, 8.0])
    order = int(cfg.get("order", 2))
    xp = np.asarray(cfg.get("xprime", [0.3, 0.6]), float)
    pts = np.asarray(cfg.get("points", [[0.1, 0.45], [0.6, 1.0], [1.2, 0.8]]), float)
    lam0 = select_lambda0(b, None, g, lams)
    vals, tail = magnetic_resolvent(b, None, g, lam0, order, pts, xp)
    rows = [[x[0], x[1]] + _complex_vals(vals[i]) for i, x in enumerate(pts)]
    return (["x1", "x2"] + _complex_cols("K"), rows,
            {"lambda0": float(lam0), "tail_bound": float(tail), "order": order})


def _exp_schur_sweep(cfg):
    g = cfg["gamma"]
    bs = cfg.get("b_values", [0.25, 0.5, 1.0])
    lams = cfg.get("lam_values", [2.0, 4.0, 8.0])
    pairs = [(b, lam) for b in bs for lam in lams]
    rows = [[b, lam, s] for (b, lam), s in zip(pairs, _schur_estimates(pairs, None, g))]
    return ["b", "lam", "schur_norm"], rows, {}


def _exp_hs_matrix_check(cfg):
    dim = int(cfg.get("dim", 50))
    N = int(cfg.get("N", 4))
    seed = int(cfg.get("seed", 0))
    F = _schwartz(cfg.get("F", {"type": "gaussian", "center": 1.0, "sigma": 0.5}))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = (A + A.conj().T) / 2.0
    out = hs_apply_matrix(F, N, H)
    E, V = np.linalg.eigh(H)
    exact = (V * F(E)[None, :]) @ V.conj().T
    herm = float(np.max(np.abs(out - out.conj().T)))
    err = float(np.max(np.abs(out - exact)))
    ev_out = np.sort(np.linalg.eigvalsh((out + out.conj().T) / 2.0))
    rows = [[k, E[k], float(np.sort(F(E))[k]), ev_out[k]] for k in range(dim)]
    return (["index", "eigenvalue", "F_exact_sorted", "F_contour_sorted"], rows,
            {"max_error": err, "hermiticity_residual": herm, "N": N})


def _exp_fiber_F(cfg):
    F = _schwartz(cfg["F"])
    g = cfg.get("gamma")
    b, xi = cfg["b"], cfg["xi"]
    ts = np.asarray(cfg.get("t_values", [0.5, 1.0, 2.0]), float)
    tps = np.asarray(cfg.get("tprime_values", ts.tolist()), float)
    kw = {}
    if "h" in cfg:
        # internal grid with a step-halving convergence check
        kw = {"h": cfg["h"], "T_dom": cfg.get("T_dom"),
              "rich_tol": cfg.get("rich_tol", 1e-3)}
    else:
        kw = {"grid": discretize_fiber(g, xi, b, T_dom=cfg.get("T_dom"),
                                       whole_line=g is None)}
    rows = []
    for t in ts:
        for tp in tps:
            K = fiber_F_kernel(F, g, b, xi, t, tp, **kw)
            rows.append([t, tp] + _complex_vals(K))
    return ["t", "tprime"] + _complex_cols("K"), rows, {}


def _exp_edge_bulk_gap(cfg):
    g, b = cfg["gamma"], cfg["b"]
    F = _schwartz(cfg.get("F", {"type": "plateau",
                                  "energies": [-1.2, -0.2, 0.2, 1.2]}))
    x2 = np.asarray(cfg.get("x2_values", [0.2, 2.0, 3.0, 4.0, 6.0, 8.0]), float)
    d = edge_bulk_diagonal_gap(F, g, b, x2)
    rows = [[x2[i], d[i]] for i in range(x2.size)]
    sel = x2 >= 2.0
    slope = np.polyfit(np.log(x2[sel]),
                       np.log(np.maximum(np.abs(d[sel]), 1e-300)), 1)[0]
    return ["x2", "difference"], rows, {"loglog_slope": float(slope)}


def _exp_dispersion(cfg):
    g, b = cfg["gamma"], cfg["b"]
    lo, hi = cfg.get("xi_range", [-6.0, 2.0])
    n_xi = int(cfg.get("n_xi", 120))
    n_branches = int(cfg.get("n_branches", 3))
    xi = np.linspace(lo, hi, n_xi)
    disp = dispersion_curves(g, b, xi, n_branches)
    head = ["xi"] + [f"E{k}" for k in range(disp.branches.shape[0])]
    rows = [[xi[j]] + [disp.branches[k, j] for k in range(disp.branches.shape[0])]
            for j in range(n_xi)]
    return head, rows, {"n_branches_found": int(disp.branches.shape[0])}


def _exp_bulk_edge(cfg):
    bs = cfg.get("b_values", [1.0])
    gs = cfg.get("gamma_values", [1.0])
    gaps = cfg.get("gaps", [[0, 0], [1, 1]])
    xi_range = cfg.get("xi_range", [-8.0, 3.0])
    Ls = cfg.get("L_values", [])
    rows = []
    meta = {"rho_L": {}}
    for b in bs:
        windows = [gap_window(b, int(nb), int(na)) for nb, na in gaps]
        # the bulk IDS does not depend on gamma: one derivative per (b, gap)
        tpis = [2.0 * np.pi * ids_derivative(b, w) for w in windows]
        for g in gs:
            for (nb, na), w, tpi in zip(gaps, windows, tpis):
                cond = edge_conductance(g, b, w, 0.5 * (w.e3 + w.e4), xi_range)
                rows.append([b, g, int(nb), int(na), cond, tpi, abs(tpi - round(tpi))])
    if Ls:
        b, g = bs[0], gs[0]
        w = gap_window(b, *map(int, gaps[0]))
        F = SchwartzFunction.plateau(w.e1, w.e2, w.e3, w.e4)
        rho = edge_density_rho(g, b, F, [float(L) for L in Ls])   # one sweep for every L
        meta["rho_L"] = {str(L): float(r) for L, r in zip(Ls, rho)}
    head = ["b", "gamma", "n_below", "n_above", "conductance",
            "two_pi_ids_derivative", "integer_distance"]
    return head, rows, meta


def _exp_combes_thomas(cfg):
    g = cfg.get("gamma")
    b, xi = cfg["b"], cfg["xi"]
    fib = discretize_fiber(g, xi, b, T_dom=cfg.get("T_dom"), whole_line=g is None)
    x0 = float(cfg.get("x0", 1.0))
    u = float(cfg.get("u", 0.0))
    rows = []
    for C1 in cfg.get("C1_values", [0.25, 0.5, 0.75]):
        for v in cfg.get("v_values", [0.5, 1.0, 2.0]):
            measured, bound = combes_thomas_check(fib, SpectralPoint(u, v), C1, x0)
            rows.append([C1, v, measured, bound, measured / bound])
    return ["C1", "v", "measured", "bound", "ratio"], rows, {}


EXPERIMENTS = {
    "kernel-grid": (_exp_kernel_grid, ["gamma", "lam"],
                    "half-plane kernel K(x, x') on a spatial grid"),
    "edge-decay-fit": (_exp_edge_decay_fit, ["gamma", "lam"],
                       "sampled kernel decay with fitted rate and prefactor"),
    "zigzag-demo": (_exp_zigzag_demo, [],
                    "zigzag zero-mode divergence vs regular-kernel boundedness"),
    "born-series": (_exp_born_series, ["gamma", "lam", "x", "xprime"],
                    "partial Born series with tail bounds (keys w0..w3)"),
    "magnetic-neumann": (_exp_magnetic_neumann, ["b", "gamma"],
                         "dressed magnetic resolvent at the certified lambda0"),
    "schur-sweep": (_exp_schur_sweep, ["gamma"],
                    "Schur estimate of the magnetic off-diagonal term over (b, lam)"),
    "hs-matrix-check": (_exp_hs_matrix_check, [],
                        "contour functional calculus vs eigendecomposition"),
    "fiber-F": (_exp_fiber_F, ["F", "b", "xi"],
                "F(fiber operator) kernel entries (gamma null = whole line)"),
    "edge-bulk-gap": (_exp_edge_bulk_gap, ["gamma", "b"],
                      "edge-minus-bulk diagonal of a gap-window function"),
    "dispersion": (_exp_dispersion, ["gamma", "b"],
                   "fiber eigenvalue branches over a momentum grid"),
    "bulk-edge": (_exp_bulk_edge, [],
                  "edge conductance (eigenvalue counts at the ends of xi_range; "
                  "n_xi unused) vs 2*pi*d/db of the bulk IDS per gap"),
    "combes-thomas": (_exp_combes_thomas, ["b", "xi"],
                      "weighted-resolvent norm vs the (1-C1)^-1 |v|^-1 bound"),
}


def list_experiments():
    lines = []
    for name in EXPERIMENTS:
        fn, req, desc = EXPERIMENTS[name]
        keys = ", ".join(req) if req else "(all keys optional)"
        lines.append(f"{name}: {desc}\n    required config keys: {keys}")
    return "\n".join(lines)


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    problems = []
    name = cfg.get("experiment")
    if name is None:
        problems.append("missing key 'experiment'")
    elif name not in EXPERIMENTS:
        problems.append(
            f"unknown experiment {name!r}; run `dirac-edge list` for choices"
        )
    if "output" not in cfg:
        problems.append("missing key 'output' (path prefix for CSV and metadata)")
    if name in EXPERIMENTS:
        for key in EXPERIMENTS[name][1]:
            if key not in cfg:
                problems.append(f"experiment {name!r} requires config key {key!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def run(config_path):
    cfg = _load_config(config_path)
    name = cfg["experiment"]
    t0 = time.time()
    try:
        header, rows, extra = EXPERIMENTS[name][0](cfg)
    except ConfigError:
        raise
    except (KeyError, ValueError, OverflowError, TypeError) as e:
        raise ConfigError(f"experiment {name!r} rejected the config: {e}")
    out = cfg["output"]
    csv_path = out + ".csv"
    meta = {
        "experiment": name,
        "config": cfg,
        "columns": header,
        "n_rows": len(rows),
        "runtime_seconds": round(time.time() - t0, 3),
    }
    meta.update(extra)
    _write_csv(csv_path, header, rows)
    _write_meta(out + ".meta.json", meta)
    return csv_path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dirac-edge",
        description="half-plane Dirac resolvent experiments",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a JSON config")
    sub.add_parser("list", help="list experiments and their config keys")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command != "run":
        parser.print_help()
        return 2
    try:
        csv_path = run(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except tuple(_EXIT_3_PREFIX) as e:
        prefix = next(p for t, p in _EXIT_3_PREFIX.items() if isinstance(e, t))
        print(f"{prefix}: {e}", file=sys.stderr)
        return 3
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

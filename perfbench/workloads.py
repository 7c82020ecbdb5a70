"""The benchmark's workloads.

A workload builds its inputs from a seed, then runs rounds of a fixed list
of operations.  Each operation calls a public function of a layer through
its module, so a tracer installed on the modules sees the call.  `collect`
reads what the operations wrote or returned; `check` verifies it with the
independent checks in `checks.py`.  The seed changes where the inputs sit
(an offset along the edge, or the eigenvectors of a matrix) and never the
amount of work.
"""

import contextlib
import csv
import io
import json
import os

import numpy as np

import checks
from dirac_edge import cli, closed_form, hs_calculus, kernel_ops, magnetic


def _write_config(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1)
    return path


def _run_cli(config_path):
    with contextlib.redirect_stdout(io.StringIO()):     # the CLI prints the CSV path
        code = cli.main(["run", config_path])
    if code != 0:
        raise RuntimeError(f"dirac-edge run {config_path} exited with {code}")


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _complex_matrix(row):
    return np.array([[complex(float(row[f"K{a}{b}_re"]), float(row[f"K{a}{b}_im"]))
                      for b in "01"] for a in "01"])


class MagneticGrid:
    """magnetic_resolvent at order 3 on the five-point stencil of step 1e-3,
    by the direct and by the mirror (adjoint) assembly, plus the order-0
    value.  The dense edge-kernel matrix on the uniform grid dominates.

    The grid is the library's default (n_grid = 26), the one its tests use.
    Coarser grids make a shorter round but do not converge: the
    direct/mirror gap is not monotone in n_grid and breaks 1e-3 at 16 and 20.
    """

    B, LAM, GAMMA, ORDER, HFD = 0.5, 8.0, 1.0, 3, 1e-3

    def __init__(self, seed, outdir):
        shift = np.random.default_rng(seed).uniform(-2.0, 2.0)
        self.x0 = np.array([0.1 + shift, 0.45])
        self.xp = np.array([0.3 + shift, 0.6])
        h = self.HFD
        self.X = self.x0 + np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
        self.operations = [
            ("direct", lambda: magnetic.magnetic_resolvent(
                self.B, None, self.GAMMA, self.LAM, self.ORDER, self.X, self.xp)),
            ("mirror", lambda: magnetic.magnetic_resolvent(
                self.B, None, self.GAMMA, self.LAM, self.ORDER, self.X, self.xp,
                adjoint=True)),
            ("order0", lambda: magnetic.magnetic_resolvent(
                self.B, None, self.GAMMA, self.LAM, 0, self.X, self.xp)),
        ]

    def collect(self, results):
        return results

    def check(self, out):
        direct, tail = out["direct"]
        return checks.magnetic_checks(direct, out["mirror"][0], out["order0"][0], tail,
                                      self.x0, self.HFD, self.B, self.LAM)


class BornQuadrature:
    """The born-series CLI experiment at orders 0 and 1 (compose2 on polar
    quadrature nodes) and the order-2 term compose3 on a reduced plan.

    The full order-2 Born call takes about 77 s (1.45 M kernel points), more
    than one run may take, so the order-2 value is the CLI's order-1 value
    plus compose3 on a plan of 4 angles x 2 radial panels x 4 nodes: 64
    outer nodes and about 0.12 M kernel points.
    """

    GAMMA, LAM, W3 = 1.0, 2.0, 0.2
    PLAN = dict(n_angular=4, radial_panels=2, radial_nodes=4, max_refinements=0)

    def __init__(self, seed, outdir):
        shift = np.random.default_rng(seed).uniform(-2.0, 2.0)
        self.x = np.array([0.3 + shift, 0.8])
        self.xp = np.array([1.0 + shift, 0.4])
        self.stem = os.path.join(outdir, "born_series")
        self.config = _write_config(os.path.join(outdir, "born_series.json"), {
            "experiment": "born-series", "output": self.stem,
            "gamma": self.GAMMA, "lam": self.LAM, "w3": self.W3,
            "x": self.x.tolist(), "xprime": self.xp.tolist(), "orders": [0, 1],
        })
        self.W = kernel_ops.PotentialField.constant(w3=self.W3)
        self.K = kernel_ops.resolvent_kernel(self.GAMMA, self.LAM)
        self.plan = kernel_ops.CompositionPlan.for_pair(self.x, self.xp, lam=self.LAM, **self.PLAN)
        self._oracle = None
        self.operations = [
            ("cli_born_series", lambda: _run_cli(self.config)),
            ("compose3", lambda: kernel_ops.compose3(
                self.K, self.W, self.K, self.W, self.K, self.x, self.xp, plan=self.plan)),
        ]

    def collect(self, results):
        rows = _read_csv(self.stem + ".csv")
        return {"rows": rows, "compose3": results["compose3"]}

    def check(self, out):
        if self._oracle is None:
            self._oracle = checks.massive_halfplane_kernel(self.W3, self.LAM, self.GAMMA,
                                                           self.x, self.xp)
        ratio = self.W.sup_norm / self.LAM
        orders = [(_complex_matrix(r), float(r["tail_bound"]), float(r["error"]))
                  for r in sorted(out["rows"], key=lambda r: int(r["order"]))]
        c3 = out["compose3"]
        v1, _, e1 = orders[1]
        orders.append((v1 + c3.value, checks.born_tail_bound(ratio, self.LAM, 2), e1 + c3.error))
        return checks.born_checks(orders, self._oracle, ratio, self.LAM)


class FiberSpectral:
    """Every 1-D layer: the bulk-edge CLI experiment (dispersion curves, edge
    conductance, IDS derivative, edge densities), hs_apply_matrix on a
    seeded Hermitian matrix, and apply_fiber_resolvent for three (gamma, xi).

    Reduced from the acceptance settings to fit a run: n_xi = 60 (default
    170) on the same xi range, and the fiber resolvent on h = 2e-3 (not
    1e-3) over [0, 3].  The matrix has a fixed spectrum and seeded random
    eigenvectors: a GUE draw changes the spectrum and with it the number of
    quadrature refinements, hence the work.
    """

    B = 1.0
    HS_DIM, HS_N = 12, 4
    H_STEP, T_MAX = 2e-3, 3.0
    PAIRS = ((0.5, -2.0), (1.0, 0.0), (2.0, 2.0))
    GAPS = [[0, 0], [1, 1]]

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.stem = os.path.join(outdir, "bulk_edge")
        self.config = _write_config(os.path.join(outdir, "bulk_edge.json"), {
            "experiment": "bulk-edge", "output": self.stem,
            "b_values": [self.B], "gamma_values": [0.5, 1.0, 2.0],
            "gaps": self.GAPS, "L_values": [4.0, 8.0], "n_xi": 60,
        })
        self.E = np.linspace(-2.5, 4.5, self.HS_DIM)
        Q, _ = np.linalg.qr(rng.normal(size=(self.HS_DIM,) * 2)
                            + 1j * rng.normal(size=(self.HS_DIM,) * 2))
        self.Q = Q
        H = (Q * self.E) @ Q.conj().T
        self.H = (H + H.conj().T) / 2.0
        self.F = hs_calculus.SchwartzFunction.gaussian(1.0, 0.5)
        t = self.H_STEP * np.arange(int(round(self.T_MAX / self.H_STEP)) + 1)
        bump = np.exp(-((t - 1.5) ** 2) / 0.1)
        self.psi = np.stack([bump * (1 + 0.3j), bump * 0.2 * t], axis=1)
        self.operations = [
            ("cli_bulk_edge", lambda: _run_cli(self.config)),
            ("hs_apply_matrix", lambda: hs_calculus.hs_apply_matrix(self.F, self.HS_N, self.H)),
        ] + [
            (f"fiber_resolvent_{g:g}_{xi:g}",
             lambda g=g, xi=xi: closed_form.apply_fiber_resolvent(g, xi, self.psi, self.H_STEP))
            for g, xi in self.PAIRS
        ]

    def collect(self, results):
        with open(self.stem + ".meta.json") as f:
            meta = json.load(f)
        out = dict(results)
        out["rows"] = _read_csv(self.stem + ".csv")
        out["rho_L"] = {float(L): v for L, v in meta["rho_L"].items()}
        return out

    def check(self, out):
        count = sum(self.GAPS[0]) + 1
        found = checks.bulk_edge_checks(out["rows"], out["rho_L"], self.B, count)
        exact = (self.Q * self.F(self.E)) @ self.Q.conj().T
        found += checks.hs_checks(out["hs_apply_matrix"], exact)
        for g, xi in self.PAIRS:
            found += checks.fiber_resolvent_checks(
                out[f"fiber_resolvent_{g:g}_{xi:g}"], self.psi, g, xi, self.H_STEP)
        return found


WORKLOADS = {
    "magnetic-grid": MagneticGrid,
    "born-quadrature": BornQuadrature,
    "fiber-spectral": FiberSpectral,
}

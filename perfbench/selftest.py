"""Shows that each correctness check fails when the output it reads is perturbed.

    python3 perfbench/selftest.py

Runs one round of every workload (about 60 s), asserts that all checks pass
on the real outputs, then perturbs one output at a time and asserts that
the check reading it fails.
"""

import copy
import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bump_csv(row, key, delta):
    row[key] = repr(float(row[key]) + delta)


def _stencil(out, name, fn):
    vals, tail = out[name]
    vals = vals.copy()
    fn(vals)
    out[name] = (vals, tail)


def _shift_c3(out, delta):
    c3 = out["compose3"]
    out["compose3"] = dataclasses.replace(c3, value=c3.value + delta)


def _scale_point(i, factor):
    def fn(vals):
        vals[i] *= factor
    return fn


def _add_all(delta):
    def fn(vals):
        vals += delta
    return fn


def _swap_rho(out):
    a, b = sorted(out["rho_L"])
    out["rho_L"][a], out["rho_L"][b] = out["rho_L"][b], out["rho_L"][a]


def _hs_offdiag(delta, hermitian):
    def fn(out):
        m = out["hs_apply_matrix"].copy()
        m[0, 1] += delta
        if hermitian:
            m[1, 0] += delta
        out["hs_apply_matrix"] = m
    return fn


def _phi(key, fn):
    def apply(out):
        phi = out[key].copy()
        fn(phi)
        out[key] = phi
    return apply


def _bump_interior(phi):
    phi[phi.shape[0] // 2] += 1e-3


def _bump_boundary(phi):
    phi[0, 1] += 1e-6 * abs(phi).max()


PERTURBATIONS = {
    "magnetic-grid": [
        ("magnetic.direct_fd_residual", lambda o: _stencil(o, "direct", _scale_point(1, 1 + 1e-3))),
        ("magnetic.mirror_fd_residual", lambda o: _stencil(o, "mirror", _scale_point(3, 1 + 1e-3))),
        ("magnetic.tail", lambda o: o.__setitem__("direct", (o["direct"][0], 1e-6))),
        ("magnetic.mirror_agrees", lambda o: _stencil(o, "mirror", _add_all(2e-3))),
        ("magnetic.mirror_within_half_first_order",
         lambda o: o.__setitem__("order0", o["direct"])),
    ],
    "born-quadrature": [
        ("born.order0_within_bound", lambda o: _bump_csv(o["rows"][0], "K00_re", 0.1)),
        ("born.order1_within_bound", lambda o: _bump_csv(o["rows"][1], "K00_re", 1e-2)),
        ("born.order2_within_bound", lambda o: _shift_c3(o, 1e-3)),
        ("born.order2_diff", lambda o: _shift_c3(o, 2e-3)),
        ("born.contraction", lambda o: _shift_c3(o, 2e-4)),
    ],
    "fiber-spectral": [
        ("fiber.conductance_is_level_count", lambda o: o["rows"][0].__setitem__("conductance", "2")),
        ("fiber.ids_derivative_is_level_count",
         lambda o: _bump_csv(o["rows"][0], "two_pi_ids_derivative", 0.05)),
        ("fiber.rho_L_approaches_bulk", _swap_rho),
        ("fiber.resolvent_fd_residual", _phi("fiber_resolvent_1_0", _bump_interior)),
        ("fiber.resolvent_boundary", _phi("fiber_resolvent_2_2", _bump_boundary)),
        ("hs.matches_eigendecomposition", _hs_offdiag(1e-5, hermitian=True)),
        ("hs.hermitian", _hs_offdiag(1e-9, hermitian=False)),
    ],
}


class CheckPerturbation(unittest.TestCase):
    pass


def _make(name):
    def test(self):
        outdir = os.path.join(HERE, "out", "selftest", name)
        os.makedirs(outdir, exist_ok=True)
        workload = WORKLOADS[name](0, outdir)
        _, _, results, failed = run_round(workload)
        self.assertEqual(failed, 0)
        out = workload.collect(results)
        clean = workload.check(out)
        self.assertTrue(clean)
        self.assertEqual([c for c in clean if not c[1]], [])
        names = {c[0] for c in clean}
        for target, perturb in PERTURBATIONS[name]:
            self.assertIn(target, names)
            bad = copy.deepcopy(out)
            perturb(bad)
            failing = {c[0] for c in workload.check(bad) if not c[1]}
            with self.subTest(check=target):
                self.assertIn(target, failing)
        self.assertEqual(names, {t for t, _ in PERTURBATIONS[name]})
    return test


for _name in WORKLOADS:
    setattr(CheckPerturbation, "test_" + _name.replace("-", "_"), _make(_name))


class TracerWrapsCopies(unittest.TestCase):
    def test_by_name_copies_are_wrapped_and_restored(self):
        import numpy as np
        from dirac_edge import cli, edge_kernel, kernel_ops, magnetic
        from tracer import Tracer, breakdown

        orig = edge_kernel.halfplane_kernel_batch
        tracer = Tracer()
        tracer.install()
        try:
            for mod in (edge_kernel, kernel_ops, magnetic, cli):
                self.assertIsNot(mod.halfplane_kernel_batch, orig)
            tracer.op = "probe"
            K = kernel_ops.resolvent_kernel(1.0, 2.0)
            K(np.array([[0.1, 0.5], [0.2, 0.7]]), np.array([[0.4, 0.3], [0.9, 0.2]]))
        finally:
            tracer.uninstall()
        for mod in (edge_kernel, kernel_ops, magnetic, cli):
            self.assertIs(mod.halfplane_kernel_batch, orig)
        spans = {s.name: s for s in tracer.spans}
        outer = spans["edge_kernel.halfplane_kernel_batch"]
        self.assertEqual(spans["edge_kernel.edge_F_batch"].parent, outer.id)
        self.assertEqual({s.op for s in tracer.spans}, {"probe"})
        metrics = breakdown(tracer.spans)
        self.assertEqual(metrics["edge_kernel.batch_points"][0], 2)
        self.assertGreater(metrics["edge_kernel.batch_s"][0], 0.0)


if __name__ == "__main__":
    unittest.main()

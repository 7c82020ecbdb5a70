import importlib

import numpy as np
import pytest

from dirac_edge import fiber, magnetic
from dirac_edge.core import QuadratureError
from dirac_edge.edge_kernel import edge_F_direct
from dirac_edge.fiber import edge_bulk_diagonal_gap, edge_density_rho, gap_window
from dirac_edge.hs_calculus import HsQuadrature, SchwartzFunction, fiber_F_kernel, hs_apply_matrix
from dirac_edge.kernel_ops import CompositionPlan, PotentialField, compose2, resolvent_kernel
from dirac_edge.magnetic import schur_norm_Tb


def _compose2_strict():
    x, xp = np.array([0.3, 0.8]), np.array([1.0, 0.4])
    plan = CompositionPlan.for_pair(x, xp, lam=2.0, n_angular=4, radial_panels=2,
                                    radial_nodes=3, tol=1e-30, max_refinements=1)
    K = resolvent_kernel(1.0, 2.0)
    return compose2(K, PotentialField.constant(w3=0.2), K, x, xp, plan=plan)


def _hs_strict():
    H = np.diag([-1.0, 0.5, 2.0]) + 0.1 * (np.eye(3, k=1) + np.eye(3, k=-1))
    quad = HsQuadrature(u_panels=4, v_nodes=4, tol=1e-30, max_refinements=1)
    return hs_apply_matrix(SchwartzFunction.gaussian(1.0, 0.5), 4, H, quad=quad)


def _gap(monkeypatch, max_extensions):
    # the xi-tail settings are module constants of fiber; a stride of 24
    # orbit-lattice nodes is the xi step 0.5 at b = 1
    monkeypatch.setattr(fiber, "_XI_STRIDE", 24)
    monkeypatch.setattr(fiber, "_TAIL_TOL", 0.0)
    monkeypatch.setattr(fiber, "_MAX_EXTENSIONS", max_extensions)
    F = SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2)
    return edge_bulk_diagonal_gap(F, 1.0, 1.0, [0.5])


def _rho_step(monkeypatch):
    # twelve times the default fiber step: the xi-tail still converges, the
    # measured step error does not
    monkeypatch.setattr(fiber, "_FIBER_STEP", 0.25)
    w = gap_window(1.0, 0, 0)
    return edge_density_rho(1.0, 1.0, SchwartzFunction.plateau(w.e1, w.e2, w.e3, w.e4), 4.0)


def _gap_step(monkeypatch):
    # twelve times the default fiber step: the xi-tail still converges, the
    # measured step error of the steps h/2 and h/4 does not
    monkeypatch.setattr(fiber, "_FIBER_STEP", 0.25)
    return edge_bulk_diagonal_gap(SchwartzFunction.plateau(-1.2, -0.2, 0.2, 1.2), 1.0, 1.0, [0.5])


def _schur_strict(monkeypatch):
    monkeypatch.setattr(magnetic, "_SCHUR_TOL", 1e-30)
    monkeypatch.setattr(magnetic, "_SCHUR_MAX_EXTENSIONS", 2)
    return schur_norm_Tb(0.5, None, 1.0, 8.0)


# each adaptive routine, forced to run out of refinements or tail extensions
# (a tolerance of 0 is never met); each runner takes pytest's monkeypatch, and
# the flag says whether it made at least two estimates
FAILING = {
    "edge_F_direct": (lambda mp: edge_F_direct(1.0, 1.0, 1.0, tol=1e-30), True),
    "compose2": (lambda mp: _compose2_strict(), True),
    "hs_apply_matrix": (lambda mp: _hs_strict(), True),
    "fiber_F_kernel": (lambda mp: fiber_F_kernel(
        SchwartzFunction.gaussian(0.0, 0.35), 1.0, 1.0, 0.0, 0.5, 1.0, h=1.0 / 64,
        T_dom=6.0, rich_tol=1e-12), True),
    "schur_norm_Tb": (_schur_strict, True),
    "edge_bulk_diagonal_gap_ext1": (lambda mp: _gap(mp, 1), True),
    "edge_bulk_diagonal_gap_ext0": (lambda mp: _gap(mp, 0), False),
    "edge_bulk_diagonal_gap_step": (_gap_step, True),
    "edge_density_rho_step": (_rho_step, True),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_non_convergence_raises_quadrature_error_with_iterates(name, monkeypatch):
    run, two_estimates = FAILING[name]
    with pytest.raises(QuadratureError, match="not converged") as exc:
        run(monkeypatch)
    assert exc.value.last is not None
    if two_estimates:
        assert exc.value.previous is not None
        assert exc.value.previous is not exc.value.last
    else:
        # one estimate (no tail was added): there is no previous iterate
        assert exc.value.previous is None


LAYERS = ["closed_form", "edge_kernel", "kernel_ops", "magnetic", "hs_calculus", "fiber"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # a stale __all__ entry breaks `from module import *` and every tool
    # that looks the exported names up one by one
    mod = importlib.import_module(f"dirac_edge.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    # every public name is re-exported from the package, and belongs to one layer
    package = importlib.import_module("dirac_edge")
    assert [name for name in mod.__all__ if not hasattr(package, name)] == []
    owners = {name: [other for other in LAYERS
                     if name in importlib.import_module(f"dirac_edge.{other}").__all__]
              for name in mod.__all__}
    assert {name: layers for name, layers in owners.items() if layers != [layer]} == {}

import csv
import json
import warnings

import numpy as np
import pytest

from dirac_edge import edge_kernel, fiber
from dirac_edge.cli import list_experiments, main
from dirac_edge.edge_kernel import ContourConfig, halfplane_kernel_batch

ALL_EXPERIMENTS = [
    "kernel-grid", "edge-decay-fit", "zigzag-demo", "born-series",
    "magnetic-neumann", "schur-sweep", "hs-matrix-check", "fiber-F",
    "edge-bulk-gap", "dispersion", "bulk-edge", "combes-thomas",
]


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_list_enumerates_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_EXPERIMENTS:
        assert name in out
    # help text names the required keys
    assert "required config keys" in out
    assert len(list_experiments().splitlines()) == 2 * len(ALL_EXPERIMENTS)


def test_kernel_grid_run_is_deterministic(tmp_path):
    cfg = {"experiment": "kernel-grid", "output": str(tmp_path / "kg"),
           "gamma": 1.0, "lam": 1.0, "n": 7}
    path = _write_cfg(tmp_path, cfg)
    assert main(["run", path]) == 0
    first = (tmp_path / "kg.csv").read_bytes()
    rows = _read_rows(tmp_path / "kg.csv")
    assert {"x1", "x2", "K00_re", "K00_im", "K11_im"} <= set(rows[0])
    # spot value against the kernel itself
    r = rows[0]
    K = halfplane_kernel_batch(1.0, 1.0, [float(r["x1"]), float(r["x2"])], [0.0, 0.5],
                               ContourConfig())
    assert abs(complex(float(r["K00_re"]), float(r["K00_im"])) - K[0, 0]) < 1e-12
    # sidecar carries the resolved config; rerun is byte-identical
    meta = json.loads((tmp_path / "kg.meta.json").read_text())
    assert meta["config"] == cfg and meta["n_rows"] == len(rows)
    assert main(["run", path]) == 0
    assert (tmp_path / "kg.csv").read_bytes() == first


def test_missing_config_exits_2_without_outputs(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_validation_aggregates_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2

    path = _write_cfg(tmp_path, {"experiment": "nope", "output": "x"}, "unk.json")
    assert main(["run", path]) == 2
    assert "unknown experiment" in capsys.readouterr().err

    path = _write_cfg(tmp_path, {"experiment": "born-series"}, "inc.json")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    # one aggregated diagnostic naming every missing key
    for key in ("output", "gamma", "lam", "x", "xprime"):
        assert f"'{key}'" in err


def test_module_precondition_maps_to_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, {
        "experiment": "born-series", "output": str(tmp_path / "b"),
        "gamma": 1.0, "lam": 2.0, "w0": 5.0,
        "x": [0.3, 0.8], "xprime": [1.0, 0.4],
    })
    assert main(["run", path]) == 2
    assert "convergence regime" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_negative_field_in_schur_sweep_exits_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, {
        "experiment": "schur-sweep", "output": str(tmp_path / "s"),
        "gamma": 1.0, "b_values": [-0.5], "lam_values": [2.0],
    })
    assert main(["run", path]) == 2
    assert "flux density" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_non_finite_field_in_fiber_F_exits_2(tmp_path, capsys):
    # JSON reads 1e400 as inf, which the fiber's field check refuses
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "fiber-F", "output": str(tmp_path / "f"),
        "F": {"type": "gaussian", "center": 0.0, "sigma": 0.35},
        "gamma": 1.0, "b": "B", "xi": 0.0,
    }).replace('"B"', "1e400"))
    assert main(["run", str(path)]) == 2
    assert "flux density b must be finite and positive, got inf" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_edge_bulk_gap_slope_needs_two_points(tmp_path):
    # one x2 >= 2 fits no slope: null, where a one-point fit warned
    path = _write_cfg(tmp_path, {
        "experiment": "edge-bulk-gap", "output": str(tmp_path / "g"),
        "gamma": 1.0, "b": 1.0, "x2_values": [0.2, 3.0],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path]) == 0
    assert json.loads((tmp_path / "g.meta.json").read_text())["loglog_slope"] is None
    assert len(_read_rows(tmp_path / "g.csv")) == 2


def test_edge_bulk_gap_step_error_exits_3(tmp_path, capsys, monkeypatch):
    # twelve times the default fiber step: the measured step error of the
    # gap's Richardson steps is past its tolerance
    monkeypatch.setattr(fiber, "_FIBER_STEP", 0.25)
    path = _write_cfg(tmp_path, {
        "experiment": "edge-bulk-gap", "output": str(tmp_path / "g"),
        "gamma": 1.0, "b": 1.0, "x2_values": [0.5, 3.0],
    })
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical non-convergence:") and "fiber step not converged" in err
    assert not (tmp_path / "g.csv").exists()


def test_nonconvergence_maps_to_exit_3(tmp_path, capsys):
    path = _write_cfg(tmp_path, {
        "experiment": "fiber-F", "output": str(tmp_path / "f"),
        "F": {"type": "gaussian", "center": 0.0, "sigma": 0.35},
        "gamma": 1.0, "b": 1.0, "xi": 0.0,
        "t_values": [0.5], "tprime_values": [1.0],
        "h": 1.0 / 64, "T_dom": 6.0, "rich_tol": 1e-12,
    })
    assert main(["run", path]) == 3
    assert "non-convergence" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_eigensolver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # a bisection tolerance of 1 fails the Ritz residual check of the fiber
    # eigensolve; its EigensolverError is a RuntimeError
    monkeypatch.setattr(fiber, "_BISECT_TOL", 1.0)
    path = _write_cfg(tmp_path, {
        "experiment": "fiber-F", "output": str(tmp_path / "f"),
        "F": {"type": "gaussian", "center": 0.0, "sigma": 0.35},
        "gamma": 1.0, "b": 1.0, "xi": 0.0,
        "t_values": [0.5], "tprime_values": [1.0], "T_dom": 6.0,
    })
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("eigensolver failure:") and "Ritz residual" in err
    assert "non-convergence" not in err
    assert not (tmp_path / "f.csv").exists()


def test_contour_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # every contour sum moved onto the line eps/2 below the pole line of the
    # reflection factor breaks the denominator safety bound (sin eps)
    trapezoid = edge_kernel._trapezoid

    def past_the_bound(g, r, theta, shift, eps, refinement):
        return trapezoid(g, r, np.full_like(theta, np.pi / 2), eps / 2, eps, refinement)

    monkeypatch.setattr(edge_kernel, "_trapezoid", past_the_bound)
    path = _write_cfg(tmp_path, {"experiment": "kernel-grid", "output": str(tmp_path / "kg"),
                                 "gamma": 1.0, "lam": 1.0, "n": 3})
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("contour failure:") and "safety bound" in err
    assert "non-convergence" not in err
    assert not (tmp_path / "kg.csv").exists()


def test_branch_matching_failure_maps_to_exit_3(tmp_path, capsys):
    # 12 momenta on [-8, 2] are too coarse to follow three Landau branches
    path = _write_cfg(tmp_path, {
        "experiment": "dispersion", "output": str(tmp_path / "d"),
        "gamma": 1.0, "b": 1.0, "xi_range": [-8.0, 2.0], "n_xi": 12, "n_branches": 3,
    })
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("branch matching failure:") and "branch matching failed" in err
    assert "non-convergence" not in err
    assert not (tmp_path / "d.csv").exists()


def test_zigzag_demo_reports_anomaly_slope(tmp_path):
    path = _write_cfg(tmp_path, {"experiment": "zigzag-demo",
                                 "output": str(tmp_path / "zz")})
    assert main(["run", path]) == 0
    meta = json.loads((tmp_path / "zz.meta.json").read_text())
    assert abs(meta["zigzag_slope"] + 2.0) < 0.01
    # the non-zigzag kernel stays bounded over the same boundary approach
    assert meta["regular_max"] < 1.0


def test_born_series_experiment_rows(tmp_path):
    path = _write_cfg(tmp_path, {
        "experiment": "born-series", "output": str(tmp_path / "b"),
        "gamma": 1.0, "lam": 2.0, "w3": 0.2,
        "x": [0.3, 0.8], "xprime": [1.0, 0.4], "orders": [0, 1],
    })
    assert main(["run", path]) == 0
    rows = _read_rows(tmp_path / "b.csv")
    assert [r["order"] for r in rows] == ["0", "1"]
    K = halfplane_kernel_batch(1.0, 2.0, [0.3, 0.8], [1.0, 0.4], ContourConfig())
    assert abs(complex(float(rows[0]["K01_re"]), float(rows[0]["K01_im"]))
               - K[0, 1]) < 1e-12
    tails = [float(r["tail_bound"]) for r in rows]
    assert tails[0] > tails[1] > 0.0


def test_combes_thomas_experiment_within_bound(tmp_path):
    path = _write_cfg(tmp_path, {
        "experiment": "combes-thomas", "output": str(tmp_path / "ct"),
        "gamma": 1.0, "b": 1.0, "xi": 0.0,
        "C1_values": [0.5], "v_values": [1.0],
    })
    assert main(["run", path]) == 0
    rows = _read_rows(tmp_path / "ct.csv")
    assert len(rows) == 1
    assert float(rows[0]["bound"]) == pytest.approx(2.0)
    assert float(rows[0]["measured"]) <= 1.1 * float(rows[0]["bound"])



def test_bulk_edge_run_reports_rho_for_every_L(tmp_path):
    path = _write_cfg(tmp_path, {
        "experiment": "bulk-edge", "output": str(tmp_path / "be"),
        "b_values": [1.0], "gamma_values": [1.0], "gaps": [[0, 0]], "L_values": [4, 8],
    })
    assert main(["run", path]) == 0
    rows = _read_rows(tmp_path / "be.csv")
    assert len(rows) == 1 and float(rows[0]["conductance"]) == 1.0
    rho = json.loads((tmp_path / "be.meta.json").read_text())["rho_L"]
    assert sorted(rho) == ["4", "8"]
    # the gap (0, 0) window holds one Landau level: bulk value b / 2pi
    bulk = 1.0 / (2.0 * np.pi)
    assert abs(rho["4"] - bulk) > abs(rho["8"] - bulk)

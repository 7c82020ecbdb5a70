"""The benchmark's span tracer (perfbench/tracer.py) against the library.

The tracer wraps every public function of each layer and the private grid
builders it names in PRIVATE.  A renamed or deleted name should fail here,
not in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_builds_installs_and_uninstalls():
    tracer_mod = _tracer_module()
    private = [(importlib.import_module(f"dirac_edge.{layer}"), name)
               for layer, names in tracer_mod.PRIVATE.items() for name in names]
    orig = {name: getattr(mod, name) for mod, name in private}
    core = importlib.import_module("dirac_edge.core")
    bracket = core.bracket_xi
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for mod, name in private:
            assert getattr(mod, name) is not orig[name]
            assert getattr(mod, name).__wrapped__ is orig[name]
        tracer.op = "probe"
        assert core.bracket_xi(0.0) == 1.0
    finally:
        tracer.uninstall()
    for mod, name in private:
        assert getattr(mod, name) is orig[name]
    assert core.bracket_xi is bracket
    assert [(s.op, s.name) for s in tracer.spans] == [("probe", "core.bracket_xi")]

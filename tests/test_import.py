import os
import subprocess
import sys

import dirac_edge

# The package and its kernel layers run on numpy alone: scipy's LAPACK is
# imported on the first fiber eigensolve (or Helffer-Sjostrand reduction).
_PROBE = """
import sys

import numpy as np

import dirac_edge as de

de.bulk_plane_kernel(1.0, np.array([0.3, 0.4]))
de.halfplane_kernel_batch(1.0, 2.0, [[0.3, 0.8], [1.2, 0.1]], [[1.0, 0.4], [0.2, 0.6]])
de.born_series(1.0, de.PotentialField.constant(w3=0.2), 2.0, 1, [0.3, 0.8], [1.0, 0.4])
loaded = [m for m in sys.modules if m.startswith("scipy")]
assert not loaded, loaded
de.discretize_fiber(1.0, 0.0, 1.0).eigenvalues(-2.0, 2.0)
assert "scipy.linalg" in sys.modules
"""


def test_kernel_layers_import_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirac_edge.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr

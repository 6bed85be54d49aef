import os
import subprocess
import sys
from pathlib import Path

import bosonsim

# Every bosonsim module plus the lazy sparse import of truncation_defect,
# as a process that never runs a flow loads them.
IMPORT_ALL = """
import importlib, pkgutil, sys
import bosonsim, scipy.sparse.linalg
for mod in pkgutil.iter_modules(bosonsim.__path__):
    importlib.import_module("bosonsim." + mod.name)
print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""


def test_package_import_leaves_the_ode_integrator_unloaded():
    # wegner_flow imports scipy.integrate when called; loading it with the
    # package would add ~40 ms and ~2 MiB to every process
    env = dict(os.environ, PYTHONPATH=str(Path(bosonsim.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

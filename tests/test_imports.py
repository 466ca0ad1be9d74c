"""The library runs on numpy and pyyaml alone; scipy is a test dependency."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Blocks scipy, then imports every module of the package.
PROBE = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import dualpf
for info in pkgutil.iter_modules(dualpf.__path__):
    importlib.import_module("dualpf." + info.name)
print(len(list(pkgutil.iter_modules(dualpf.__path__))))
"""


def test_every_module_imports_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(list(SRC.glob("dualpf/*.py"))) - 1

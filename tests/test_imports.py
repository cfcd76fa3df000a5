"""Every module imports on its own: the package root loads none of them, so
an import cycle between two modules fails whichever of them comes first."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "airvote").glob("*.py") if path.stem != "__init__")

# Imports the root, then each module named in argv as the first airvote module
# of the interpreter: every airvote entry of sys.modules goes before each import.
SCRIPT = """
import importlib, sys
import airvote
assert [name for name in sys.modules if name.startswith("airvote.")] == [], "the root imports a module"
for module in sys.argv[1:]:
    for name in [name for name in sys.modules if name.split(".")[0] == "airvote"]:
        del sys.modules[name]
    importlib.import_module("airvote." + module)
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    assert len(MODULES) == 8
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, *MODULES],
                            capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr

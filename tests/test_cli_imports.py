"""Importing ``topoclass.cli`` loads every layer the traced benchmark wraps.

``pipebench.tracing.install`` imports ``topoclass.cli`` and then reads each
``topoclass.<layer>`` of ``tracing.LAYERS`` from ``sys.modules``.  Here
``conftest`` has already imported every module, so the check runs in a
fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import topoclass

ROOT = Path(__file__).resolve().parent.parent


def test_importing_cli_loads_every_traced_layer():
    src = str(Path(topoclass.__file__).resolve().parent.parent)
    code = (
        f"import json, sys; sys.path[:0] = [{src!r}, {str(ROOT)!r}]; import topoclass.cli; "
        "loaded = sorted(sys.modules); from pipebench.tracing import LAYERS; "
        "print(json.dumps([sorted(LAYERS), loaded]))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    layers, loaded = json.loads(done.stdout)
    missing = [layer for layer in layers if f"topoclass.{layer}" not in loaded]
    assert len(layers) >= 7 and missing == []

"""The README tour at 100 points per class, byte for byte against a checked-in manifest.

``tools/readme_tour.sh SRC OUT 100`` runs the quick tour, the 4-class leg
and the ``isomap --largest-component`` leg into OUT, logging each command's
stdout, stderr and exit code under ``OUT/log``.  The manifest
``tests/golden/readme_tour_100.sha256`` holds the SHA-256 of every file the
tour leaves in OUT, so it covers the outputs and the logs alike.  Its
header records the numpy version and BLAS build it was made with; the
README promises the bytes only on the same build, so elsewhere the test
skips and says why.

A change that means to change bytes regenerates the manifest with

    PYTHONPATH=src python tests/test_readme_tour.py

and lists the files that changed.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "readme_tour_100.sha256"
PER_CLASS = 100


def build():
    """What the bytes depend on besides the code: ``{"numpy": ..., "blas": ...}``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def tour_digests(out):
    """Run the tour into the new directory ``out``; ``{path under out: SHA-256}``."""
    done = subprocess.run(
        ["bash", str(ROOT / "tools" / "readme_tour.sh"), str(ROOT), str(out), str(PER_CLASS)],
        env={**os.environ, "PYTHON": sys.executable},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def read_manifest():
    """The manifest's ``(build, digests)``: ``# key: value`` header lines, then sha256sum lines."""
    made_with, digests = {}, {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            made_with[key] = value
        else:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return made_with, digests


def write_manifest(digests):
    lines = [f"# {key}: {value}" for key, value in build().items()]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_readme_tour_writes_the_manifest_bytes(tmp_path):
    made_with, expected = read_manifest()
    if made_with != build():
        pytest.skip(f"{MANIFEST.name} was made with {made_with}, this host has {build()}")
    got = tour_digests(tmp_path / "tour")
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert not differ, f"tour files whose bytes differ from {MANIFEST.name}: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(tour_digests(Path(tmp) / "tour"))
    print(f"wrote {MANIFEST}")

"""The library's packaging promises: stdlib-only at run time, and a
setup script that reports the package's real name and version."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import sys

before = set(sys.modules)
import repro, repro.cli, repro.service.api, repro.store
from repro import BSSROptions, SkySREngine, datasets

data = datasets.mini_city()
engine = SkySREngine(
    data.network,
    data.forest,
    options=BSSROptions(use_landmarks=True, use_contraction=True),
)
result = engine.query(data.landmarks["vq"], ["Asian Restaurant", "Gift Shop"])
assert result.routes, "mini_city query found no route"
assert "numpy" not in sys.modules, "numpy was imported"
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
assert not third_party, third_party
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_library_imports_no_third_party_package():
    proc = _run("-c", _CHILD)
    assert proc.returncode == 0, proc.stderr


def test_setup_script_reports_package_metadata():
    proc = _run("setup.py", "--name", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", repro.__version__]

"""Packaging for the ``repro`` library (a plain setuptools script).

The package lives under ``src/``; its version is read from
``src/repro/__init__.py`` so the string has one home.  The library has
no runtime dependencies.  Install with ``pip install .`` (or
``pip install -e . --no-use-pep517`` where the ``wheel`` package is
unavailable for a PEP 660 editable install).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)

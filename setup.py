"""Setup shim: with no arguments, setuptools discovers ``src/repro`` (the
src layout) as the package ``repro``.  Install with ``pip install -e .
--no-use-pep517`` where the ``wheel`` package that PEP 660 editable builds
need is absent."""
from setuptools import setup

setup()

"""Packaging for the ``repro`` library (the code under ``src/``).

The repository has no ``pyproject.toml``: this file is the whole package
description.  Tests, benchmarks and examples run from a checkout with
``PYTHONPATH=src`` and need no install; ``pip install -e .`` makes
``repro`` importable from anywhere else.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)

"""Packaging metadata for the reproduction.

The environment this reproduction targets has no ``wheel`` package, so
PEP 517 editable installs fail; this classic setup.py enables
``pip install -e . --no-use-pep517 --no-build-isolation``.

numpy is a hard runtime dependency: the trace layer stores change
arrays, the builder precomputes the global update schedule, and the
vectorized simulation kernel evaluates Eq. (3)/Eq. (7)/flooding/tag
cover over whole dependent sets as array operations.
"""

from setuptools import find_packages, setup

setup(
    name="repro-shah-vldb02",
    version="0.6.0",
    description=(
        "Reproduction of Shah, Ramamritham & Shenoy (VLDB 2002): "
        "resilient and coherency-preserving dissemination of dynamic "
        "data using cooperating repositories"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark", "networkx"],
        "docs": ["mkdocs"],
    },
)

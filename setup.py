"""Setuptools entry point: the package metadata and runtime dependencies.

``pip install -e .`` installs ``repro`` from ``src/`` together with its
runtime dependencies; the test dependencies (``pytest``,
``pytest-benchmark``, ``hypothesis``) are installed separately.
``tests/test_packaging.py`` checks that every third-party module imported
under ``src/repro`` is listed in ``install_requires``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Tracking set correlations at large scale: a distributed "
    "tag-correlation pipeline",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy",
        "networkx",
        # networkx.laplacian_matrix (the SPECTRAL partitioner) needs scipy.
        "scipy",
    ],
)

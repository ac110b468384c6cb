"""Setuptools entry point: the project's only packaging metadata.

A plain ``setup.py`` keeps ``pip install -e .`` working in offline
environments whose setuptools cannot build PEP 660 editable wheels (no
``wheel`` package available); pip falls back to the legacy ``setup.py
develop`` path in that case.  Nothing needs installing to work on the
repo: everything runs with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Analyzing and Mitigating Data Stalls in DNN "
        "Training' (CoorDL + DS-Analyzer, VLDB 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)

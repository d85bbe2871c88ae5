"""Setup shim: the package's only packaging metadata.

Offline, without the `wheel` package, `pip install -e .` cannot build
(PEP 660 and `bdist_wheel` both need it); `python setup.py develop` is
the offline editable install, and it installs the `repro` console
script.  The tests additionally need pytest, pytest-benchmark and
hypothesis, and use the optional `cryptography` package as an OpenSSL
oracle for the ECDSA kernel (those tests skip without it; see
.github/workflows/ci.yml)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)

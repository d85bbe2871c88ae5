"""Setup shim: enables legacy editable installs in offline environments
(no `wheel` package available, so PEP 660 builds are impossible).
This file is the only packaging metadata; the tests additionally need
pytest, pytest-benchmark and hypothesis, and use the optional
`cryptography` package as an OpenSSL oracle for the ECDSA kernel (those
tests skip without it; see .github/workflows/ci.yml)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)

"""Package metadata: ``pip install -e .``, or ``pip install -e ".[test]"``
for the test dependencies (``pytest``, ``hypothesis``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "KiNETGAN reproduction: knowledge-infused synthetic network-activity "
        "data generation for distributed NIDS"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={"test": ["pytest", "hypothesis"]},
)

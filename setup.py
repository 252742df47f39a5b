"""Setuptools build configuration (the only one: there is no ``pyproject.toml``).

``pip install -e .`` installs the library and the ``bagcq`` console
script.  Environments without the ``wheel`` package (where PEP 660
editable installs are unavailable) can still run
``pip install -e . --no-build-isolation --no-use-pep517``.

The library has no required dependencies.  Extras:

* ``lp`` — scipy and numpy, used only by the LP fallback taken when
  Fourier–Motzkin overflows its row cap and by the differential oracle's
  ``lp`` axis;
* ``test`` — pytest and hypothesis, for the test suite.

The ``package_data`` entry ships the PEP 561 ``py.typed`` marker, so
installed copies expose the library's inline annotations to type checkers
(see ``mypy.ini`` for the in-repo checking policy).
"""

from setuptools import find_packages, setup

setup(
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    extras_require={
        "lp": ["scipy", "numpy"],
        "test": ["pytest", "hypothesis"],
    },
    entry_points={"console_scripts": ["bagcq = repro.cli:main"]},
)

"""Setuptools shim.

The execution environment has no network access and an older setuptools
without PEP 660 editable-wheel support, so ``pip install -e .`` falls back to
this legacy ``setup.py`` path (``--no-use-pep517`` / develop mode).  All
project metadata lives in ``pyproject.toml``.
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Function Merging by Sequence Alignment (CGO 2019) - pure-Python reproduction",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro-lint = repro.analysis.cli:lint_main",
        ],
    },
    # the native DP kernel (nw-native).  optional=True:
    # a missing compiler skips the extension instead of failing the
    # install - repro.core.native then degrades to the pure-Python kernel
    # (and can still build the extension on demand where a compiler
    # appears later).
    ext_modules=[Extension("repro.core._nw_native",
                           sources=["src/repro/core/_nw_native.c"],
                           optional=True)],
)

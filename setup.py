"""Build script: compiles the optional C kernel extension.

The extension only speeds up the two hot loops. When it cannot be compiled
the install still completes (optional=True) and the package uses the
pure-Python twins. -ffp-contract=off (no fused multiply-add) keeps the
compiled results bit-identical to those twins.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "lienardqm.kernels._ckernels",
    ["src/lienardqm/kernels/_ckernels.c"],
    extra_compile_args=["-O3", "-ffp-contract=off"],
    optional=True,
)])

"""Build script: compiles the optional compiled kernel.

With Cython installed the extension is cythonized from `_speedups.pyx`;
without it, the tracked generated `_speedups.c` is compiled directly:

    python setup.py build_ext --inplace

The package is fully functional without the extension (kernel.py falls back
to the pure-Python implementation), so a failed compile skips it.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        "src/kmaut/_speedups.pyx",
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    ext_modules = [Extension("kmaut._speedups", ["src/kmaut/_speedups.c"])]
for ext in ext_modules:
    ext.optional = True

setup(ext_modules=ext_modules)

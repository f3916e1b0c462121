from setuptools import Extension, setup

# The kernel is one hand-written C file on the buffer protocol: a build needs
# a C compiler and Python's headers, nothing else.
setup(ext_modules=[Extension("oddflow._semilag_c", ["src/oddflow/_semilag_c.c"])])

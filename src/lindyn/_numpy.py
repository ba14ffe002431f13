"""numpy, bound as ``np`` and executed on its first attribute read.

A run that needs no float code, such as an analyze of rational input whose
structure is decided exactly, reads no numpy attribute, so it never executes
numpy's import.  Every other module of the package takes ``np`` from here
and holds no ``import numpy`` statement: on CPython 3.11 such a statement
reads the module's ``__spec__``, which would run the load at once.

This is the "Implementing lazy imports" recipe of the ``importlib`` docs.
The module object placed in ``sys.modules`` is the one that any later
``import numpy`` returns, and a numpy that a host imported first is used as
it is.  ``LazyLoader``'s first load is not thread-safe before CPython
3.12.3 (so on 3.10 and 3.11): two threads that read a first numpy attribute
at once can both execute numpy's ``__init__``.  lindyn itself runs
single-threaded; a threaded host on those versions must import numpy before
it imports lindyn, and then this module binds that numpy and installs no
lazy module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")  # None also when sys.modules holds None
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)

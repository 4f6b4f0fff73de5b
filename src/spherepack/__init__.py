"""Numerical verification toolkit for the E8 sphere packing bound.

The package exports ``Nome``, ``QSeries`` and ``FormId``; a form's value
at tau is ``forms.form_qseries(form).eval(tau)``.  Importing it loads
``qseries`` and ``forms``; every other submodule is imported on its first
attribute access (PEP 562), so ``spherepack.magic`` works after a bare
``import spherepack`` and a process pays only for the modules it touches.
``qseries`` and ``forms`` import numpy only to evaluate an ndarray, so
``import spherepack`` and the CLI's ``forms identities``, ``forms eval``
and ``--help`` run on the standard library alone.
"""

__version__ = "0.1.0"

import importlib

from .qseries import Nome, QSeries
from .forms import FormId

__all__ = ["Nome", "QSeries", "FormId", "__version__"]

_SUBMODULES = frozenset({"axis", "cli", "cohn_elkies", "errors", "forms", "lattice", "magic",
                         "packing", "qseries", "quadrature"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

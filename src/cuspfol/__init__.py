"""Exact symbolic toolkit for cusp-type absolutely dicritical plane foliations.

Everything is computed over Q(i) with truncated power series (jets); there is
no floating point anywhere.  The main entry points:

- :mod:`cuspfol.jets` — exact 1- and 2-variable jets, and with the kernel's
  series products the one polynomial layer.
- :mod:`cuspfol.forms` — foliation 1-forms, blow-ups, the cusp reduction.
- :mod:`cuspfol.transversal` — first integrals at a corner, the gluing germ.
- :mod:`cuspfol.normalform` — the degree-by-degree polynomial normal form.
- :mod:`cuspfol.moduli` — Schwarzians, homographies, equivalence of germs.
- :mod:`cuspfol.gluing` — the two ruled models, cocycles and the cohomological
  equation.
- :mod:`cuspfol.firstintegral` — rationality tests, meromorphic first
  integral witnesses and reduced rational functions of one variable.
- :mod:`cuspfol.parametric` — the same blow-ups on a family polynomial in a
  symbolic parameter, one plain form per power of the parameter.
- :mod:`cuspfol.parsing` — the exact text format for forms and quotients.
- :mod:`cuspfol.cli` — the ``cuspfol`` command-line interface.
"""

from ._backend import BACKEND as kernel_backend
from .coeff import Coeff
from .jets import DEFAULT_ORDER, Jet1, Jet2

__version__ = "0.1.0"

__all__ = [
    "Coeff",
    "Jet1",
    "Jet2",
    "DEFAULT_ORDER",
    "kernel_backend",
    "__version__",
]

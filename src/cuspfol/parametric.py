"""One-parameter families of 1-forms with an exact symbolic parameter.

The unfolding of the cusp family lives in three variables (x, y, z) and
carries a dz-slot, but all the geometry happens on the two-dimensional
slices z = const.  The family is polynomial in z, so it is kept as its
z-components: the form

    Omega = sum_k z^k (A_k dx + B_k dy + C_k dz)

holds, per power of z, one plain :class:`~cuspfol.forms.OneForm`
A_k dx + B_k dy and one :class:`~cuspfol.jets.Jet2` C_k, all at one order
that carries the polynomials exactly.  Blow-ups of the parameter axis
{x = y = 0} do not touch z, so each component is blown up by
``forms.pullback_blowup`` and each dz-slot has its monomials moved by
``Jet2.exponent_map``; the exceptional division divides every slot by the
least power of the divisor variable over all of them.  The slice z = z0 is
the plain form sum_k z0^k (A_k dx + B_k dy), and the tests cross-check the
family computations against those slices.
"""

from __future__ import annotations

from .forms import OneForm, form_of_meromorphic, pullback_blowup
from .jets import Jet2


class ParamForm3:
    """sum_k z^k (A_k d(first) + B_k d(second) + C_k dz), exact in z.

    ``components[k]`` is the pair (A_k d(first) + B_k d(second), C_k) of a
    ``OneForm`` and a ``Jet2`` at the form's order; ``variables`` names
    (first, second, parameter).
    """

    def __init__(self, components, variables: tuple = ("x", "y", "z")):
        self.components = tuple(components)
        self.variables = variables


def family_form() -> ParamForm3:
    """The unfolding form of (y^2 + x^3 + z*x^2*y)/(x*y) with z symbolic.

    d(num/den) is linear in the numerator and x*y has no z, so component k
    is the level form of num_k/(x*y), and the dz-slot x*y*num_1 sits at
    z^0.  The slots have degree at most 5, so order 5 holds them exactly.
    """
    n = 5
    den = Jet2({(1, 1): 1}, n + 1)
    nums = (Jet2({(0, 2): 1, (3, 0): 1}, n + 1), Jet2({(2, 1): 1}, n + 1))
    return ParamForm3(
        [
            (form_of_meromorphic(nums[0], den), (den * nums[1]).truncate(n)),
            (form_of_meromorphic(nums[1], den), Jet2.zero(n)),
        ]
    )


def pullback_blowup_param(
    f: ParamForm3, chart: str, new_var: str | None = None
) -> ParamForm3:
    """Blow up the parameter axis in one standard chart; exact, no division.

    Each component goes through ``forms.pullback_blowup`` in the same chart
    (chart "x" substitutes second = t*first, chart "y" first = s*second),
    and each dz-slot has its monomials moved to the same output order.
    """
    image = (lambda i, j: (i + j, j)) if chart == "x" else (lambda i, j: (i, i + j))
    components = []
    for w, c in f.components:
        moved = pullback_blowup(w, chart, new_var)  # refuses any other chart
        components.append((moved, c.exponent_map(image, moved.order)))
    return ParamForm3(components, moved.variables + f.variables[2:])


def exceptional_divide_param(f: ParamForm3, divisor_var: str) -> tuple[ParamForm3, int]:
    """Divide all slots by the maximal common power of the divisor."""
    if divisor_var not in f.variables[:2]:
        raise ValueError(f"{divisor_var!r} is not a chart variable of this form")
    axis = "xy"[f.variables.index(divisor_var)]
    k = min(
        (
            v
            for w, c in f.components
            for v in (w.a.valuation(axis), w.b.valuation(axis), c.valuation(axis))
            if v is not None
        ),
        default=0,
    )
    if not k:
        return f, 0
    image = (lambda i, j: (i - k, j)) if axis == "x" else (lambda i, j: (i, j - k))

    def shift(jet):
        return jet.exponent_map(image, jet.order - k)

    return ParamForm3(
        [(OneForm(shift(w.a), shift(w.b), w.variables), shift(c)) for w, c in f.components],
        f.variables,
    ), k

"""Elementary ribbons and the co-rank-1 decomposition of X-ribbons-X.

The elementary conjugator d_{X,t} is Delta_{X(t)} Delta_{X(t)-{t}}^-1 when
t lies outside X (with X(t) the component of X united with t containing t)
and Delta_{X(t)} when t lies in X; it carries the generator set X to another
generator set.  Ribbon and elementary_ribbon live in the parabolic module,
whose standardizer descent strips elementary ribbons, and are re-exported
here.  When X misses exactly one generator, every composition of
elementary ribbons returning to X equals a product
Delta_{X_1}^a Delta_{X_2}^b Delta_{X_3}^c Delta_Gamma^d over the components
of X; the decomposer peels the Delta_Gamma power first and then one
component at a time (peel_delta_powers).
"""

from __future__ import annotations

from .errors import (
    ExponentBoundExceeded,
    InvariantViolated,
    MixedContext,
    NotAnXRibbonX,
    NotCorankOne,
)
from .garside import ArtinElement, GarsideContext, member_of_standard, scan_powers
from .parabolic import Ribbon, elementary_ribbon

__all__ = ["Ribbon", "elementary_ribbon", "ribbon_delta_form"]


def peel_delta_powers(
    ctx: GarsideContext, residue: ArtinElement, parts
) -> tuple[int, list[int]]:
    """(gamma, [e_1, ..., e_k]) with residue = Delta_{X_k}^{e_k} ...
    Delta_{X_1}^{e_1} Delta_Gamma^gamma over the parts X_1, ..., X_k.

    Peels from the right: the power of Delta_Gamma dropping the residue into
    the parabolic on the union of the parts, then for each part the power of
    Delta_{X_i} dropping it into the union of the parts after X_i.  Each scan
    is bounded by the residue's Garside complexity and raises
    ExponentBoundExceeded when it runs out.
    """
    exponents = []
    for k, delta_x in enumerate([ctx.delta, *map(ctx.delta_of, parts)]):
        scope = frozenset().union(*parts[k:])
        bound = abs(residue.inf) + residue.canonical_length + 1
        found = scan_powers(
            residue, delta_x.inverse(), bound, lambda g: member_of_standard(g, scope)
        )
        if found is None:
            raise ExponentBoundExceeded(bound)
        exponent, residue, _ = found
        exponents.append(exponent)
    if not residue.is_identity:
        raise InvariantViolated("a residue is left after peeling every factor")
    return exponents[0], exponents[1:]


def ribbon_delta_form(
    ctx: GarsideContext, ribbon: Ribbon | ArtinElement, subset
) -> tuple[int, int, int, int]:
    """Exponents (a, b, c, d) with ribbon = Delta_{X_1}^a Delta_{X_2}^b
    Delta_{X_3}^c Delta_Gamma^d, for a co-rank-1 subset X.

    Components are taken in sorted order and missing components keep
    exponent 0.  The product equality is verified on the word problem.
    """
    x = frozenset(subset)
    everything = frozenset(ctx.graph.vertices)
    if len(everything - x) != 1:
        raise NotCorankOne(f"{sorted(x)} must miss exactly one generator")
    if isinstance(ribbon, Ribbon):
        if ribbon.source != x or ribbon.target != x:
            raise NotAnXRibbonX("composition must start and end at the subset")
        element = ribbon.element
    else:
        element = ribbon
    if element.ctx is not ctx:
        raise MixedContext("the ribbon belongs to a different group")
    comps = ctx.graph.components(x)
    if len(comps) > 3:
        raise NotAnXRibbonX("a co-rank-1 subset has at most three components")
    try:
        d, exps = peel_delta_powers(ctx, element, comps)
    except ExponentBoundExceeded as err:
        raise NotAnXRibbonX(f"not a product of component Garside powers: {err}") from err
    a, b, c = exps + [0] * (3 - len(exps))
    rebuilt = (
        ctx.delta_of(comps[0]) ** a
        * (ctx.delta_of(comps[1]) ** b if len(comps) > 1 else ctx.identity)
        * (ctx.delta_of(comps[2]) ** c if len(comps) > 2 else ctx.identity)
        * ctx.delta**d
    )
    if rebuilt != element:
        raise InvariantViolated("the decomposition does not reproduce the ribbon")
    return a, b, c, d

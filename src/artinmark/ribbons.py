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
component at a time, each exponent found in the range [inf, sup] of what
is left (peel_delta_powers).
"""

from __future__ import annotations

from .errors import (
    InvariantViolated,
    MixedContext,
    NotAnXRibbonX,
    NotCorankOne,
)
from .garside import ArtinElement, GarsideContext, member_of_standard
from .parabolic import Ribbon, elementary_ribbon

__all__ = ["Ribbon", "elementary_ribbon", "ribbon_delta_form"]


def peel_delta_powers(
    ctx: GarsideContext, residue: ArtinElement, parts
) -> tuple[int, list[int]]:
    """(gamma, [e_1, ..., e_k]) with residue = Delta_{X_k}^{e_k} ...
    Delta_{X_1}^{e_1} Delta_Gamma^gamma; raises NotAnXRibbonX when the
    residue is no such product.

    The parts are connected, their union is proper, and each later part lies
    inside an earlier one or apart from it (disjoint and not adjacent): the
    components of a co-rank-1 subset, or a maximal standard family ordered
    by level, as in the ascending-product extraction of tests/oracles.py.
    Peels from the right: the power n of Delta_x (Delta_Gamma, then each
    Delta_{X_i}) with r Delta_x^-n in A_scope, r the current residue and
    scope the union of the parts after x; the last scope is empty, so the
    last peel leaves the identity.  Such an n lies in [inf r, sup r], and
    that range is scanned upward with the exact membership test:
      * for Delta_Gamma, r = s Delta^n with s in the proper parabolic
        A_scope, so inf r = n + inf s <= n <= n + sup s = sup r;
      * for Delta_{X_i}, r lies in A_Z, Z the union of X_i and the scope,
        the direct product of A_{X_i} (holding the later parts inside X_i)
        and the parabolics on the later parts apart from X_i.  Its factor
        in A_{X_i} is Delta_{X_i}^n times an element of a proper parabolic
        of A_{X_i}, so the case of Delta_Gamma applies there.  inf and sup
        in A_Z are the least inf and the greatest sup over the factors, and
        in A they are the same capped at 0, because A_Z and A share
        np-normal forms a^-1 b, with inf = -sup a and sup = sup b (Charney,
        Math. Ann. 1995).
    The exponent is unique: two would put a nonzero power of Delta_x in
    A_scope, but its support, Gamma or X_i, is not inside the scope.
    """
    exponents = []
    for k, delta_x in enumerate([ctx.delta, *map(ctx.delta_of, parts)]):
        scope = frozenset().union(*parts[k:])
        low, high = residue.inf, residue.inf + residue.canonical_length
        rest, step = residue * delta_x**-low, delta_x.inverse()
        for exponent in range(low, high + 1):
            if member_of_standard(rest, scope):
                break
            rest = rest * step
        else:
            raise NotAnXRibbonX(
                f"not a product of component Garside powers: no exponent in [{low}, {high}]"
                f" peels factor {k}"
            )
        exponents.append(exponent)
        residue = rest
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
    d, exps = peel_delta_powers(ctx, element, comps)
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

"""Garside calculus, parabolic subgroups and marking graphs for finite-type
Artin groups.

Quick tour::

    from artinmark import context, normalize
    ctx = context("A3")
    normalize(ctx, "s1 s2 s1").to_text()    # 'DELTA^0 | s1 s2 s1' and friends

Contexts are cached per type spec; all values are immutable and safe to
share.
"""

from .coxeter import (
    ArtinType,
    CoxeterElement,
    DefiningGraph,
    RootSystem,
    build_defining_graph,
    longest_element,
    root_reflection_table,
)
from .errors import ArtinMarkError
from .garside import (
    ArtinElement,
    GarsideContext,
    context,
    member_of_standard,
    normalize,
    parse_element,
    parse_word,
)
from .graph import (
    ExploredGraph,
    all_standard_markings,
    bfs,
    export_graph,
    neighbors,
    standard_marking_connectivity,
)
from .marking import (
    Marking,
    TransversalData,
    enumerate_flip_moves,
    is_flip_edge,
    is_twist_edge,
    marking_stabilizer,
    projection,
    standard_transversals,
    standardize_marking,
    transversal_decomposition,
    twist_move,
    validate_marking,
)
from .parabolic import (
    ParabolicSubgroup,
    central_generator_z,
    delta_permutation,
    minimal_standardizer,
    simultaneous_standardizer,
    standard_conjugate,
    z_exponent,
)
from .ribbons import Ribbon, elementary_ribbon, ribbon_delta_form
from .simplex import (
    CparabSimplex,
    LevelDecomposition,
    StandardizedSimplex,
    canonical_positive_standardizer,
    enumerate_maximal_standard,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

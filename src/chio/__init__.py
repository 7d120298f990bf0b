"""Exact computation around Chio condensation of sign matrices."""

from .matrix_core import (
    IndexSet,
    IntMatrix,
    PartialTernaryMatrix,
    SignMatrix,
    abs_condense,
    chio_condense,
    chio_extend,
    det_int,
    full_inner_box,
    is_chio_set,
    rank_int,
)
from .measures import (
    DyadicProb,
    Event,
    fibre_cardinality,
    p_chio,
    p_chio_abs,
    p_chio_averaged,
    p_chio_sign_patterns,
    p_lcf,
    ratio_chio_lcf,
    recipe_p_chio,
)
from .signed_graph import (
    BettiData,
    IsoType,
    SignedBipartiteGraph,
    betti,
    build_graph,
    classify_isotype,
)

__version__ = "0.1.0"

# The verify suites, in run order; here rather than in verify, so that the
# CLI can name them without loading numpy.
SUITES = ("chio-identity", "measures", "failures", "census", "switching", "relations")

__all__ = [
    "IndexSet",
    "IntMatrix",
    "PartialTernaryMatrix",
    "SignMatrix",
    "abs_condense",
    "chio_condense",
    "chio_extend",
    "det_int",
    "full_inner_box",
    "is_chio_set",
    "rank_int",
    "DyadicProb",
    "Event",
    "fibre_cardinality",
    "p_chio",
    "p_chio_abs",
    "p_chio_averaged",
    "p_chio_sign_patterns",
    "p_lcf",
    "ratio_chio_lcf",
    "recipe_p_chio",
    "BettiData",
    "IsoType",
    "SignedBipartiteGraph",
    "betti",
    "build_graph",
    "classify_isotype",
    "__version__",
]

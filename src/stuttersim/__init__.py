"""Stuttering simulation preorder and equivalence on finite Kripke structures."""

from .checker import CheckVerdict, check_definition, check_preorder
from .engine import RefinementEngine, compute_preorder
from .formats import (
    ParseError,
    generate_random_ks,
    parse_ks,
    parse_relation,
    serialize_ks,
    serialize_result,
)
from .model import (
    KripkeStructure,
    NotAPreorderError,
    SimulationResult,
    ValidationError,
    labeling_partition,
    quotient,
)
from .preprocess import CollapseMap, collapse_inert_sccs
from .reference import (
    Atom,
    And,
    ExistsUntil,
    NegAtom,
    Or,
    eval_formula,
    naive_stuttering_simulation,
    pos_naive,
    simulator_sets,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "CheckVerdict",
    "CollapseMap",
    "ExistsUntil",
    "KripkeStructure",
    "NegAtom",
    "NotAPreorderError",
    "Or",
    "ParseError",
    "RefinementEngine",
    "SimulationResult",
    "ValidationError",
    "check_definition",
    "check_preorder",
    "collapse_inert_sccs",
    "compute_preorder",
    "eval_formula",
    "generate_random_ks",
    "labeling_partition",
    "naive_stuttering_simulation",
    "parse_ks",
    "parse_relation",
    "pos_naive",
    "quotient",
    "serialize_ks",
    "serialize_result",
    "simulator_sets",
]

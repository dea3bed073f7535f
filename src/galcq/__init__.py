"""Reasoning for fuzzy ALCQ ontologies under min-based (Goedel) semantics.

The pipeline: parse an ontology with graded axioms, compile it into a
classical ALCQ ontology whose atomic concepts encode per-element value
orderings, decide the result with an embedded tableau, and optionally read
an exact rational fuzzy model back out of the classical one.
"""

from .algebra import (
    Degree,
    ValueSet,
    format_degree,
    involutive_negation,
    parse_degree,
    rel_holds,
    residual_negation,
    residuum,
    t_norm,
)
from .bruteforce import BruteForceResult, brute_force_consistency
from .classical_model import (
    ClassicalInterpretation,
    ClassicalOntology,
    Inclusion,
    check_classical_model,
    evaluate_classical,
)
from .concepts import (
    BOT,
    TOP,
    And,
    AtLeast,
    AtMost,
    Bot,
    Concept,
    Exists,
    Forall,
    Implies,
    Name,
    Not,
    Or,
    Top,
    negate,
    normalize,
    quantifier_depth,
    subconcepts,
)
from .errors import (
    BudgetExceededError,
    DegreeRangeError,
    LocalityError,
    MalformedModelError,
    ParseError,
    ReasonerError,
)
from .extraction import ValueAssignment, extract_fuzzy_model
from .nnf import nnf, nnf_not
from .ontology import (
    ConceptAssertion,
    FuzzyGCI,
    FuzzyOntology,
    OrderAssertion,
    RoleAssertion,
    certification_margin,
    close_under_negation,
    is_local,
    normalize_ontology,
    roles,
    sub_closure,
    value_closure,
)
from .orders import (
    EDGE,
    EDGE_INV,
    ConceptElement,
    EdgeElement,
    Leq,
    MinExpr,
    OrderStructure,
    ResExpr,
    ShiftedElement,
    ValueElement,
    invert,
    order_concept,
    shift,
)
from .reduction import (
    abox_assertions,
    antitonicity_axioms,
    bounds_axioms,
    build_order_structure,
    preorder_axioms,
    reduce_ontology,
    semantics_axioms,
    tbox_axioms,
    totality_axioms,
    transfer_axioms,
    transitivity_axioms,
    value_order_axioms,
)
from .semantics import (
    FuzzyInterpretation,
    ModelReport,
    check_fuzzy_model,
    default_grid,
    evaluate_concept,
    grid_search_fuzzy_model,
)
from .syntax import (
    classical_to_sexpr,
    concept_to_sexpr,
    model_to_sexpr,
    ontology_to_sexpr,
    parse_classical,
    parse_concept_text,
    parse_ontology,
)
from .tableau import (
    CompletionGraph,
    TableauResult,
    check_consistency,
    extract_classical_model,
)

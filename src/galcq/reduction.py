"""Compilation of a fuzzy ontology into a classical ALCQ ontology.

Each domain element of a tree-shaped classical model carries a total
preorder over the order structure (constants, subconcept values here and at
the parent, and the incoming edge degree), encoded by the Leq atoms.  The
compilation forces those preorders to be well-formed, ties each complex
subconcept's position to its parts, and propagates order facts along role
edges.  Consistency is preserved in both directions.  Every atom is taken
from the structure's table (`OrderStructure.table`), through
`OrderStructure.leq`, so each atom is one object across the whole ontology.
The families that the structure alone fixes are not built here:
transitivity (the n^3 bulk), totality, the bounds, the constant order,
antitonicity and transfer along the roles.  The reduction hands over the
structure itself (`ClassicalOntology.order`) and builds only the TBox and
semantics axioms; every reader takes the structure's families from it, by
position or through `classical_model.fact_axioms`.
"""

from __future__ import annotations

from .algebra import ONE
from .concepts import And, AtLeast, Concept, Forall, Implies, Not, Top
from .classical_model import ClassicalOntology, Inclusion
from .errors import BudgetExceededError, LocalityError
from .ontology import ConceptAssertion, FuzzyOntology, is_local
from .orders import (
    EDGE,
    AtomFactory,
    ConceptElement,
    Leq,
    MinExpr,
    OrderStructure,
    ResExpr,
    ValueElement,
    order_concept,
    shift,
)

TOP = Top()

# Largest order structure reduced.  The transitivity family alone has n^3
# inclusions, so 100 elements already mean a million of them; the largest
# structure in the test corpus and the benchmark has 37.
MAX_ORDER_ELEMENTS = 100


def semantics_axioms(c: Concept, leq: AtomFactory = Leq) -> tuple[Inclusion, ...]:
    """Axioms tying the order position of `c` to those of its parts.

    Concept names and negations contribute nothing: names are unconstrained
    and negation is handled by the antitonicity of element inversion.
    """
    here = ConceptElement(c)
    match c:
        case Top():
            return (Inclusion(TOP, order_concept(ValueElement(ONE), "<=", here, leq)),)
        case And(left, right):
            rhs = MinExpr(ConceptElement(left), ConceptElement(right))
            return (Inclusion(TOP, order_concept(here, "=", rhs, leq)),)
        case Implies(left, right):
            rhs = ResExpr(ConceptElement(left), ConceptElement(right))
            return (Inclusion(TOP, order_concept(here, "=", rhs, leq)),)
        case Forall(role, sub):
            up = shift(here)
            bound = ResExpr(EDGE, ConceptElement(sub))
            witness = AtLeast(1, role, order_concept(up, ">=", bound, leq))
            ceiling = Forall(role, order_concept(up, "<=", bound, leq))
            return (Inclusion(TOP, And(witness, ceiling)),)
        case AtLeast(count, role, sub):
            up = shift(here)
            bound = MinExpr(EDGE, ConceptElement(sub))
            floor = AtLeast(count, role, order_concept(up, "<=", bound, leq))
            cap = Not(AtLeast(count, role, order_concept(up, "<", bound, leq)))
            return (Inclusion(TOP, And(floor, cap)),)
    return ()


def abox_assertions(o: FuzzyOntology, leq: AtomFactory = Leq) -> tuple[tuple[str, Concept], ...]:
    out = []
    for a in o.abox:
        lhs = ConceptElement(a.left.concept)
        if isinstance(a.right, ConceptAssertion):
            rhs = ConceptElement(a.right.concept)
        else:
            rhs = ValueElement(a.right)
        out.append((o.individual, order_concept(lhs, a.rel, rhs, leq)))
    return tuple(out)


def tbox_axioms(o: FuzzyOntology, u: OrderStructure) -> tuple[Inclusion, ...]:
    """Graded inclusions as lower bounds on the residuum, plus the semantics
    axioms of every closed subconcept."""
    out = []
    for g in o.tbox:
        rhs = ResExpr(ConceptElement(g.lhs), ConceptElement(g.rhs))
        out.append(Inclusion(TOP, order_concept(ValueElement(g.degree), "<=", rhs, u.leq)))
    for c in u.subconcepts:
        out.extend(semantics_axioms(c, u.leq))
    return tuple(out)


def reduce_ontology(o: FuzzyOntology) -> ClassicalOntology:
    """Full reduction; expects a normalized ontology with a local ABox.

    Raises BudgetExceededError, before building any axiom family, when the
    order structure has more than MAX_ORDER_ELEMENTS elements.
    """
    if not is_local(o.abox):
        raise LocalityError("unsupported: non-local ABox")
    u = OrderStructure.from_ontology(o)
    if len(u) > MAX_ORDER_ELEMENTS:
        raise BudgetExceededError(
            f"reduction budget exceeded: the order structure has {len(u)} "
            f"elements, the limit is {MAX_ORDER_ELEMENTS} (the reduction "
            "grows as n^3)"
        )
    assertions = abox_assertions(o, u.leq)
    return ClassicalOntology(tbox_axioms(o, u), assertions, o.individual, order=u)

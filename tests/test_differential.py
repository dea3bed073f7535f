"""Seeded differential tests of the tableau against the grid oracle and the
model checker, and of the `--reduce-opt` reduction against the plain one, on
random ontologies within the corpus envelope: at most 3 concept names, 2
roles, cardinalities up to 3, 4 degrees, two axioms and an order structure
of at most 25 elements, the corpus's largest.
"""

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from conftest import NODE_BUDGET

import galcq

NAMES = ("A", "B", "C")
ROLES = ("r", "s")
DEGREES = ("0", "1/4", "1/2", "1")
RELATIONS = ("<", "<=", "=", ">=", ">")
MAX_ELEMENTS = 25
GRID_BUDGET = 20_000
STEP_BUDGET = 50_000  # the corpus needs at most 11,168


def _compound(sub):
    role = st.sampled_from(ROLES)
    return st.one_of(
        st.builds("(not {})".format, sub),
        st.builds("(and {} {})".format, sub, sub),
        st.builds("(or {} {})".format, sub, sub),
        st.builds("(implies {} {})".format, sub, sub),
        st.builds("(some {} {})".format, role, sub),
        st.builds("(all {} {})".format, role, sub),
        st.builds("(atleast {} {} {})".format, st.integers(1, 3), role, sub),
        st.builds("(atmost {} {} {})".format, st.integers(0, 2), role, sub),
    )


CONCEPTS = st.recursive(st.sampled_from(NAMES + ("top",)), _compound, max_leaves=2)
RELATION = st.sampled_from(RELATIONS)
DEGREE = st.sampled_from(DEGREES)
ASSERTION = st.one_of(
    st.builds("(assert (inst a {}) {} {})".format, CONCEPTS, RELATION, DEGREE),
    st.builds(
        "(assert-cmp (inst a {}) {} (inst a {}))".format, CONCEPTS, RELATION, CONCEPTS
    ),
)
GCI = st.builds("(gci {} {} >= {})".format, CONCEPTS, CONCEPTS, DEGREE)
ONTOLOGIES = st.builds(
    lambda option, axioms: "\n".join(option + axioms),
    st.sampled_from(([], ["(set-option :atmost residual)"])),
    st.lists(st.one_of(ASSERTION, GCI), min_size=1, max_size=2),
)


@pytest.mark.filterwarnings("ignore:dropping inclusion with degree 0")
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=45,
)
@given(ONTOLOGIES)
def test_tableau_agrees_with_grid_oracle_and_model_checker(text):
    ontology = galcq.parse_ontology(text)
    assume(len(galcq.OrderStructure.from_ontology(ontology).elements) <= MAX_ELEMENTS)
    reduction = galcq.reduce_ontology(ontology)
    try:
        result = galcq.check_consistency(
            reduction, node_budget=NODE_BUDGET, step_budget=STEP_BUDGET
        )
    except galcq.BudgetExceededError:
        reject()
    try:
        grid_model = galcq.grid_search_fuzzy_model(
            ontology, max_domain=2, budget=GRID_BUDGET
        )
    except galcq.BudgetExceededError:
        grid_model = None  # only the grid half is skipped
    if grid_model is not None:
        assert result.consistent, f"grid model of an INCONSISTENT input:\n{text}"
    if result.consistent:
        margin = galcq.certification_margin(ontology)
        tree = galcq.extract_classical_model(result.graph, depth=margin + 2)
        structure = galcq.OrderStructure.from_ontology(ontology)
        interp, _ = galcq.extract_fuzzy_model(tree, structure, ontology.individual)
        report = galcq.check_fuzzy_model(
            interp, ontology, elements=tree.interior(margin)
        )
        assert report.satisfied, f"{report.violation}\n{text}"


@pytest.mark.filterwarnings("ignore:dropping inclusion with degree 0")
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=45,
)
@given(ONTOLOGIES)
def test_reduce_opt_gives_the_plain_verdict(text):
    """`--reduce-opt` leaves out the transitivity instances with a repeated
    vertex; the verdict must not change."""
    ontology = galcq.parse_ontology(text)
    assume(len(galcq.OrderStructure.from_ontology(ontology).elements) <= MAX_ELEMENTS)
    verdicts = []
    for skip in (False, True):
        reduction = galcq.reduce_ontology(ontology, skip_trivial_transitivity=skip)
        try:
            result = galcq.check_consistency(
                reduction, node_budget=NODE_BUDGET, step_budget=STEP_BUDGET
            )
        except galcq.BudgetExceededError:
            reject()
        verdicts.append(result.consistent)
    assert verdicts[0] == verdicts[1], text


# Crisp degrees.  A classical model is a fuzzy model whose values are 0 and
# 1, so a classical model of the direct reading makes the fuzzy ontology
# consistent.  The converse needs the semantics without involutive
# negation: then v -> [v > 0] maps every fuzzy model of a crisp ontology
# onto a classical one (min, max, the residuum and the quantifiers all
# commute with it), but 1 - v does not, and `(gci A (not A) >= 1)` with
# `(gci (not A) A >= 1)` has the fuzzy model A = 1/2 and no classical one.
# `< 1` has no exact crisp reading and is left out.
CRISP_READINGS = {
    (">=", "1"): "holds",
    ("=", "1"): "holds",
    (">", "0"): "holds",
    ("<=", "0"): "fails",
    ("=", "0"): "fails",
    (">=", "0"): None,
    ("<=", "1"): None,
    ("<", "0"): "impossible",
    (">", "1"): "impossible",
}
CRISP_ONTOLOGIES = st.builds(
    lambda option, axioms: "\n".join(option + axioms),
    st.sampled_from(([], ["(set-option :atmost residual)"])),
    st.lists(
        st.one_of(
            st.builds(
                lambda c, reading: "(assert (inst a {}) {} {})".format(c, *reading),
                CONCEPTS,
                st.sampled_from(sorted(CRISP_READINGS)),
            ),
            st.builds("(gci {} {} >= {})".format, CONCEPTS, CONCEPTS, st.sampled_from("01")),
        ),
        min_size=1,
        max_size=2,
    ),
)


def _crisp_reading(ontology):
    """The classical ontology that reads a crisp fuzzy ontology's axioms
    two-valued: a GCI of degree 1 as an inclusion, an assertion as its
    concept, its negation, nothing or bottom."""
    assertions = []
    for a in ontology.abox:
        reading = CRISP_READINGS[a.rel, str(a.right)]
        concept = a.left.concept
        if reading == "fails":
            assertions.append((a.left.individual, galcq.Not(concept)))
        elif reading == "holds":
            assertions.append((a.left.individual, concept))
        elif reading == "impossible":
            assertions.append((a.left.individual, galcq.Not(galcq.Top())))
    return galcq.ClassicalOntology(
        tuple(galcq.Inclusion(g.lhs, g.rhs) for g in ontology.tbox),
        tuple(assertions),
        ontology.individual,
    )


@pytest.mark.filterwarnings("ignore:dropping inclusion with degree 0")
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
)
@given(CRISP_ONTOLOGIES)
def test_crisp_degrees_agree_with_brute_force(text):
    ontology = galcq.parse_ontology(text)
    assume(len(galcq.OrderStructure.from_ontology(ontology).elements) <= MAX_ELEMENTS)
    crisp = _crisp_reading(ontology)
    try:
        brute = galcq.brute_force_consistency(crisp, max_domain=3, budget=300_000)
    except galcq.BudgetExceededError:
        return  # no verdict
    involutive = "(not " in text or ("(atmost " in text and "residual" not in text)
    if not brute.consistent and (crisp.roles() or involutive):
        # no model up to 3 elements decides only a role-free ontology, and
        # binds the fuzzy verdict only without involutive negation
        return
    try:
        result = galcq.check_consistency(
            galcq.reduce_ontology(ontology),
            node_budget=NODE_BUDGET,
            step_budget=STEP_BUDGET,
        )
    except galcq.BudgetExceededError:
        reject()
    assert result.consistent == brute.consistent, text

"""Concrete s-expression syntax: parsing and printing.

Input ontologies are one axiom per form, UTF-8, with `;` comments:

    (set-option :atmost residual)            ; optional, per ontology
    (gci C D >= q)                           ; graded inclusion
    (assert (inst a C) >= q)                 ; degree assertion
    (assert-cmp (inst a C) < (inst a D))     ; comparison assertion

Concepts use `top bot not and or implies all some atleast atmost`; degrees
are decimals or p/q ratios; relators are `< <= = >= >`.  The classical
output dialect reuses the concept grammar with `(leq u v)` atoms whose
operands are degrees, concepts, `(up C)`, `edge` or `edge-inv`.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .algebra import format_degree, parse_degree
from .concepts import (
    TOP,
    BOT,
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
    normalize,
)
from .classical_model import ClassicalOntology, Inclusion, fact_axioms
from .errors import DegreeRangeError, LocalityError, ParseError
from .ontology import (
    RELATIONS,
    ConceptAssertion,
    FuzzyGCI,
    FuzzyOntology,
    OrderAssertion,
    is_local,
)
from .orders import (
    EDGE,
    EDGE_INV,
    ConceptElement,
    EdgeElement,
    Leq,
    OrderElement,
    ShiftedElement,
    ValueElement,
)

RESERVED = {
    "top", "bot", "not", "and", "or", "implies", "all", "some", "atleast",
    "atmost", "gci", "assert", "assert-cmp", "inst", "set-option", "leq",
    "up", "edge", "edge-inv", "model", "domain", "individual", "concept",
    "role",
} | set(RELATIONS)


# ---------------------------------------------------------------------------
# reader


@dataclass(slots=True)
class SAtom:
    text: str
    line: int
    column: int


@dataclass(slots=True)
class SList:
    items: list
    line: int
    column: int


# Deepest list nesting accepted, and deepest concept built.  Every later
# stage recurses over concepts, so input nested past Python's recursion
# limit must be refused here; the bound leaves room for the few levels a
# reduction adds around a concept.
MAX_NESTING = 200


def read_forms(text: str) -> list:
    """Tokenize and read all top-level forms, tracking positions."""
    forms = []
    stack = []
    line, col = 1, 1
    i, n = 0, len(text)

    def emit(node):
        if stack:
            stack[-1].items.append(node)
        else:
            forms.append(node)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "(":
            if len(stack) >= MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
            node = SList([], line, col)
            stack.append(node)
            col += 1
            i += 1
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node = stack.pop()
            emit(node)
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            emit(SAtom(text[start:i], line, startcol))
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].column)
    return forms


def _expect_atom(node, what):
    if not isinstance(node, SAtom):
        raise ParseError(f"expected {what}", node.line, node.column)
    return node.text


def _is_numeric(token: str) -> bool:
    return token[:1].isdigit()


# ---------------------------------------------------------------------------
# concepts


def parse_concept(node, allow_order_atoms: bool = False) -> Concept:
    """Build the concept of `node`, refusing one deeper than MAX_NESTING
    levels: an `and` or `or` of k arguments builds a chain k - 1 deep."""
    return _concept(node, allow_order_atoms, MAX_NESTING)


def _concept(node, allow_order_atoms: bool, room: int) -> Concept:
    """`parse_concept` of `node`, which may nest `room` more levels."""
    if room <= 0:
        raise ParseError(
            f"concept nested deeper than {MAX_NESTING} levels", node.line, node.column
        )
    if isinstance(node, SAtom):
        token = node.text
        if token == "top":
            return TOP
        if token == "bot":
            return BOT
        if token in RESERVED or _is_numeric(token):
            raise ParseError(f"expected concept, got {token!r}", node.line, node.column)
        return Name(token)
    if not node.items:
        raise ParseError("empty concept form", node.line, node.column)
    head = _expect_atom(node.items[0], "concept constructor")
    args = node.items[1:]

    def arity(k):
        if len(args) != k:
            raise ParseError(f"{head} takes {k} argument(s)", node.line, node.column)

    if head == "not":
        arity(1)
        return Not(_concept(args[0], allow_order_atoms, room - 1))
    if head in ("and", "or"):
        if len(args) < 2:
            raise ParseError(f"{head} takes at least 2 arguments", node.line, node.column)
        ctor = And if head == "and" else Or
        last = len(args) - 1  # argument i is min(i + 1, last) levels down
        parsed = [
            _concept(a, allow_order_atoms, room - min(i + 1, last)) for i, a in enumerate(args)
        ]
        out = parsed[-1]
        for c in reversed(parsed[:-1]):
            out = ctor(c, out)
        return out
    if head == "implies":
        arity(2)
        return Implies(
            _concept(args[0], allow_order_atoms, room - 1),
            _concept(args[1], allow_order_atoms, room - 1),
        )
    if head in ("all", "some"):
        arity(2)
        role = _parse_role(args[0])
        sub = _concept(args[1], allow_order_atoms, room - 1)
        return Forall(role, sub) if head == "all" else Exists(role, sub)
    if head in ("atleast", "atmost"):
        arity(3)
        count_text = _expect_atom(args[0], "cardinality")
        if not count_text.isdigit():
            raise ParseError(f"bad cardinality {count_text!r}", node.line, node.column)
        count = int(count_text)
        role = _parse_role(args[1])
        sub = _concept(args[2], allow_order_atoms, room - 1)
        return AtLeast(count, role, sub) if head == "atleast" else AtMost(count, role, sub)
    if head == "leq" and allow_order_atoms:
        arity(2)
        return Leq(_parse_element(args[0], room - 1), _parse_element(args[1], room - 1))
    raise ParseError(f"unknown concept constructor {head!r}", node.line, node.column)


def _parse_role(node) -> str:
    token = _expect_atom(node, "role name")
    if token in RESERVED or _is_numeric(token):
        raise ParseError(f"expected role name, got {token!r}", node.line, node.column)
    return token


def _parse_element(node, room: int) -> OrderElement:
    if isinstance(node, SAtom):
        token = node.text
        if token == "edge":
            return EDGE
        if token == "edge-inv":
            return EDGE_INV
        if _is_numeric(token):
            return ValueElement(_parse_degree_at(node))
        return ConceptElement(_concept(node, False, room))
    if not node.items:
        raise ParseError("empty order element", node.line, node.column)
    head = _expect_atom(node.items[0], "order element")
    if head == "up":
        if len(node.items) != 2:
            raise ParseError("up takes 1 argument", node.line, node.column)
        return ShiftedElement(_concept(node.items[1], False, room - 1))
    return ConceptElement(_concept(node, False, room))


def parse_concept_text(text: str, at_most: str = "involutive") -> Concept:
    """Parse a single concept from a string and normalize it."""
    forms = read_forms(text)
    if len(forms) != 1:
        raise ParseError("expected exactly one concept", 1, 1)
    return normalize(parse_concept(forms[0]), at_most)


# ---------------------------------------------------------------------------
# ontologies


def _parse_degree_at(node) -> Fraction:
    token = _expect_atom(node, "degree")
    try:
        return parse_degree(token)
    except DegreeRangeError as exc:
        raise ParseError(str(exc), node.line, node.column) from exc


def _parse_relator(node) -> str:
    token = _expect_atom(node, "relator")
    if token not in RELATIONS:
        raise ParseError(f"expected relator, got {token!r}", node.line, node.column)
    return token


def _parse_classical_assertion(node, allow_order_atoms: bool = False):
    if not isinstance(node, SList) or not node.items:
        raise ParseError("expected (inst ...) assertion", node.line, node.column)
    head = _expect_atom(node.items[0], "assertion head")
    if head != "inst":
        raise ParseError(f"expected inst, got {head!r}", node.line, node.column)
    if len(node.items) != 3:
        raise ParseError("inst takes 2 arguments", node.line, node.column)
    subject = node.items[1]
    if isinstance(subject, SList):
        # (inst (a b) r): a fuzzy role assertion; the local fragment has none
        raise LocalityError(
            "unsupported: non-local ABox (role assertion)", node.line, node.column
        )
    individual = _expect_atom(subject, "individual name")
    if individual in RESERVED or _is_numeric(individual):
        raise ParseError(f"bad individual name {individual!r}", node.line, node.column)
    concept = parse_concept(node.items[2], allow_order_atoms)
    return ConceptAssertion(individual, concept)


def atmost_mode(forms: list, at_most: str | None = None) -> str:
    """The at-most expansion of an ontology read by `read_forms`: `at_most`
    if given, else the forms' `(set-option :atmost ...)` directive, else
    "involutive".  Checks every directive either way."""
    mode = None
    for form in forms:
        head = form.items[0] if isinstance(form, SList) and form.items else None
        if not isinstance(head, SAtom) or head.text != "set-option":
            continue
        if len(form.items) != 3:
            raise ParseError("set-option takes 2 arguments", form.line, form.column)
        key = _expect_atom(form.items[1], "option key")
        val = _expect_atom(form.items[2], "option value")
        if key != ":atmost" or val not in ("involutive", "residual"):
            raise ParseError(f"unknown option {key} {val}", form.line, form.column)
        if mode is not None and mode != val:
            raise ParseError("conflicting :atmost directives", form.line, form.column)
        mode = val
    return at_most or mode or "involutive"


def parse_ontology(text: str, at_most: str | None = None) -> FuzzyOntology:
    """Parse, expand abbreviations, normalize, and enforce locality.

    `at_most` overrides the file's `(set-option :atmost ...)` directive.
    """
    forms = read_forms(text)
    mode = atmost_mode(forms, at_most)

    abox = []
    tbox = []
    for form in forms:
        if not isinstance(form, SList) or not form.items:
            raise ParseError("expected an axiom form", form.line, form.column)
        head = _expect_atom(form.items[0], "axiom head")
        if head == "gci":
            if len(form.items) != 5:
                raise ParseError("gci takes 4 arguments", form.line, form.column)
            lhs = parse_concept(form.items[1])
            rhs = parse_concept(form.items[2])
            rel = _parse_relator(form.items[3])
            if rel != ">=":
                raise ParseError("gci supports only >=", form.items[3].line, form.items[3].column)
            degree = _parse_degree_at(form.items[4])
            if degree == 0:
                warnings.warn(
                    "dropping inclusion with degree 0: it constrains nothing",
                    stacklevel=2,
                )
                continue
            tbox.append(FuzzyGCI(normalize(lhs, mode), normalize(rhs, mode), degree))
        elif head == "assert":
            if len(form.items) != 4:
                raise ParseError("assert takes 3 arguments", form.line, form.column)
            left = _parse_classical_assertion(form.items[1])
            rel = _parse_relator(form.items[2])
            degree = _parse_degree_at(form.items[3])
            left = ConceptAssertion(left.individual, normalize(left.concept, mode))
            abox.append(OrderAssertion(left, rel, degree))
        elif head == "assert-cmp":
            if len(form.items) != 4:
                raise ParseError("assert-cmp takes 3 arguments", form.line, form.column)
            left = _parse_classical_assertion(form.items[1])
            rel = _parse_relator(form.items[2])
            right = _parse_classical_assertion(form.items[3])
            left = ConceptAssertion(left.individual, normalize(left.concept, mode))
            right = ConceptAssertion(right.individual, normalize(right.concept, mode))
            abox.append(OrderAssertion(left, rel, right))
        elif head != "set-option":  # read by atmost_mode
            raise ParseError(f"unknown axiom form {head!r}", form.line, form.column)

    if not is_local(abox):
        raise LocalityError("unsupported: non-local ABox (multiple individuals)")
    individuals = {
        side.individual
        for a in abox
        for side in (a.left, a.right)
        if isinstance(side, ConceptAssertion)
    }
    individual = min(individuals) if individuals else "a"
    return FuzzyOntology(tuple(abox), tuple(tbox), individual)


# ---------------------------------------------------------------------------
# printing


def element_to_sexpr(e: OrderElement) -> str:
    match e:
        case ValueElement(value):
            return format_degree(value)
        case ConceptElement(concept):
            return concept_to_sexpr(concept)
        case ShiftedElement(concept):
            return f"(up {concept_to_sexpr(concept)})"
        case EdgeElement(positive):
            return "edge" if positive else "edge-inv"
    raise TypeError(f"not an order element: {e!r}")


def concept_to_sexpr(c: Concept) -> str:
    return _concept_sexpr(c, _leq_sexpr)


def _leq_sexpr(a: Leq) -> str:
    return f"(leq {element_to_sexpr(a.lhs)} {element_to_sexpr(a.rhs)})"


def _concept_sexpr(c: Concept, leq) -> str:
    """`concept_to_sexpr`, with order atoms rendered by `leq`."""
    match c:
        case Leq():
            return leq(c)
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Name(name):
            return name
        case Not(sub):
            return f"(not {_concept_sexpr(sub, leq)})"
        case And(left, right):
            return f"(and {_concept_sexpr(left, leq)} {_concept_sexpr(right, leq)})"
        case Or(left, right):
            return f"(or {_concept_sexpr(left, leq)} {_concept_sexpr(right, leq)})"
        case Implies(left, right):
            return f"(implies {_concept_sexpr(left, leq)} {_concept_sexpr(right, leq)})"
        case Exists(role, sub):
            return f"(some {role} {_concept_sexpr(sub, leq)})"
        case Forall(role, sub):
            return f"(all {role} {_concept_sexpr(sub, leq)})"
        case AtLeast(count, role, sub):
            return f"(atleast {count} {role} {_concept_sexpr(sub, leq)})"
        case AtMost(count, role, sub):
            return f"(atmost {count} {role} {_concept_sexpr(sub, leq)})"
    raise TypeError(f"not a concept: {c!r}")


def ontology_to_sexpr(o: FuzzyOntology) -> str:
    lines = []
    for a in o.abox:
        left = f"(inst {a.left.individual} {concept_to_sexpr(a.left.concept)})"
        if isinstance(a.right, Fraction):
            lines.append(f"(assert {left} {a.rel} {format_degree(a.right)})")
        else:
            right = f"(inst {a.right.individual} {concept_to_sexpr(a.right.concept)})"
            lines.append(f"(assert-cmp {left} {a.rel} {right})")
    for g in o.tbox:
        lines.append(
            f"(gci {concept_to_sexpr(g.lhs)} {concept_to_sexpr(g.rhs)} >= {format_degree(g.degree)})"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def classical_to_sexpr(o: ClassicalOntology) -> str:
    """Deterministic serialization: assertions then inclusions, each sorted.

    Each distinct order atom is rendered once; the n^2 and n^3 families
    repeat the same shared atoms on every line.  The transitivity,
    totality, antitonicity and transfer families of the order structure,
    if there is one, are rendered from its atom table by position, one line
    per `ClassicalOntology.inclusions` entry, without building those
    inclusions.
    """
    leq = functools.cache(_leq_sexpr)  # freed with this call
    assertion_lines = sorted(
        f"(assert (inst {ind} {_concept_sexpr(c, leq)}))" for ind, c in o.assertions
    )
    u = o.order
    given = o.axioms if u is None else fact_axioms(u) + o.axioms
    inclusion_lines = [
        f"(gci {_concept_sexpr(inc.lhs, leq)} {_concept_sexpr(inc.rhs, leq)})"
        for inc in given
    ]
    if u is not None:
        atoms = [[leq(a) for a in row] for row in u.table]
        inv = u.inverse
        span = range(len(atoms))
        for i in span:
            for j in span:
                inclusion_lines.append(f"(gci top (or {atoms[i][j]} {atoms[j][i]}))")
                inclusion_lines.append(f"(gci {atoms[i][j]} {atoms[inv[j]][inv[i]]})")
                head, row = f"(gci (and {atoms[i][j]} ", atoms[j]
                inclusion_lines.extend(f"{head}{row[k]}) {atoms[i][k]})" for k in span)
        up = u.up
        for i, j in itertools.product(range(len(up)), repeat=2):
            here, there = atoms[i][j], atoms[up[i]][up[j]]
            for r in u.roles:
                inclusion_lines.append(f"(gci {here} (all {r} {there}))")
                inclusion_lines.append(f"(gci (not {here}) (all {r} (not {there})))")
    inclusion_lines.sort()
    return "\n".join(assertion_lines + inclusion_lines) + "\n"


def parse_classical(text: str) -> ClassicalOntology:
    """Parse the classical dialect emitted by `classical_to_sexpr`."""
    forms = read_forms(text)
    inclusions = []
    assertions = []
    individuals = set()
    for form in forms:
        if not isinstance(form, SList) or not form.items:
            raise ParseError("expected an axiom form", form.line, form.column)
        head = _expect_atom(form.items[0], "axiom head")
        if head == "gci":
            if len(form.items) != 3:
                raise ParseError("classical gci takes 2 arguments", form.line, form.column)
            inclusions.append(
                Inclusion(
                    parse_concept(form.items[1], allow_order_atoms=True),
                    parse_concept(form.items[2], allow_order_atoms=True),
                )
            )
        elif head == "assert":
            if len(form.items) != 2:
                raise ParseError("classical assert takes 1 argument", form.line, form.column)
            inst = _parse_classical_assertion(form.items[1], allow_order_atoms=True)
            individuals.add(inst.individual)
            assertions.append((inst.individual, inst.concept))
        else:
            raise ParseError(f"unknown classical form {head!r}", form.line, form.column)
    if len(individuals) > 1:
        raise ParseError("classical ontology must use a single individual")
    individual = min(individuals) if individuals else "a"
    return ClassicalOntology(tuple(inclusions), tuple(assertions), individual)


def model_to_sexpr(interp, names: tuple[str, ...], roles: tuple[str, ...],
                   individual: str = "a") -> str:
    """Emit a fuzzy interpretation as an s-expression with exact rationals."""
    lines = ["(model"]
    lines.append("  (domain " + " ".join(str(d) for d in interp.domain) + ")")
    lines.append(f"  (individual {individual} {interp.individuals[individual]})")
    for name in names:
        entries = " ".join(
            f"({d} {format_degree(interp.concept_value(name, d))})" for d in interp.domain
        )
        lines.append(f"  (concept {name} {entries})")
    at = {d: k for k, d in enumerate(interp.domain)}
    for role in roles:
        # the nonzero edges between domain elements, in domain order
        entries = sorted(
            (at[d], at[e], f"({d} {e} {format_degree(v)})")
            for (r, d, e), v in interp.role_values.items()
            if r == role and v != 0 and d in at and e in at
        )
        lines.append(f"  (role {role} {' '.join(text for _, _, text in entries)})")
    lines.append(")")
    return "\n".join(lines) + "\n"

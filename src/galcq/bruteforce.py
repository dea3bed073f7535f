"""Exhaustive finite-model search for classical ontologies.

Independent oracle for the tableau: enumerates every interpretation over
domains of size 1..max_domain with the root fixed as the named individual.
A found model is definitive.  Without roles there are no quantifiers, so
the root alone decides every domain size and a refutation is a proof; with
roles it is only a domain bound.  An explicit guard raises when the
enumeration would be too large.

One reader: every constraint is read into negation normal form over one
shared literal table, the global axioms by `nnf.inclusion_nnf` (the reader
the tableau uses too) and the root assertions by `nnf.nnf`.  A flat
formula, a clause among them, becomes clauses.  One evaluator, `_value`,
gives any other formula a three-valued value; quantified parts are
unknown.  The transitivity, totality and antitonicity families are read
from `order.table` by position as clause masks, without an inclusion per
clause, and the bounds and constant facts from
`classical_model.fact_axioms`; an ontology without a structure has them
among its axioms.  The transfer family is quantified, so the label
enumeration has nothing to read from it.  `check_classical_model`, which
verifies a model found, reads all six families by position: the five
preorder families through `OrderStructure.broken`, and transfer along
each role edge.

Candidate element labels are enumerated by backtracking over the atoms,
pruning assignments that already falsify a quantifier-free global axiom.
Each atom is a bit position, a partial label one int and a clause a pair
of int masks, checked once, at its last position, by a few bit
operations; any other quantifier-free axiom is evaluated at every atom it
mentions.  Only the labels returned become sets of atoms.  The oracle
shares no part of the tableau's search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classical_model import (
    ClassicalInterpretation,
    ClassicalOntology,
    check_classical_model,
    fact_axioms,
)
from .errors import BudgetExceededError
from .nnf import Literals, NAnd, NAtom, NNegAtom, NOr, inclusion_nnf, nnf
from .orders import Leq


@dataclass(frozen=True)
class BruteForceResult:
    """`consistent` is definitive; otherwise no model exists with at most
    `completed_domain` elements (the largest fully enumerated size), and
    none at all if `definitive`, which a model found always is."""

    consistent: bool
    model: Optional[ClassicalInterpretation]
    completed_domain: int
    definitive: bool


def _value(n, get) -> Optional[bool]:
    """Three-valued value of the NNF formula `n`, where `get(atom)` is
    True, False or None (unassigned); quantified parts are None."""
    t = type(n)
    if t is NAtom:
        return get(n.atom)
    if t is NNegAtom:
        v = get(n.atom)
        return None if v is None else not v
    if t is not NAnd and t is not NOr:
        return None
    decisive = t is NOr  # the argument value that decides the whole
    result = not decisive
    for arg in n.args:
        v = _value(arg, get)
        if v is decisive:
            return decisive
        if v is None:
            result = None
    return result


def _literals(n) -> Optional[list]:
    """The literal lists of a flat NNF formula (a literal, an or of
    literals, or an and of those), else None."""
    out = []
    for part in n.args if type(n) is NAnd else (n,):
        disjuncts = part.args if type(part) is NOr else (part,)
        if not all(type(d) is NAtom or type(d) is NNegAtom for d in disjuncts):
            return None
        out.append(disjuncts)
    return out


def _masks(literals, position) -> tuple[int, int]:
    """A clause of NNF literals as its (positives, negatives) position masks."""
    pos = neg = 0
    for d in literals:
        if type(d) is NAtom:
            pos |= 1 << position[d.atom]
        else:
            neg |= 1 << position[d.atom]
    return pos, neg


def _mentions(n) -> Optional[set]:
    """The atoms of a quantifier-free NNF formula, None if it has a
    quantifier."""
    if type(n) is NAtom or type(n) is NNegAtom:
        return {n.atom}
    if type(n) is not NAnd and type(n) is not NOr:
        return None
    out = set()
    for arg in n.args:
        sub = _mentions(arg)
        if sub is None:
            return None
        out |= sub
    return out


def _candidate_labels(atoms, clauses, formulas, budget: int) -> list[frozenset]:
    """All atom subsets compatible with the quantifier-free global axioms.

    A partial label is an int `v` whose bit p is the value of `atoms[p]`,
    extended by backtracking over the positions in order, False first.  A
    clause is a pair (positives, negatives) of position masks.  A
    tautology is dropped and an empty clause leaves no label.  Any other
    clause is filed under its last position q and the value b there that
    falsifies its literal at q; with `mask` its other positions, it then
    fails exactly when `v & mask == negatives & mask`.  When at most one
    literal remains, it folds into the must-be-true or must-be-false mask
    of (q, b) instead: the remaining literal, or q's own when none does.
    The other `formulas` are evaluated three-valued whenever one of their
    atoms is assigned, so each gets a definite verdict at its last mention.
    """
    n_atoms = len(atoms)
    must_true = [0] * (2 * n_atoms)  # index 2q + b: the rules of q = b
    must_false = [0] * (2 * n_atoms)
    wide = [[] for _ in must_true]
    for pos, neg in clauses:
        if pos & neg:
            continue
        mask = pos | neg
        if not mask:
            return []
        q = mask.bit_length() - 1
        top = 1 << q
        k = 2 * q + (not pos & top)  # b = 1 falsifies a negative literal
        mask ^= top
        if mask & (mask - 1):
            wide[k].append((mask, neg & mask))
        else:
            one = mask or top
            if pos & one:
                must_true[k] |= one
            else:
                must_false[k] |= one
    position = {a: p for p, a in enumerate(atoms)}
    at_each = [[] for _ in atoms]
    for f in formulas:
        for a in _mentions(f):
            at_each[position[a]].append(f)

    def ok(i: int, v: int) -> bool:
        k = 2 * i + (v >> i & 1)
        t = must_true[k]
        if v & t != t or v & must_false[k]:
            return False
        for mask, neg in wide[k]:
            if v & mask == neg:
                return False  # every literal falsified
        if at_each[i]:
            get = lambda a: v >> position[a] & 1 == 1 if position[a] <= i else None
            for f in at_each[i]:
                if _value(f, get) is False:
                    return False
        return True

    out = []
    pending = []  # positions whose True is still to try
    visits, i, v = 0, 0, 0  # v: the values of the positions below i
    while True:
        visits += 1
        if visits > budget:
            raise BudgetExceededError("label enumeration budget exhausted")
        if i == n_atoms:
            out.append(v)
        else:
            pending.append(i)
            if ok(i, v):
                i += 1
                continue
        while pending:  # back to the deepest False whose True is open
            i = pending.pop()
            v = v & ((1 << i) - 1) | 1 << i
            if ok(i, v):
                break
        else:
            break
        i += 1
    return [frozenset(a for p, a in enumerate(atoms) if v >> p & 1) for v in out]


def _order_clauses(order, position) -> list:
    """The transitivity, totality and antitonicity families of `order` as
    clause masks, read from its table by position: (i, j, k) is not
    leq(i, j) or not leq(j, k) or leq(i, k), (i, j) leq(i, j) or leq(j, i)
    and not leq(i, j) or leq(inv j, inv i).  Triples with i = j or j = k
    are tautologies, and so is antitonicity at j = inv i."""
    bit = [[1 << position[a] for a in row] for row in order.table]
    inv = order.inverse
    span = range(len(bit))
    out = [(bit[i][k], bit[i][j] | bit[j][k]) for i in span for j in span for k in span]
    out += [(bit[i][j] | bit[j][i], 0) for i in span for j in span]
    out += [(bit[inv[j]][inv[i]], bit[i][j]) for i in span for j in span]
    return out


def _prefix_order(atoms):
    """Order atoms so constraints close over prefixes.

    Order atoms compare pairs of terms; sorting the pairs by their larger
    term rank means every transitivity or inversion constraint over the
    first k terms is fully decided before term k+1 appears, which lets the
    label enumeration prune at the earliest possible depth.
    """
    terms = {}
    for atom in atoms:
        if isinstance(atom, Leq):
            for term in (atom.lhs, atom.rhs):
                terms.setdefault(term, len(terms))

    def key(atom):
        if isinstance(atom, Leq):
            i, j = terms[atom.lhs], terms[atom.rhs]
            return (0, max(i, j), i, j)
        return (1, 0, 0, atom.name)

    return tuple(sorted(atoms, key=key))


def brute_force_consistency(
    o: ClassicalOntology,
    max_domain: int = 3,
    budget: int = 2_000_000,
) -> BruteForceResult:
    """Search all interpretations up to `max_domain` elements.

    Raises BudgetExceededError if not even domain size 1 fits the budget;
    otherwise stops early at the largest affordable size and reports it.
    Without roles, size 1 decides every size: `definitive`, at `max_domain`.
    """
    atoms, roles = o.signature()
    atoms = _prefix_order(atoms)
    position = {a: p for p, a in enumerate(atoms)}
    clauses, axioms = [], o.axioms
    if o.order is not None:
        clauses = _order_clauses(o.order, position)
        axioms = fact_axioms(o.order) + axioms
    formulas = []
    lits = Literals()
    for inc in axioms:
        read = inclusion_nnf(inc, lits)
        if (flat := _literals(read)) is not None:
            clauses += (_masks(c, position) for c in flat)
        elif _mentions(read) is not None:
            formulas.append(read)
    labels = _candidate_labels(atoms, clauses, formulas, budget)
    roots = [nnf(c, lits) for _, c in o.assertions]
    root_labels = [
        lab
        for lab in labels
        if all(_value(r, lab.__contains__) is not False for r in roots)
    ]
    completed = 0
    # no roles means no quantifiers: one element decides every size
    for m in range(1, max_domain + 1) if roles else (1,):
        reach = m if roles else max_domain  # the sizes a result at m covers
        edge_bits = len(roles) * m * m
        total = len(root_labels) * (len(labels) ** (m - 1)) * (2 ** edge_bits)
        if total > budget:
            if completed == 0:
                raise BudgetExceededError(
                    f"domain size {m} needs {total} interpretations (budget {budget})"
                )
            return BruteForceResult(False, None, completed, False)
        domain = tuple(range(m))
        all_pairs = tuple(itertools.product(domain, domain))
        for root_label in root_labels:
            for rest in itertools.product(labels, repeat=m - 1):
                label_of = (root_label,) + rest
                for edge_mask in itertools.product((False, True), repeat=edge_bits):
                    role_edges = {
                        role: frozenset(itertools.compress(all_pairs, edge_mask[k * m * m :]))
                        for k, role in enumerate(roles)
                    }
                    interp = ClassicalInterpretation(
                        domain=domain,
                        true_atoms={d: label_of[d] for d in domain},
                        role_edges=role_edges,
                        root=0,
                    )
                    if not check_classical_model(interp, o):
                        return BruteForceResult(True, interp, reach, True)
        completed = reach
    return BruteForceResult(False, None, completed, not roles)


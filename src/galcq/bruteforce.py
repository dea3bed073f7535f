"""Exhaustive finite-model search for classical ontologies.

Independent oracle for the tableau: enumerates every interpretation over
domains of size 1..max_domain with the root fixed as the named individual.
A found model is definitive; exhausting the bound is not a proof of
inconsistency.  An explicit guard raises when the enumeration would be too
large.

One reader: every constraint is read into negation normal form over one
shared literal table, the global axioms by `nnf.inclusion_nnf` (the reader
the tableau uses too) and the root assertions by `nnf.nnf`.  A flat
formula becomes clauses, lists of literals.  One evaluator, `_value`, gives
any other formula a three-valued value; quantified parts are unknown.

Candidate element labels are enumerated by backtracking over the atoms,
pruning assignments that already falsify a quantifier-free global axiom.  A
clause can only turn false when its last atom is assigned, so it is checked
once, two-valued, at that atom; any other quantifier-free axiom is
evaluated at every atom it mentions.  The reachable search space is
unchanged, only its traversal is cheaper.  The oracle shares no part of the
tableau's search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classical_model import (
    ClassicalInterpretation,
    ClassicalOntology,
    check_classical_model,
)
from .errors import BudgetExceededError
from .nnf import Literals, NAnd, NAtom, NNegAtom, NOr, inclusion_nnf, nnf
from .orders import Leq


@dataclass(frozen=True)
class BruteForceResult:
    """`consistent` is definitive; otherwise no model exists with at most
    `completed_domain` elements (the largest fully enumerated size)."""

    consistent: bool
    model: Optional[ClassicalInterpretation]
    completed_domain: int


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

    Backtracking over `atoms` in order.  Each clause is kept as (position,
    sign) pairs under its largest position and tested two-valued when that
    position is assigned; an empty clause leaves no label.  The other
    `formulas` are evaluated three-valued whenever one of their atoms is
    assigned, so each gets a definite verdict at its last mention.
    """
    position = {a: i for i, a in enumerate(atoms)}
    at_last = [[] for _ in atoms]
    for clause in clauses:
        if not clause:
            return []
        pairs = [(position[d.atom], type(d) is NAtom) for d in clause]
        at_last[max(pairs)[0]].append(pairs)
    at_each = [[] for _ in atoms]
    for f in formulas:
        for a in _mentions(f):
            at_each[position[a]].append(f)
    out = []
    n_atoms = len(atoms)
    values = [False] * n_atoms  # read only at positions already assigned
    visits = 0

    def ok(i: int) -> bool:
        for pairs in at_last[i]:
            for p, sign in pairs:
                if values[p] is sign:
                    break
            else:
                return False  # every literal falsified
        if at_each[i]:
            get = lambda a: values[position[a]] if position[a] <= i else None
            for f in at_each[i]:
                if _value(f, get) is False:
                    return False
        return True

    def rec(i: int):
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceededError("label enumeration budget exhausted")
        if i == n_atoms:
            out.append(frozenset(a for a, v in zip(atoms, values) if v))
            if len(out) > budget:
                raise BudgetExceededError("too many candidate labels")
            return
        for value in (False, True):
            values[i] = value
            if ok(i):
                rec(i + 1)

    rec(0)
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
    """
    atoms, roles = o.signature()
    atoms = _prefix_order(atoms)
    lits = Literals()
    clauses, formulas = [], []
    for inc in o.inclusions:
        read = inclusion_nnf(inc, lits)
        if type(read) is list:
            clauses.append(read)
        elif (flat := _literals(read)) is not None:
            clauses += flat
        elif _mentions(read) is not None:
            formulas.append(read)
    labels = _candidate_labels(atoms, clauses, formulas, budget)
    roots = [nnf(c, lits) for _, c in o.assertions]
    root_labels = [
        lab
        for lab in labels
        if all(_value(r, lab.__contains__) is not False for r in roots)
    ]

    if not roles:
        # no roles means no quantifiers: the ontology is propositional and
        # a single element decides it for every domain size
        for lab in root_labels:
            interp = ClassicalInterpretation(
                domain=(0,),
                true_atoms={0: lab},
                role_edges={},
                root=0,
            )
            if not check_classical_model(interp, o):
                return BruteForceResult(True, interp, max_domain)
        return BruteForceResult(False, None, max_domain)

    completed = 0
    for m in range(1, max_domain + 1):
        edge_bits = len(roles) * m * m
        total = len(root_labels) * (len(labels) ** (m - 1)) * (2 ** edge_bits)
        if total > budget:
            if completed == 0:
                raise BudgetExceededError(
                    f"domain size {m} needs {total} interpretations (budget {budget})"
                )
            return BruteForceResult(False, None, completed)
        domain = tuple(range(m))
        all_pairs = tuple(itertools.product(domain, domain))
        for root_label in root_labels:
            for rest in itertools.product(labels, repeat=m - 1):
                label_of = (root_label,) + rest
                for edge_mask in itertools.product((False, True), repeat=edge_bits):
                    role_edges = {}
                    k = 0
                    for role in roles:
                        pairs = set()
                        for pair in all_pairs:
                            if edge_mask[k]:
                                pairs.add(pair)
                            k += 1
                        role_edges[role] = frozenset(pairs)
                    interp = ClassicalInterpretation(
                        domain=domain,
                        true_atoms={d: label_of[d] for d in domain},
                        role_edges=role_edges,
                        root=0,
                    )
                    if not check_classical_model(interp, o):
                        return BruteForceResult(True, interp, m)
        completed = m
    return BruteForceResult(False, None, completed)


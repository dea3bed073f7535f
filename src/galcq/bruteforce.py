"""Exhaustive finite-model search for classical ontologies.

Independent oracle for the tableau: enumerates every interpretation over
domains of size 1..max_domain with the root fixed as the named individual.
A found model is definitive; exhausting the bound is not a proof of
inconsistency.  Candidate element labels are enumerated by backtracking
over the atoms, pruning assignments that already falsify a quantifier-free
global axiom; the reachable search space is unchanged, only its traversal
is cheaper.  The global axioms are read as clauses by `nnf.inclusion_nnf`,
the reader the tableau uses too; the oracle shares no part of the
tableau's search.  An explicit guard raises when the enumeration would be
too large.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classical_model import (
    ClassicalInterpretation,
    ClassicalOntology,
    atom_of,
    check_classical_model,
)
from .concepts import (
    And,
    AtLeast,
    AtMost,
    Bot,
    Exists,
    Forall,
    Implies,
    Name,
    Not,
    Or,
    Top,
    first_occurrences,
    quantifier_depth,
)
from .errors import BudgetExceededError
from .nnf import Literals, NAnd, NAtom, NNegAtom, NOr, inclusion_nnf
from .orders import Leq


@dataclass(frozen=True)
class BruteForceResult:
    """`consistent` is definitive; otherwise no model exists with at most
    `completed_domain` elements (the largest fully enumerated size)."""

    consistent: bool
    model: Optional[ClassicalInterpretation]
    completed_domain: int


def _eval3(c, assignment: dict) -> Optional[bool]:
    """Three-valued evaluation over a partial atom assignment.

    Returns None when undecided; quantified subconcepts are always None.
    """
    match c:
        case Top():
            return True
        case Bot():
            return False
        case Name() | Leq():
            return assignment.get(c)
        case Not(sub):
            v = _eval3(sub, assignment)
            return None if v is None else not v
        case And(left, right):
            l = _eval3(left, assignment)
            r = _eval3(right, assignment)
            if l is False or r is False:
                return False
            if l is True and r is True:
                return True
            return None
        case Or(left, right):
            l = _eval3(left, assignment)
            r = _eval3(right, assignment)
            if l is True or r is True:
                return True
            if l is False and r is False:
                return False
            return None
        case Implies(left, right):
            l = _eval3(left, assignment)
            r = _eval3(right, assignment)
            if l is False or r is True:
                return True
            if l is True and r is False:
                return False
            return None
        case Exists() | Forall() | AtLeast() | AtMost():
            return None
    raise TypeError(f"not a classical concept: {c!r}")


def _clause(literals) -> tuple:
    return tuple((d.atom, type(d) is NAtom) for d in literals)


def _flat_clauses(n) -> Optional[list]:
    """The (atom, sign) clauses of a flat NNF formula (a literal, an or of
    literals, or an and of those), else None."""
    out = []
    for part in n.args if type(n) is NAnd else (n,):
        disjuncts = part.args if type(part) is NOr else (part,)
        if not all(type(d) is NAtom or type(d) is NNegAtom for d in disjuncts):
            return None
        out.append(_clause(disjuncts))
    return out


def _candidate_labels(atoms, clauses, evaluated, budget: int) -> list[frozenset]:
    """All atom subsets compatible with the quantifier-free global axioms.

    Backtracking over the atoms.  The (atom, sign) `clauses` are indexed by
    atom and checked incrementally (a clause can only turn false when one
    of its atoms is assigned); the `evaluated` concepts are re-evaluated
    three-valued whenever one of their atoms is assigned, so each gets a
    definite verdict at its last mention.
    """
    clause_index = {a: [] for a in atoms}
    for cl in clauses:
        for a, _ in cl:
            clause_index[a].append(cl)
    eval_index = {a: [] for a in atoms}
    for c in evaluated:
        for a in first_occurrences((c,), atom_of):
            eval_index[a].append(c)
    out = []
    assignment: dict = {}
    visits = 0
    n_atoms = len(atoms)

    def ok(atom) -> bool:
        get = assignment.get
        for cl in clause_index[atom]:
            for a, sign in cl:
                if get(a) is not (not sign):
                    break  # unassigned or satisfying literal
            else:
                return False  # every literal assigned and falsified
        for c in eval_index[atom]:
            if _eval3(c, assignment) is False:
                return False
        return True

    def rec(i: int):
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceededError("label enumeration budget exhausted")
        if i == n_atoms:
            out.append(frozenset(a for a, v in assignment.items() if v))
            if len(out) > budget:
                raise BudgetExceededError("too many candidate labels")
            return
        atom = atoms[i]
        for value in (False, True):
            assignment[atom] = value
            if ok(atom):
                rec(i + 1)
        del assignment[atom]

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
    atoms = _prefix_order(o.atoms())
    roles = o.roles()
    lits = Literals()
    clauses, evaluated = [], []
    for inc in o.inclusions:
        read = inclusion_nnf(inc, lits)
        if type(read) is list:
            clauses.append(_clause(read))
        elif quantifier_depth(inc.lhs) == 0 and quantifier_depth(inc.rhs) == 0:
            flat = _flat_clauses(read)
            if flat is None:
                evaluated.append(Or(Not(inc.lhs), inc.rhs))
            else:
                clauses += flat
    labels = _candidate_labels(atoms, clauses, evaluated, budget)
    root_constraints = [c for _, c in o.assertions]
    root_labels = [
        lab
        for lab in labels
        if all(_eval3(c, _total(lab, atoms)) is not False for c in root_constraints)
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


def _total(label: frozenset, atoms) -> dict:
    return {a: (a in label) for a in atoms}

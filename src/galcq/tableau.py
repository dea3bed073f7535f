"""Tableau decision procedure for classical ALCQ ontologies with GCIs.

Single named individual at the root, tree-shaped expansion (the logic has no
inverse roles), equality blocking, and the standard rules for qualified
number restrictions (choose and merge).  Every GCI `C [= D` contributes the
clause nnf(not C or D) to every node label.

Search organization:
  - a node's label is its one record of what holds there: a dict from
    concept id to a dependency bitmask of decision levels, holding the
    base concepts with the node's own dependency.  The global axioms are
    propagated once, by the ordinary rules, on a scratch node of
    dependency 0; every node starts from a copy of the base concepts and
    the resulting static seed instead of re-propagating the axioms;
  - concepts are interned to dense integers, looked up by their kind and
    their children's ids rather than by the structural NNF object; the
    NNF literals share one node per atom for the whole construction, and
    every node's sort key is computed once.  The 2n^2 order literals are
    numbered by position instead, `leq(i, j)` i*n + j and its negation
    n*n + i*n + j, and rank in key order by their elements' ranks;
  - every model has `leq(i, j)` iff `leq(inv j, inv i)` (antitonicity), so
    the two atoms of such a pair are one literal, the representative, the
    atom of lower sort key.  The interner hands it out for both atoms, so
    every formula, filler, label, clause and blocking key holds
    representatives only, and the antitonicity clauses, `not r or r`, are
    never read.  A node's order bitsets hold both atoms of every literal
    in its label, and `_export` gives both atoms to the completion graph;
  - the order families that the reduction's order structure
    (`ClassicalOntology.order`) fixes by itself are read from it, not
    from inclusions: the transitivity clauses `(and t[i][j] t[j][k]) [=
    t[i][k]` over three distinct positions (the n^3 bulk), the totality
    clause `leq(i, j) or leq(j, i)` of every pair i != j, and the transfer
    clauses `t[i][j] [= all r t[up i][up j]` and `not t[i][j] [= all r
    not t[up i][up j]` of every pair of base positions and role r, each
    over representatives, where the clause of (i, j, k) is that of its
    image (inv k, inv j, inv i), and those of (i, j) are those of (inv j,
    inv i).  They are present by construction and never interned, each
    known by its positions, which give its literals' ids; only
    transfer's quantified concepts are interned.  The triples (i, i, k)
    and (i, k, k) read `r or not r or not leq(m, m)`: never a unit, but a
    branch of the scan while r is open, so they are clause entries too.
    The others are not read at all: each holds by a base fact `leq(i,
    i)`, which totality gives at i = j as a unit, or is the antitonicity
    clause `r or not r`, which sorts after one of those two triples and
    so never branches.  The bounds, the constant facts and every given inclusion are read as
    formulas by `nnf.inclusion_nnf`, the reader the brute-force oracle
    shares, and interned beside those units; an ontology without a
    structure has all its order clauses read that way.  A given
    inclusion equal to a clause read by position is interned besides it
    and searches alike; any other concept equal to one (a filler, or a
    disjunct's complement) is not known as a base clause, and the
    reduction builds none;
  - every clause has one shape, the entry (id, disjuncts, complements),
    id None for a clause read by position.  The base concepts are in
    sort-key order, with the clauses read by position and runs (i, k,
    j bits) of triples merged between the disjunctions;
  - an order fact settles its own clauses: four bitsets per node over its
    label hold the order facts, P_row[i] and P_col[j] the `leq(i, j)`
    facts, N_row[i] and N_col[j] the refuted ones, and `_order_fact`
    reads off them the ~2n triples over its pair that act (leave one
    disjunct open or none), each at its first listing, then for `not
    leq(i, j)` its totality partner `leq(j, i)`, then its transfer units,
    `transfer_units` in role order.  Each is settled from the label
    entries of its other atoms, with the unit or clash and dependencies
    that examining its clause gives, and no clause is built.  Then come
    the interned clauses filed under it in `_Interner.watch`, the one
    watch index, in id order.  This is the order of interning and
    watching every clause of `ClassicalOntology.inclusions` over
    representatives, which lists transitivity, then totality,
    antitonicity, transfer and the given inclusions.  Every
    other fact examines the clauses watched under it with `_examine`,
    the one rule of unit propagation and clause clashes over a clause
    entry.  A clause holding a concept and its complement is never a
    unit or a clash and is not watched.  Branching scans a node's base
    and extra clauses, entries and runs, with pointers that pass every
    clause with a present disjunct, a run of triples by bit tests; the
    first clause without one goes to `_examine`, and only a clause that
    stays open becomes a branch;
  - `_find_decision` walks node bitsets, not every live node (ids are
    creation order).  Every change to a node marks it and its parent.
    Each phase takes its nodes lowest id first, so it decides what a walk
    over every node would; the clause and choose phases share one agenda,
    from which the choose phase drops the nodes without work in either.
    Blocking is kept the same way: `_refresh` refiles the marked nodes in
    classes of equal labels, and redecides only the nodes whose activity
    may have changed;
  - every decision is (kind, node, alternatives, exhaustion dependency):
    "or" tries a clause's open disjuncts semantically (failed atomic ones
    are asserted negatively before the next try), "choose" tries (not q, q)
    at a successor, "merge" pairs of successors.  The exhaustion dependency
    (the refuted disjuncts', 0, the full mask) joins the conflict once
    every alternative has failed.  An "or" decision also carries its
    clause's disjuncts, the key of phase saving: the disjunct it applied
    last, at any node and kept across backjumps, goes first when the
    clause branches again, so each node of a witness chain does not
    re-refute the choice the one before it gave up.  Only the order of
    the alternatives moves, never which are tried;
  - backtracking is conflict-directed: every derived fact carries the set
    of decision levels it rests on, and a clash jumps straight back to the
    deepest involved level, skipping unrelated decisions.  Dependency sets
    are over-approximated wherever a rule's firing condition is hard to
    attribute (merges, crowded at-least firings), which can only reduce
    jumping, never solutions.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .classical_model import ClassicalInterpretation, ClassicalOntology, fact_axioms
from .errors import BudgetExceededError
from .nnf import (
    Literals,
    NAnd,
    NAtLeast,
    NAtMost,
    NAtom,
    NForall,
    NNegAtom,
    NOr,
    _element_key,
    inclusion_nnf,
    negate_nnf,
    nnf,
    sort_key,
)
from .orders import _positions

# Default resource budgets of a tableau run: nodes created and rule steps.
NODE_BUDGET = 5000
STEP_BUDGET = 2_000_000
# Elements of an unravelled tree model.  With two successors per element a
# tree doubles per level: `check --emit-model --depth 12` makes 8,191 elements
# and peaks at 25 MB, `--depth 14` 32,767 at 52 MB (CPython 3.11), and each
# further level doubles both.  The benchmark's trees have at most 85.
TREE_BUDGET = 50_000

_KIND_ATOM = 0
_KIND_NEGATOM = 1
_KIND_AND = 2
_KIND_OR = 3
_KIND_FORALL = 4
_KIND_ATLEAST = 5
_KIND_ATMOST = 6


def _pair_key(x: int, y: int) -> tuple:
    """The ranks x and y of a triple's negative disjuncts in sort order:
    (x, -1) for one disjunct, which sorts as (x,) would against a tail."""
    return (x, y) if x < y else (y, x) if y < x else (x, -1)


def _increasing(values: list) -> tuple:
    """`values` in increasing order, and the bits of the positions of the
    first c of them, by c."""
    order = sorted(range(len(values)), key=values.__getitem__)
    bits = itertools.accumulate((1 << j for j in order), operator.or_, initial=0)
    return [values[j] for j in order], list(bits)


def _mirror(bits: int, inv) -> int:
    """The positions inv p of the set bits p of `bits`."""
    out = 0
    for p in _positions(bits):
        out |= 1 << inv[p]
    return out


class _Clash(Exception):
    """Internal: current branch is contradictory.

    `conflict` is the bitmask of decision levels the contradiction rests
    on; bit 0 stands for decision-free facts.
    """

    def __init__(self, conflict: int):
        self.conflict = conflict


class _Interner:
    """Bijection between NNF concepts and dense integer ids.

    A concept is looked up by `(kind, part)`, where `part` is the atom of a
    literal and otherwise already holds the child ids, so a lookup hashes a
    shallow tuple whatever the concept's depth.  `parts` holds the per-id
    rule descriptor: child ids for and/or, (role, sub) for forall, (n, role,
    sub) for the counting restrictions; `clauses` holds every disjunction's
    clause entry, (its id, its disjuncts, their complements), the one shape
    of every clause the tableau examines; `watch` files each entry under
    the complements of its disjuncts, in filing order (a transfer clause
    only under its quantified one).  `lits` shares literal nodes across
    every formula built for this tableau.  Given an order structure
    `order`, its 2n^2 literals are filled in bulk ahead of the rest:
    `leq(i, j)` is id i*n + j, its negation n*n + i*n + j.  Every model
    has `leq(i, j)` iff `leq(inv j, inv i)`, so the two atoms of such a
    pair share one literal, the representative: the one of lower sort key,
    which the involution may make the atom itself.  `rep[p]` is the
    representative's position for position p, and `partner[p]` the
    position of the pair's other atom; `lits` hands out the
    representative's literal nodes for both atoms and `ids` finds its ids
    by either, so every formula built here lands on representatives.
    `element_rank` ranks the positions by their elements' sort keys.
    """

    def __init__(self, order=None):
        atoms = [] if order is None else [a for row in order.table for a in row]
        nn = len(atoms)
        self.objs: list = [*map(NAtom, atoms), *map(NNegAtom, atoms)]
        self.rep = self.partner = list(range(nn))
        self.element_rank = []
        if order is not None:
            n, inv = len(order), order.inverse
            keys = [_element_key(e) for e in order.elements]
            er = self.element_rank = [0] * n
            for r, p in enumerate(sorted(range(n), key=keys.__getitem__)):
                er[p] = r
            self.partner = [inv[j] * n + inv[i] for i in range(n) for j in range(n)]
            key = [x * n + y for x in er for y in er]  # leq(i, j) by (er[i], er[j])
            self.rep = [p if key[p] <= key[q] else q for p, q in enumerate(self.partner)]
        rep = self.rep
        negated = [nn + r for r in rep]
        self.lits = Literals()
        self.lits.pos = dict(zip(atoms, map(self.objs.__getitem__, rep)))
        self.lits.neg = dict(zip(atoms, map(self.objs.__getitem__, negated)))
        self.kinds: list[int] = [_KIND_ATOM] * nn + [_KIND_NEGATOM] * nn
        self.parts: list = atoms + atoms
        self.ids: dict = dict(zip(zip(self.kinds, self.parts), rep + negated))
        self.negs: list = [*range(nn, 2 * nn), *range(nn)]
        self.clauses: list = [None] * (2 * nn)
        self.watch: dict[int, list[tuple]] = {}

    def intern(self, n) -> int:
        match n:
            case NAtom(atom):
                kind, part = _KIND_ATOM, atom
            case NNegAtom(atom):
                kind, part = _KIND_NEGATOM, atom
            case NAnd(args):
                kind, part = _KIND_AND, tuple(self.intern(a) for a in args)
            case NOr(args):
                kind, part = _KIND_OR, tuple(self.intern(a) for a in args)
            case NForall(role, sub):
                kind, part = _KIND_FORALL, (role, self.intern(sub))
            case NAtLeast(count, role, sub):
                kind, part = _KIND_ATLEAST, (count, role, self.intern(sub))
            case NAtMost(count, role, sub):
                kind, part = _KIND_ATMOST, (count, role, self.intern(sub))
            case _:
                raise TypeError(f"not an NNF concept: {n!r}")
        cid = self.ids.get((kind, part))
        return self._new(n, kind, part) if cid is None else cid

    def _new(self, n, kind: int, part) -> int:
        cid = len(self.objs)
        self.ids[(kind, part)] = cid
        self.objs.append(n)
        self.kinds.append(kind)
        self.parts.append(part)
        self.negs.append(None)
        self.clauses.append(None)
        if kind == _KIND_OR:
            negs = tuple(self.negation(d) for d in part)
            self.clauses[cid] = clause = (cid, part, negs)
            # a clause holding a concept and its complement is never a unit
            # or a clash: whichever of the two is refuted, the other holds
            if not any(nd in part for nd in negs):
                for nd in negs:
                    self.watch.setdefault(nd, []).append(clause)
        return cid

    def negation(self, cid: int) -> int:
        neg = self.negs[cid]
        if neg is None:
            neg = self.intern(negate_nnf(self.objs[cid], self.lits))
            self.negs[cid] = neg
            self.negs[neg] = cid
        return neg


class _Node:
    __slots__ = (
        "id",
        "parent",
        "parent_roles",
        "dep",
        "children",
        "label",
        "atleasts",
        "atmosts",
        "extra_ors",
        "bits",
        "base_ptr",
        "extra_ptr",
        "pruned",
        "bit",
        "mark",
        "twins",
        "crowding",
    )

    def __init__(self, nid, parent, parent_roles, dep):
        self.id = nid
        self.parent = parent
        self.bit = 1 << nid
        # the agenda bits a change to this node sets: its own and its parent's
        self.mark = self.bit | (0 if parent is None else 1 << parent)
        self.twins = None  # its blocking class, filed in `Tableau.classes`
        self.crowding = None  # `Tableau._crowding` of it, if in `crowded`
        self.parent_roles = parent_roles
        self.dep = dep
        self.children = []
        self.label = {}  # concept id -> dependency bitmask
        self.atleasts = []
        self.atmosts = []
        self.extra_ors = []
        self.bits = []  # order bitsets: P_row, P_col, N_row, N_col
        self.base_ptr = 0
        self.extra_ptr = 0
        self.pruned = False


@dataclass(frozen=True)
class GraphNode:
    id: int
    parent: Optional[int]
    roles: frozenset
    atoms: frozenset
    children: tuple
    blocked_by: Optional[int]


@dataclass(frozen=True)
class CompletionGraph:
    nodes: dict
    root: int


@dataclass(frozen=True)
class TableauResult:
    consistent: bool
    graph: Optional[CompletionGraph]


_CLASHED = object()
_ACTED = ("acted",)


class Tableau:
    def __init__(
        self,
        ontology: ClassicalOntology,
        node_budget: int = NODE_BUDGET,
        step_budget: int = STEP_BUDGET,
        trace: Optional[Callable[[str], None]] = None,
    ):
        self.node_budget = node_budget
        self.step_budget = step_budget
        self.trace = None  # set after the silent static pre-pass
        self.interner = _Interner(ontology.order)
        self.nodes: list[_Node] = []
        self.created = 0
        self.steps = 0
        self.trail: list = []
        self.queue: deque = deque()
        self.neq: dict = {}  # frozenset{a,b} -> dependency bitmask
        self.stack: list = []
        # search counters: decisions pushed, by kind; clashes that discard
        # at least one decision unrelated to the conflict; deepest stack
        self.or_decisions = 0
        self.choose_decisions = 0
        self.merge_decisions = 0
        self.backjumps = 0
        self.peak_depth = 0
        # phase saving: a clause's disjuncts -> the alternative last applied
        # for it, tried first at its next branch; kept across backjumps
        self.phase: dict = {}
        # the node agenda, bitsets over node ids: `marked` the nodes changed
        # since the last `_find_decision` (a node and its parent on every
        # change), `crowded` the nodes with crowded at-mosts, `agenda` the
        # nodes that may have clause or choose work, and `stale` the nodes
        # marked since the last `_refresh`, which refiles them and keeps
        # `unmet`, the live nodes with an unmet at-least.  Blocking:
        # `classes` files every live node under its label's key set, in
        # the class of the live nodes with that key set ([bits, key set]);
        # `active` is the set of active nodes
        self.marked = 0
        self.crowded = 0
        self.agenda = 0
        self.stale = 0
        self.unmet = 0
        self.classes: dict[frozenset, list] = {}
        self.active = 0

        interner = self.interner
        base, transfer = self._read_inclusions(ontology)
        self.base_set = frozenset(base)
        self.base_order, self.base_ors = self._base_order(base, transfer)
        # the interned base concepts, in base order
        self.base_list = tuple(c for c in self.base_order if type(c) is int)
        individuals = {ind for ind, _ in ontology.assertions}
        if individuals - {ontology.individual}:
            raise ValueError("assertions must use the ontology's single individual")
        self.root_ids = tuple(
            interner.intern(nnf(c, interner.lits)) for _, c in ontology.assertions
        )
        self._precompute_static()
        self.trace = trace

    def _read_inclusions(self, ontology: ClassicalOntology) -> tuple[set, list]:
        """Intern the base clauses; return their ids and the transfer
        clauses of `_read_transfer` that go into the base order.

        Every given inclusion is read by `nnf.inclusion_nnf`, and so are
        the bounds and constant facts of the ontology's order structure,
        if it has one; its totality units `leq(i, i)` are the
        representatives of ids i * (n + 1).  None of the structure's
        transitivity, totality and transfer clauses is interned: each is
        known by its positions.  The others of the first two families are
        left out, since each is a tautology or holds by the base facts
        `leq(i, i)`, and so is antitonicity, whose every clause reads `not
        r or r` over the representative r.  The facts, the transfer
        family's quantified concepts and the given
        inclusions are interned in that order, the order of
        `ClassicalOntology.inclusions`.
        """
        interner = self.interner
        lits = interner.lits
        base = set()
        order = ontology.order
        self.order_n = 0 if order is None else len(order)
        axioms = ontology.axioms
        transfer = []
        self.transfer_units = [()] * (2 * self.order_n**2)
        if order is not None:
            rep = interner.rep
            base.update(rep[p] for p in range(0, self.order_n**2, self.order_n + 1))  # leq(i, i)
            facts = fact_axioms(order)
            base.update(interner.intern(inclusion_nnf(inc, lits)) for inc in facts)
            transfer = self._read_transfer(order)
        base.update(interner.intern(inclusion_nnf(inc, lits)) for inc in axioms)
        self._index_order_literals(order)
        return base, transfer

    def _read_transfer(self, order) -> list:
        """Read the transfer family of `order` by position; return its
        clauses over distinct positions.

        The clauses of base positions (i, j) and role r, `not leq(i, j) or
        all r leq(up i, up j)` and `leq(i, j) or all r not leq(up i, up
        j)`, become clause entries, and only their quantified disjuncts and
        complements are interned, in the order interning the clauses would
        intern them.  Each is filed in `_Interner.watch` under its
        quantified complement, ahead of every interned clause there, as its
        place in `ClassicalOntology.inclusions` would file it.  Its literal
        complement is not watched: `transfer_units[cid]` holds, in role
        order, the quantified disjunct of each clause that order literal
        `cid` refutes the other disjunct of, and `_order_fact` settles
        those ahead of the interned clauses watched under the literal, as
        watching them there did.  Those at i = j go into no base order:
        `leq(i, i) or ...` holds by that base fact, and the other only
        makes the static pass add `all r leq(up i, up i)` to every label
        when it processes `leq(i, i)`.  The clauses of (i, j) and of its
        image (inv j, inv i) are one clause over representatives, read at
        the one listed first."""
        interner = self.interner
        lits, intern, negation = interner.lits, interner.intern, interner.negation
        t, up, inv, n = order.table, order.up, order.inverse, self.order_n
        units, watch, rep = self.transfer_units, interner.watch, interner.rep
        out = []
        for i, j in itertools.product(range(len(up)), repeat=2):
            if (inv[j], inv[i]) < (i, j):
                continue
            a = rep[i * n + j]
            na = n * n + a
            there = t[up[i]][up[j]]
            for r in order.roles:
                forall = intern(NForall(r, lits.atom(there)))
                first = None, (na, forall), (a, negation(forall))
                forall = intern(NForall(r, lits.negated(there)))
                clauses = first, (None, (a, forall), (na, negation(forall)))
                for clause in clauses:
                    literal, side = clause[2]
                    units[literal] += (clause[1][1],)
                    watch.setdefault(side, []).append(clause)
                if i != j:
                    out += clauses
        return out

    def _index_order_literals(self, order):
        """Tables over the literals of the order structure `order` (None
        for none), whose ids are their positions in the interner's block:
        `order_of` the positions of each representative over distinct
        positions (None elsewhere) and the bitset slots of it and of its
        partner, `by_rank` and `element_rank` the positions by the
        elements' sort keys, which order the disjuncts of the clauses read
        by position, and `fixed` the bit of the position that the
        involution fixes (the constant 1/2), 0 for none."""
        n = self.order_n
        nn = n * n
        interner = self.interner
        self.inverse = inv = () if order is None else order.inverse
        self.fixed = sum(1 << p for p in range(n) if inv[p] == p)
        self.order_ids = 2 * nn  # the ids of the block
        self.element_rank = er = interner.element_rank
        self.by_rank = sorted(range(n), key=er.__getitem__)
        # (i, j, then per atom of the pair: the P_row[i] slot and bit j and
        # the P_col[j] slot and bit i), N_row and N_col for the negation
        order_of = self.order_of = [None] * (2 * nn)
        for p, q in enumerate(interner.partner):
            i, j = divmod(p, n)
            if i != j and interner.rep[p] == p:
                k, m = divmod(q, n)
                for s in (0, 2 * n):
                    slots = (s + i, 1 << j, s + n + j, 1 << i, s + k, 1 << m, s + n + m, 1 << k)
                    order_of[p + (s >> 1) * n] = (i, j) + slots

    def _ranks(self, disjuncts) -> list:
        """Ranks by id of the order literals and of `disjuncts`, in the
        sort-key order of their concepts.  With m - 1 disjuncts besides the
        literals, the literal b-th in key order (`leq(i, j)` at b = er[i]*n +
        er[j], its negation at n*n + b) ranks b*m + m - 1, and the k-th of
        the others by key c*m + k, where c literals come before it: all of
        them, but for a literal outside the block (a `Name` atom)."""
        objs = self.interner.objs
        n, er, by_rank = self.order_n, self.element_rank, self.by_rank
        nn = n * n
        rest = sorted((d for d in disjuncts if d >= 2 * nn), key=lambda d: sort_key(objs[d]))
        m = len(rest) + 1
        ranks = [x + y for x in [(r * n + 1) * m - 1 for r in er] for y in [r * m for r in er]]
        ranks += [r + nn * m for r in ranks] + [0] * (len(objs) - 2 * nn)
        for k, d in enumerate(rest):
            key, c = sort_key(objs[d]), 2 * nn
            if key[0] < 2:  # a literal: bisect the literals in key order
                by_key = [s + i * n + j for s in (0, nn) for i in by_rank for j in by_rank]
                c = bisect_left(by_key, key, key=lambda b: sort_key(objs[b]))
            ranks[d] = c * m + k
        return ranks

    def _base_order(self, base: set, transfer: list) -> tuple:
        """The base concepts in sort-key order with the clauses read by
        position merged in, and its slice of disjunctions as clause entries
        and runs of triples.

        A disjunction's key is (3, its disjuncts' keys), and its disjuncts
        are in key order, so disjunctions compare by the ranks of their
        disjuncts, `_ranks`: the order literals' by position, the others'
        from one sort of them alone.  Only representatives occur in them.
        A positive one, r = leq(i, k), i != k, leads the block of clauses
        that start with it: the totality clause of {i, k} if r comes first
        in it, the interned ones, and the triples (i, j, k).  A triple has
        the disjuncts r, then the representatives' negations of leq(i, j)
        and leq(j, k) in key order, one if they coincide, and the block
        holds them in that order (`_in_block_order`), one j of each two
        that make one clause (the image of (i, j, k) is (i, inv j, k) when
        k = inv i).  They are merged in as runs (i, k, j bits),
        split before each other clause of the block whose remaining
        disjuncts come after theirs.  The other clauses read by position
        are clause entries, each ahead of an interned one equal to it.  The
        `transfer` clauses are sorted with the interned disjunctions: `r or
        all r' not ...` ends the block of r, after every triple, and `not r
        or all r' ...` falls among the clauses led by a negative literal,
        which follow the blocks.
        """
        interner = self.interner
        objs, kinds, parts, rep = interner.objs, interner.kinds, interner.parts, interner.rep
        n = self.order_n
        nn = n * n
        ors = [c for c in base if kinds[c] == _KIND_OR]
        others = sorted(
            (c for c in base if kinds[c] != _KIND_OR), key=lambda c: sort_key(objs[c])
        )
        disjuncts = {d for c in ors for d in parts[c]}
        disjuncts.update(clause[1][1] for clause in transfer)
        rank = self._ranks(disjuncts).__getitem__
        # (disjunct ranks, clause), stable: a transfer clause comes ahead
        # of an interned one equal to it
        keyed = [(tuple(map(rank, clause[1])), clause) for clause in transfer]
        keyed += ((tuple(map(rank, parts[c])), c) for c in ors)
        keyed.sort(key=lambda pair: pair[0])
        # the rank of not rep[p], by p, which orders the triples of a block,
        # and in increasing order over each row i and each column k, with
        # the bits of the positions below each
        negated = self.negated = [rank(nn + r) for r in rep]
        last = max(negated, default=0)
        rows = [_increasing(negated[i * n : i * n + n]) for i in range(n)]
        columns = [_increasing(negated[k::n]) for k in range(n)]
        upper = sum(1 << j for j in range(n) if self.inverse[j] < j)
        merged = []
        at = 0  # the next interned disjunction in `keyed`
        for i in self.by_rank:
            for k in self.by_rank:
                p = i * n + k
                if i == k or rep[p] != p:
                    continue
                lead = rank(p)
                while at < len(keyed) and keyed[at][0][0] < lead:
                    merged.append(keyed[at][1])
                    at += 1
                # the block's triples, one j of each two that are images
                rest = ((1 << n) - 1) & ~(1 << i | 1 << k)
                if k == self.inverse[i]:
                    rest &= ~upper

                # each clause of the block: its remaining disjuncts' ranks,
                # the clause, and the middle positions j of the triples
                # before it.  No triple comes before totality, whose second
                # disjunct is positive
                heads = []
                q = rep[k * n + i]
                if lead < rank(q):
                    heads.append(((rank(q),), (None, (p, q), (nn + p, nn + q)), 0))
                # the triples (i, i, k) and (i, k, k): `p or not p`, and not
                # the base fact leq(i, i) or leq(k, k), open until p is
                # decided.  No triple of the block holds either negation, so
                # one comes first iff a negative disjunct of it ranks below
                # both
                (row, row_bits), (column, column_bits) = rows[i], columns[k]
                for m in (i, k) if rep[i * (n + 1)] != rep[k * (n + 1)] else (i,):
                    a, x, y = rep[m * (n + 1)], negated[m * (n + 1)], negated[p]
                    entry = (p, nn + a, nn + p) if x < y else (p, nn + p, nn + a)
                    tail = (x, y) if x < y else (y, x)
                    first = row_bits[bisect_left(row, tail[0])] | column_bits[bisect_left(column, tail[0])]
                    heads.append((tail, (None, entry, (nn + p, entry[1] - nn, entry[2] - nn)), first & rest))
                while at < len(keyed) and keyed[at][0][0] == lead:
                    tail = keyed[at][0][1:]
                    below = rest  # after every negative literal
                    if tail[0] <= last:
                        below = sum(
                            1 << j
                            for j in _positions(rest)
                            if _pair_key(negated[i * n + j], negated[j * n + k]) < tail
                        )
                    heads.append((tail, keyed[at][1], below))
                    at += 1
                heads.sort(key=lambda head: head[0])  # stable
                for _, entry, below in heads:  # `rest`: the triples not merged yet
                    run = rest & below
                    if run:
                        merged.append((i, k, run))
                        rest ^= run
                    merged.append(entry)
                if rest:
                    merged.append((i, k, rest))
        merged.extend(cid for _, cid in keyed[at:])
        head = [c for c in others if kinds[c] < _KIND_OR]
        ors = tuple(interner.clauses[c] if type(c) is int else c for c in merged)
        return tuple(head + merged + others[len(head) :]), ors

    def _triple(self, i: int, j: int, k: int) -> tuple:
        """The clause entry of the triple (i, j, k), `(and leq(i, j) leq(j,
        k)) [= leq(i, k)` over representatives, its disjuncts in sort-key
        order: two if leq(i, j) and leq(j, k) share one, at j = inv j and k
        = inv i."""
        n, rep, er = self.order_n, self.interner.rep, self.element_rank
        nn = n * n
        ik, ij, jk = rep[i * n + k], rep[i * n + j], rep[j * n + k]
        if ij == jk:
            return None, (ik, nn + ij), (nn + ik, ij)
        if (er[jk // n], er[jk % n]) < (er[ij // n], er[ij % n]):
            ij, jk = jk, ij
        return None, (ik, nn + ij, nn + jk), (nn + ik, ij, jk)

    def _in_block_order(self, i: int, k: int, run: int) -> list:
        """The middle positions j of the triples (i, j, k) in `run`, in the
        order of the block of leq(i, k): by their negative disjuncts'
        ranks."""
        n, negated = self.order_n, self.negated
        return sorted(
            _positions(run), key=lambda j: _pair_key(negated[i * n + j], negated[j * n + k])
        )

    def _precompute_static(self):
        """Propagate the global axioms once, on a scratch node.

        Every node starts from the same deterministic consequences of the
        global axioms (numeric facts, bounds, conjunct decompositions and
        units), so the ordinary rules derive them once, on a node of
        dependency 0 without neighbours, and new nodes copy them.  A clash
        there means the axioms are contradictory at every element, hence
        inconsistency.  The pass is bounded by the interned concepts and the
        clauses read by position; it is not traced and takes no steps.  The
        node, kept as `seed`, starts out holding the base concepts, and new
        nodes copy its label, restrictions, disjunctions and order bits.
        """
        node = _Node(0, None, frozenset(), 0)
        node.label = dict.fromkeys(self.base_list, 0)
        bits = node.bits = [0] * (4 * self.order_n)
        for cid, order in enumerate(self.order_of):
            if order is not None and cid in self.base_set:
                for s in range(2, 10, 2):
                    bits[order[s]] |= order[s + 1]
        self.nodes.append(node)
        queue = self.queue
        n = self.order_n
        p_col, n_row, n_col = n, 2 * n, 3 * n
        try:
            # every base clause first, in base order, then what they add:
            # queue order
            for entry in self.base_order:
                if type(entry) is int:
                    self._process(0, entry)
                    continue
                if type(entry[2]) is tuple:  # totality or transfer
                    self._examine(0, entry)
                    continue
                # a run of triples (i, j, k) of one (i, k): examine them all
                # if one acts, leaving no disjunct present and one or none
                # open; the one of two disjuncts (j = inv j, k = inv i) acts
                # once not leq(i, k) holds
                i, k, run = entry
                if bits[i] >> k & 1:
                    continue
                run_open = run & ~(bits[n_row + i] | bits[n_col + k])
                if bits[n_row + i] >> k & 1:
                    fixed = self.fixed if k == self.inverse[i] else 0
                    acting = run_open & (bits[i] | bits[p_col + k] | fixed)
                else:
                    acting = run_open & bits[i] & bits[p_col + k]
                if acting:
                    for j in self._in_block_order(i, k, run):
                        self._examine(0, self._triple(i, j, k))
            while queue:
                self._process(*queue.popleft())
            self.static_clash = False
        except _Clash:
            self.static_clash = True
        self.seed = node
        self.nodes.clear()
        queue.clear()
        self.trail.clear()
        self.marked = 0

    # ------------------------------------------------------------------
    # label operations

    def _full_mask(self) -> int:
        return (1 << (len(self.stack) + 1)) - 1

    def _add(self, nid: int, cid: int, dep: int, rule: str = ""):
        node = self.nodes[nid]
        label = node.label
        if cid in label:
            return
        interner = self.interner
        neg = interner.negs[cid]
        if neg is None:
            neg = interner.negation(cid)
        if neg in label:
            raise self._clash(nid, cid, dep | label[neg])
        label[cid] = dep
        self.marked |= node.mark
        if cid < self.order_ids:
            order = self.order_of[cid]
            if order is not None:
                _, _, a, x, b, y, c, z, d, w = order
                bits = node.bits
                bits[a] |= x
                bits[b] |= y
                bits[c] |= z
                bits[d] |= w
        self.trail.append(("add", nid, cid))
        self.queue.append((nid, cid))
        if rule and self.trace:
            self.trace(f"{rule} n{nid} {interner.objs[cid]!r}"[:200])

    def _clash(self, nid: int, what, conflict: int) -> _Clash:
        """The `_Clash` of `conflict` at node `nid`, traced as a `clash` line
        naming `what`: the concept id whose complement is present, or the
        disjunct ids of a clause with every disjunct refuted."""
        if self.trace:
            objs = self.interner.objs
            shown = objs[what] if type(what) is int else tuple(objs[d] for d in what)
            self.trace(f"clash n{nid} {shown!r}"[:200])
        return _Clash(conflict)

    def _process(self, nid: int, cid: int):
        """Apply the rules of concept `cid`, just added at node `nid`: an
        order literal goes to `_order_fact`; any other concept is
        decomposed by its kind, and the clauses watched under it are
        examined."""
        node = self.nodes[nid]
        if node.pruned:
            return
        if cid < self.order_ids:
            self._order_fact(nid, node, cid)
            return
        interner = self.interner
        label = node.label
        kind = interner.kinds[cid]
        part = interner.parts[cid]
        # only the rules that use the dependency look it up; clauses do not
        if kind == _KIND_ATOM or kind == _KIND_NEGATOM:
            neg = interner.negation(cid)
            if neg in label:
                raise self._clash(nid, cid, label[cid] | label[neg])
        elif kind == _KIND_AND:
            dep = label[cid]
            for a in part:
                self._add(nid, a, dep)
        elif kind == _KIND_OR:
            if not part:
                raise self._clash(nid, cid, label[cid])
            clause = interner.clauses[cid]
            if cid not in self.base_set:
                node.extra_ors.append(clause)
                self.trail.append(("pop", node.extra_ors))
            self._examine(nid, clause)
        elif kind == _KIND_FORALL:
            role, sub = part
            dep = label[cid]
            for child_id in self._live_children(node, role):
                child_dep = self.nodes[child_id].dep
                self._add(child_id, sub, dep | child_dep, rule="forall")
        elif kind == _KIND_ATLEAST or kind == _KIND_ATMOST:
            counted = node.atleasts if kind == _KIND_ATLEAST else node.atmosts
            counted.append(cid)
            self.trail.append(("pop", counted))
        # the clauses it refutes a disjunct of, the transfer ones read by
        # position first: the order of interning them all
        for clause in interner.watch.get(cid, ()):
            oid = clause[0]
            if oid is None or oid in label:
                self._examine(nid, clause)

    def _order_fact(self, nid: int, node: _Node, cid: int):
        """Process order literal `cid`, a representative, at node `nid`:
        settle each clause it refutes a disjunct of and that acts (leaves
        one disjunct open or none) straight from the node's bitsets and
        label, in the order of interning and watching every clause over
        representatives.

        With `cid` over (i, j), `leq(i, j)` refutes a disjunct of the
        triples (h, i, j) and (i, j, k), `not leq(i, j)` one of the
        triples (i, m, j); their images (inv k, inv j, inv i) hold the
        partner and are the same clauses.  A triple acts when neither of
        its other two disjuncts is present and one of their complements
        is.  The acting triples are read from the bitsets, which hold both
        atoms of every pair, before the first is settled, as watching
        every triple would find them, but for one case: a unit of one
        triple can settle a disjunct of another when the two share an atom
        up to the pair.  For `leq(i, j)` that couples (i, j, inv j) with
        (i, j, inv i) and (inv i, i, j) with (inv j, i, j), or, if i or j
        is the fixed position of inv, (i, j, k) with (inv k, i, j); the
        partner of an acting triple is settled too, acting or not.  Each
        clause is settled once, at its first listing, the lower of (i * n
        + j) * n + k and its image's; at j = inv i and the fixed position
        h, the triple (i, h, j) is the clause `leq(i, j) or not leq(i,
        h)`.  Then come the totality clause of {i, j} for `not leq(i, j)`,
        the transfer clauses of `transfer_units` in role order, and, by
        `_examine`, the interned clauses filed under `cid` in
        `_Interner.watch`."""
        label = node.label
        nn = self.order_ids >> 1
        neg = cid - nn if cid >= nn else cid + nn
        if neg in label:
            raise self._clash(nid, cid, label[cid] | label[neg])
        dep = node.dep | label[cid]
        settle = self._settle
        order = self.order_of[cid]
        if order is not None:
            n, bits, inv, rep = self.order_n, node.bits, self.inverse, self.interner.rep
            i, j = order[0], order[1]
            others = ~(1 << i | 1 << j)  # every triple over distinct positions
            units = []
            if cid < nn:
                ks = (bits[j] | bits[2 * n + i]) & ~(bits[2 * n + j] | bits[i]) & others
                if j == inv[i]:
                    hs = 0  # (h, i, j) is the image of (i, j, inv h)
                else:
                    hs = (bits[n + i] | bits[3 * n + j]) & ~(bits[3 * n + i] | bits[n + j]) & others
                    if self.fixed >> i & 1 or self.fixed >> j & 1:
                        mirror = _mirror(hs, inv)
                        hs |= _mirror(ks, inv) & others
                        ks |= mirror & others
                    else:
                        coupled = (1 << inv[i] | 1 << inv[j]) & others
                        if ks & coupled:
                            ks |= coupled
                        if hs & coupled:
                            hs |= coupled
                if ks:
                    ij = (i * n + j) * n
                    image = inv[j] * n + inv[i]
                    for k in _positions(ks):
                        a, b = ij + k, image + inv[k] * n * n
                        units.append((a if a < b else b, rep[i * n + k], nn + rep[j * n + k]))
                if hs:
                    image = (inv[j] * n + inv[i]) * n
                    for h in _positions(hs):
                        a, b = (h * n + i) * n + j, image + inv[h]
                        units.append((a if a < b else b, rep[h * n + j], nn + rep[h * n + i]))
            else:
                ms = (bits[i] | bits[n + j]) & ~(bits[2 * n + i] | bits[3 * n + j]) & others
                if j == inv[i]:
                    fixed = self.fixed
                    for m in _positions(ms & ~fixed):
                        if m < inv[m]:  # (i, inv m, j) is its image
                            units.append(((i * n + m) * n + j, nn + rep[i * n + m], nn + rep[m * n + j]))
                    if fixed & others:
                        m = fixed.bit_length() - 1
                        units.append(((i * n + m) * n + j, nn + rep[i * n + m], neg))
                elif ms:
                    image = (inv[j] * n) * n + inv[i]
                    for m in _positions(ms):
                        a, b = (i * n + m) * n + j, image + inv[m] * n
                        units.append((a if a < b else b, nn + rep[i * n + m], nn + rep[m * n + j]))
            if units:
                units.sort()
                for _, d, e in units:
                    settle(nid, label, dep, d, e)
            if cid >= nn and not bits[j] >> i & 1:
                settle(nid, label, dep, rep[j * n + i], neg)
        for forall in self.transfer_units[cid]:
            settle(nid, label, dep, forall, neg)
        for clause in self.interner.watch.get(cid, ()):
            if clause[0] in label:
                self._examine(nid, clause)

    def _settle(self, nid: int, label: dict, dep: int, d: int, e: int):
        """Settle at node `nid`, whose label is `label`, a clause whose
        disjuncts other than `d` and `e` are refuted with dependency `dep`,
        as `_examine` would: nothing if `d` or `e` is present or both are
        open; if one is open, add it with `dep` joined with the dependency
        of the other's complement; if neither is, clash on `dep` and both
        complements' dependencies.  A clause of two disjuncts passes its
        refuted one as `e`."""
        if d in label or e in label:
            return
        negs = self.interner.negs
        nd, ne = negs[d], negs[e]
        if nd not in label:
            if ne in label:
                self._add(nid, d, dep | label[ne], "unit")
        elif ne not in label:
            self._add(nid, e, dep | label[nd], "unit")
        else:
            raise self._clash(nid, (d, e), dep | label[nd] | label[ne])

    def _examine(self, nid: int, clause: tuple) -> bool:
        """Settle clause entry `clause` (its id, None for a clause read by
        position, its disjuncts and their complements) at node `nid`: True
        if it is satisfied or its one open disjunct was added, False if two
        or more are open; a clause with every disjunct refuted raises
        `_Clash`."""
        node = self.nodes[nid]
        label = node.label
        unit = -1
        open_count = 0
        for d, nd in zip(clause[1], clause[2]):
            if d in label:
                return True
            if nd not in label:
                open_count += 1
                if open_count > 1:
                    return False  # a later falsification retriggers
                unit = d
        # unit propagation or clash: only now collect the refuter deps
        dep = self._refuted_dep(node, clause)
        if open_count == 0:
            raise self._clash(nid, clause[1], dep)
        self._add(nid, unit, dep, rule="unit")
        return True

    def _refuted_dep(self, node: _Node, clause: tuple) -> int:
        """Dependency of clause entry `clause` at `node` joined with the
        dependencies of its refuted disjuncts' complements (an open
        disjunct has none).  A clause read by position (id None) has the
        node's own dependency, as every base clause in the label has."""
        oid, _, negs = clause
        label = node.label
        dep = node.dep if oid is None else label[oid]
        for nd in negs:
            fd = label.get(nd)
            if fd is not None:
                dep |= fd
        return dep

    def _propagate(self):
        queue, popleft, process = self.queue, self.queue.popleft, self._process
        while queue:
            self.steps += 1
            if self.steps > self.step_budget:
                raise BudgetExceededError("tableau step budget exhausted")
            process(*popleft())

    # ------------------------------------------------------------------
    # structural operations

    def _new_node(self, parent_id: Optional[int], roles: frozenset, dep: int) -> int:
        self.created += 1
        if len(self.nodes) >= self.node_budget:
            raise BudgetExceededError("tableau node budget exhausted")
        nid = len(self.nodes)
        node = _Node(nid, parent_id, roles, dep)
        # seed the base concepts and the deterministic consequences of the
        # global axioms
        seed = self.seed
        node.label = dict.fromkeys(seed.label, dep)
        node.atleasts = list(seed.atleasts)
        node.atmosts = list(seed.atmosts)
        node.extra_ors = list(seed.extra_ors)
        node.bits = list(seed.bits)
        self.nodes.append(node)
        self.marked |= node.mark
        self.trail.append(("node", nid))
        if parent_id is not None:
            parent = self.nodes[parent_id]
            parent.children.append(nid)
            # the parent's universal fillers over `roles`, in label order (its
            # processing order), each depending on its restriction and `dep`
            kinds, parts = self.interner.kinds, self.interner.parts
            for fcid, fdep in parent.label.items():
                if kinds[fcid] == _KIND_FORALL and parts[fcid][0] in roles:
                    self._add(nid, parts[fcid][1], fdep | dep, rule="forall")
        return nid

    def _add_neq(self, a: int, b: int, dep: int):
        pair = frozenset((a, b))
        if pair not in self.neq:
            self.neq[pair] = dep
            self.trail.append(("del", self.neq, pair))

    def _merge(self, keep_id: int, absorb_id: int):
        # merges are rare; attribute everything they touch to all current
        # decision levels rather than tracking the counting condition
        dep = self._full_mask()
        if self.trace:
            self.trace(f"merge n{keep_id} <- n{absorb_id}")
        stack = [absorb_id]
        while stack:
            x = stack.pop()
            node = self.nodes[x]
            if not node.pruned:
                node.pruned = True
                self.marked |= node.mark
                self.trail.append(("attr", node, "pruned", False))
                stack.extend(node.children)
        keep = self.nodes[keep_id]
        absorb = self.nodes[absorb_id]
        # distinctness only ever relates siblings: those of at-least
        # successors and, through merges, those of the nodes they kept
        for other in self.nodes[absorb.parent].children:
            if other != keep_id and frozenset((absorb_id, other)) in self.neq:
                self._add_neq(keep_id, other, dep)
        for cid in [c for c in absorb.label if c not in keep.label]:
            self._add(keep_id, cid, dep)

    def _undo_to(self, mark: int):
        """Pop the trail down to `mark`, undoing a label fact ("add"), a new
        node ("node"), a distinctness pair ("del"), an append to a node's
        at-least, at-most or extra clause list ("pop") or an attribute
        write ("attr": node, name, old value).

        Every node a label fact, a new node or an attribute write touches is
        marked with its parent.  The other entries need no mark: the queue
        is empty at every decision, so each is undone together with the
        label fact or the new node it came with."""
        trail, nodes = self.trail, self.nodes
        order_of, order_ids = self.order_of, self.order_ids
        marked = self.marked
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "add":
                node = nodes[entry[1]]
                cid = entry[2]
                del node.label[cid]
                order = order_of[cid] if cid < order_ids else None
                if order is not None:
                    _, _, a, x, b, y, c, z, d, w = order
                    bits = node.bits
                    bits[a] &= ~x
                    bits[b] &= ~y
                    bits[c] &= ~z
                    bits[d] &= ~w
                marked |= node.mark
            elif tag == "node":
                node = nodes.pop()
                self._unfile(node)
                if node.parent is not None:
                    nodes[node.parent].children.pop()
                marked |= node.mark
            elif tag == "del":
                del entry[1][entry[2]]
            elif tag == "pop":
                entry[1].pop()
            elif tag == "attr":
                setattr(entry[1], entry[2], entry[3])
                marked |= entry[1].mark
        # forget the popped nodes
        live = (1 << len(self.nodes)) - 1
        self.marked = marked & live
        self.crowded &= live
        self.agenda &= live
        self.stale &= live
        self.unmet &= live
        self.queue.clear()

    # ------------------------------------------------------------------
    # blocking

    # Anywhere-blocking: without inverse roles a node's subtree constraints
    # are a function of its label alone, so an earlier node with the same
    # label can lend its successors.  A blocker must be *active* (neither
    # blocked nor below a blocked node), because only active nodes are
    # guaranteed fully expanded; taking blockers from earlier nodes only
    # makes this well-founded.

    def _unfile(self, node: _Node):
        twins = node.twins
        if twins is not None:
            node.twins = None
            twins[0] &= ~node.bit
            if not twins[0]:
                del self.classes[twins[1]]

    def _file(self, node: _Node):
        """File live `node` in the class of its label's key set, which holds
        the one copy of that key set."""
        key = frozenset(node.label)
        twins = node.twins = self.classes.setdefault(key, [0, key])
        twins[0] |= node.bit

    def _refresh(self):
        """Bring `classes`, `active` and `unmet` up to date.

        A node is active when it is live, its parent is active (or it is the
        root) and no earlier active node has its label, so its activity
        rests only on its own label and on earlier nodes.  The nodes marked
        since the last call (`stale | marked`), every relabelled, pruned or
        restored node among them, are refiled and decide again whether they
        have an unmet at-least; they and the later nodes of the classes they
        leave and join are redecided in creation order, and so are the
        children and later class-mates of a node whose activity flips."""
        nodes = self.nodes
        changed = self.stale | self.marked
        self.stale = 0
        active = self.active & ((1 << len(nodes)) - 1)
        due = changed
        for x in _positions(changed):
            twins = nodes[x].twins
            if twins is not None:
                due |= twins[0] & ~((2 << x) - 1)
            self._unfile(nodes[x])
        for x in _positions(changed):
            node = nodes[x]
            if not node.pruned:
                self._file(node)
                due |= node.twins[0] & ~((2 << x) - 1)
            if node.pruned or self._unmet_atleast(node) is None:
                self.unmet &= ~node.bit
            else:
                self.unmet |= node.bit
        while due:
            low = due & -due
            due ^= low
            node = nodes[low.bit_length() - 1]
            now = (
                not node.pruned
                and (node.parent is None or active >> node.parent & 1)
                and not node.twins[0] & active & (low - 1)
            )
            if now != bool(active & low):
                active ^= low
                for c in node.children:
                    due |= 1 << c
                if node.twins is not None:
                    due |= node.twins[0] & ~((low << 1) - 1)
        self.active = active

    # ------------------------------------------------------------------
    # rule scanning

    def _live_children(self, node: _Node, role: str) -> list[int]:
        out = []
        for child_id in node.children:
            child = self.nodes[child_id]
            if not child.pruned and role in child.parent_roles:
                out.append(child_id)
        return out

    def _distinct_subset_dep(self, members: list[int], k: int) -> Optional[int]:
        """Dependency mask of some pairwise-distinct k-subset, or None."""
        if k <= 0:
            return 0
        if len(members) < k:
            return None
        neq = self.neq
        for combo in itertools.combinations(members, k):
            dep = 0
            ok = True
            for a, b in itertools.combinations(combo, 2):
                pair_dep = neq.get(frozenset((a, b)))
                if pair_dep is None:
                    ok = False
                    break
                dep |= pair_dep
            if ok:
                return dep
        return None

    def _branch_order(self, candidates):
        """Try plain atoms first, structural concepts next, negated atoms last.

        Positive order atoms never conflict with each other, so this keeps
        greedy branching away from the systematic totality clashes that
        negated choices provoke.
        """
        kinds = self.interner.kinds
        rank = {_KIND_ATOM: 0, _KIND_NEGATOM: 2}
        return tuple(sorted(candidates, key=lambda cid: rank.get(kinds[cid], 1)))

    def _scan_ors(self, node: _Node):
        """Advance this node's clause pointers; return a decision or None.

        The pointers run over clause entries and runs of triples.  Each
        passes the clauses that have a present disjunct and stops at the
        first one that has none; a run of triples (i, j, k)
        holds once `leq(i, k)` does, and otherwise triple by triple once
        `not leq(i, j)` or `not leq(j, k)` does.  `_examine` settles the
        first clause without a present disjunct if it is a unit or a clash;
        otherwise it becomes the branch.
        """
        label = node.label
        bits = node.bits
        n_row, n_col = 2 * self.order_n, 3 * self.order_n
        for ors, attr in ((self.base_ors, "base_ptr"), (node.extra_ors, "extra_ptr")):
            old = ptr = getattr(node, attr)
            end = len(ors)
            while ptr < end:
                entry = ors[ptr]
                if type(entry[2]) is int:
                    i, k, run = entry
                    if not bits[i] >> k & 1 and run & ~(bits[n_row + i] | bits[n_col + k]):
                        break
                else:
                    for d in entry[1]:
                        if d in label:
                            break
                    else:
                        break
                ptr += 1
            if ptr != old:
                self.trail.append(("attr", node, attr, old))
                setattr(node, attr, ptr)
            if ptr == end:
                continue
            clause = ors[ptr]
            if type(clause[2]) is int:
                # the run holds up to its first open triple in rank order
                i, k, run = clause
                run &= ~(bits[n_row + i] | bits[n_col + k])
                j = self._in_block_order(i, k, run)[0]
                clause = self._triple(i, j, k)
            if self._examine(node.id, clause):
                return _ACTED
            candidates = [d for d, nd in zip(clause[1], clause[2]) if nd not in label]
            order = self._branch_order(candidates)
            saved = self.phase.get(clause[1])
            if saved in candidates:
                order = (saved,) + tuple(d for d in order if d != saved)
            # the refuted disjuncts' dependency is part of any conflict
            # derived from exhausting the remaining candidates
            return ("or", node.id, order, self._refuted_dep(node, clause), clause[1])
        return None

    def _find_decision(self):
        """Return the next `(kind, node id, alternatives, exhaustion dep)`
        decision (an "or" one with its clause's disjuncts after them),
        `_ACTED` after a deterministic rule, or None if complete.

        The clause and choose phases visit the agenda lowest id first, so
        each decides as a walk over every live node would.  The choose phase
        drops the nodes it finds without work in either; a node off the
        agenda has none until it, or a child, changes."""
        interner = self.interner
        nodes = self.nodes
        marked = self.marked
        if marked:
            self.marked = 0
            self.agenda |= marked
            self.stale |= marked
        # at-most bookkeeping: crowding is recomputed at the marked nodes;
        # clash detection and merge candidates at the crowded ones
        for x in _positions(marked):
            node = nodes[x]
            node.crowding = None if node.pruned else self._crowding(node)
            if node.crowding is None:
                self.crowded &= ~node.bit
            else:
                self.crowded |= node.bit
        merge_option = None
        for x in _positions(self.crowded):
            conflict, pairs = nodes[x].crowding
            if conflict is not None:
                raise self._clash(x, *conflict)
            if merge_option is None:
                merge_option = ("merge", x, pairs, self._full_mask())
        # disjunction branching
        for x in _positions(self.agenda):
            node = nodes[x]
            decision = None if node.pruned else self._scan_ors(node)
            if decision is not None:
                return decision
        # choose: decide at-most qualifiers at every relevant neighbor
        for x in _positions(self.agenda):
            node = nodes[x]
            for amid in () if node.pruned else sorted(node.atmosts):
                _, role, qid = interner.parts[amid]
                nqid = interner.negation(qid)
                for child_id in self._live_children(node, role):
                    label = nodes[child_id].label
                    if qid not in label and nqid not in label:
                        # negated qualifier first: zero holders always
                        # satisfies the at-most, and uniform siblings keep
                        # labels convergent; the two are jointly exhaustive
                        return ("choose", child_id, (nqid, qid), 0)
            self.agenda &= ~node.bit
        # at-least generation, at the first active node with an unmet one
        self._refresh()
        ready = self.unmet & self.active
        if ready:
            node = nodes[(ready & -ready).bit_length() - 1]
            alid = self._unmet_atleast(node)
            count, role, qid = interner.parts[alid]
            # successor generation is sound whenever the at-least concept
            # is present, so the new nodes depend only on that concept
            dep = node.label[alid] | node.dep
            if self.trace:
                self.trace(f"atleast n{node.id} {interner.objs[alid]!r}"[:200])
            created = []
            for _ in range(count):
                child = self._new_node(node.id, frozenset((role,)), dep)
                self._add(child, qid, dep)
                created.append(child)
            for a, b in itertools.combinations(created, 2):
                self._add_neq(a, b, dep)
            return _ACTED
        return merge_option

    def _crowding(self, node: _Node) -> Optional[tuple]:
        """None if no at-most of `node` has more holders than it allows;
        else (conflict, pairs): the id and the conflict of the first, in id
        order, whose holders include more pairwise-distinct ones than it
        allows (None for none), and the pairs of the first's holders not
        known distinct."""
        pairs = None
        for amid in sorted(node.atmosts):
            count, role, qid = self.interner.parts[amid]
            holders = self._holders(node, role, qid)
            if len(holders) > count:
                distinct_dep = self._distinct_subset_dep(holders, count + 1)
                if distinct_dep is not None:
                    conflict = node.label[amid] | node.dep | distinct_dep
                    for c in holders:
                        child = self.nodes[c]
                        conflict |= child.label[qid] | child.dep
                    return (amid, conflict), pairs
                if pairs is None:
                    pairs = tuple(
                        (a, b)
                        for a, b in itertools.combinations(holders, 2)
                        if frozenset((a, b)) not in self.neq
                    )
        return None if pairs is None else (None, pairs)

    def _unmet_atleast(self, node: _Node) -> Optional[int]:
        """The first at-least concept of `node`, in id order, without enough
        pairwise-distinct holders, or None."""
        for alid in sorted(node.atleasts):
            count, role, qid = self.interner.parts[alid]
            if self._distinct_subset_dep(self._holders(node, role, qid), count) is None:
                return alid
        return None

    def _holders(self, node: _Node, role: str, qid: int) -> list[int]:
        """Live `role`-successors of `node` whose label holds `qid`."""
        return [c for c in self._live_children(node, role) if qid in self.nodes[c].label]

    # ------------------------------------------------------------------
    # search

    def _apply_alternative(self, decision, idx: int, conf: int):
        kind, nid, alternatives = decision[:3]
        if kind == "merge":
            self._merge(*alternatives[idx])
            return
        own = (1 << len(self.stack)) | self.nodes[nid].dep
        if kind == "or":
            self.phase[decision[4]] = alternatives[idx]
            kinds = self.interner.kinds
            for j in range(idx):
                # assert failed alternatives negatively, but only atomic
                # ones: negating a failed forall would force a successor
                if kinds[alternatives[j]] in (_KIND_ATOM, _KIND_NEGATOM):
                    self._add(nid, self.interner.negation(alternatives[j]), conf | own)
        self._add(nid, alternatives[idx], own, rule=kind)

    def _step(self, decision, idx: int, conf: int):
        """Apply alternative `idx` of `decision`, the top of the stack, if
        there is one, propagate and return the next outcome: a decision,
        `_ACTED`, None (complete) or `(_CLASHED, conflict)`."""
        try:
            if decision is not None:
                self._apply_alternative(decision, idx, conf)
            self._propagate()
            return self._find_decision()
        except _Clash as clash:
            return (_CLASHED, clash.conflict)

    def run(self) -> TableauResult:
        if self.static_clash:
            return TableauResult(False, None)
        try:
            root = self._new_node(None, frozenset(), 1)
            for cid in self.root_ids:
                self._add(root, cid, 1)
        except _Clash:
            return TableauResult(False, None)
        outcome = self._step(None, 0, 0)
        stack = self.stack
        while True:
            if isinstance(outcome, tuple) and outcome and outcome[0] is _CLASHED:
                conflict = outcome[1]
                while True:
                    target = conflict.bit_length() - 1
                    if target <= 0:
                        return TableauResult(False, None)
                    # discard unrelated decisions above the target level
                    if len(stack) > target:
                        self.backjumps += 1
                        if self.trace:
                            self.trace(f"backjump {len(stack)} -> {target}")
                    while len(stack) > target:
                        mark, _, _, _ = stack.pop()
                        self._undo_to(mark)
                    entry = stack[-1]
                    entry[3] |= conflict & ~(1 << target)
                    mark, decision, idx, conf = entry
                    idx += 1
                    if idx >= len(decision[2]):
                        stack.pop()
                        self._undo_to(mark)
                        conflict = conf | decision[3]
                        continue
                    entry[2] = idx
                    self._undo_to(mark)
                    outcome = self._step(decision, idx, conf)
                    break
            elif outcome is None:
                return TableauResult(True, self._export())
            elif outcome is _ACTED:
                outcome = self._step(None, 0, 0)
            else:
                kind = outcome[0]
                if kind == "or":
                    self.or_decisions += 1
                elif kind == "choose":
                    self.choose_decisions += 1
                else:
                    self.merge_decisions += 1
                stack.append([len(self.trail), outcome, 0, 0])
                self.peak_depth = max(self.peak_depth, len(stack))
                outcome = self._step(outcome, 0, 0)

    # ------------------------------------------------------------------
    # export

    def _export(self) -> CompletionGraph:
        interner = self.interner
        parts, kinds, partner = interner.parts, interner.kinds, interner.partner
        nn = self.order_ids >> 1
        self._refresh()
        blocked_by = {}
        for node in self.nodes:
            if not node.pruned:
                # the first active earlier node with the same label
                blockers = node.twins[0] & self.active & (node.bit - 1)
                blocked_by[node.id] = next(_positions(blockers), None)
        nodes = {}
        pending = deque([0])
        while pending:
            nid = pending.popleft()
            node = self.nodes[nid]
            children = tuple(c for c in node.children if not self.nodes[c].pruned)
            # both atoms of every antitone pair
            atoms = frozenset(
                parts[c] for cid in node.label if kinds[cid] == _KIND_ATOM
                for c in ((cid, partner[cid]) if cid < nn else (cid,))
            )
            nodes[nid] = GraphNode(
                id=nid,
                parent=node.parent,
                roles=node.parent_roles,
                atoms=atoms,
                children=children,
                blocked_by=blocked_by.get(nid),
            )
            pending.extend(children)
        return CompletionGraph(nodes=nodes, root=0)


def check_consistency(
    o: ClassicalOntology,
    node_budget: int = NODE_BUDGET,
    step_budget: int = STEP_BUDGET,
    trace: Optional[Callable[[str], None]] = None,
) -> TableauResult:
    """Decide consistency; on success the completion graph is attached.

    Raises BudgetExceededError when a resource budget runs out, which is an
    outcome distinct from both verdicts.
    """
    return Tableau(o, node_budget, step_budget, trace).run()


def extract_classical_model(graph: CompletionGraph, depth: int) -> ClassicalInterpretation:
    """Unravel blocking loops into a finite tree interpretation.

    Tree nodes at the requested depth whose expansion was truncated are
    recorded in `cut`; axioms are only guaranteed at elements whose distance
    from those leaves exceeds the ontology's quantifier depth.  Raises
    BudgetExceededError as the tree's element count passes TREE_BUDGET.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def effective(nid: int) -> int:
        seen = set()
        while graph.nodes[nid].blocked_by is not None:
            if nid in seen:
                break
            seen.add(nid)
            nid = graph.nodes[nid].blocked_by
        return nid

    true_atoms = {}
    role_edges: dict[str, set] = {}
    parent = {}
    depths = {}
    cut = set()
    counter = itertools.count()
    root = next(counter)
    parent[root] = None
    depths[root] = 0
    true_atoms[root] = graph.nodes[graph.root].atoms
    pending = deque([(root, graph.root)])
    while pending:
        elem, gid = pending.popleft()
        eff = effective(gid)
        children = graph.nodes[eff].children
        if depths[elem] >= depth:
            if children:
                cut.add(elem)
            continue
        for child_gid in children:
            child = graph.nodes[child_gid]
            child_elem = next(counter)
            if child_elem >= TREE_BUDGET:
                raise BudgetExceededError(
                    f"unravelled tree budget of {TREE_BUDGET} elements exhausted "
                    f"at depth {depths[elem] + 1}"
                )
            parent[child_elem] = elem
            depths[child_elem] = depths[elem] + 1
            true_atoms[child_elem] = child.atoms
            for role in child.roles:
                role_edges.setdefault(role, set()).add((elem, child_elem))
            pending.append((child_elem, child_gid))
    domain = tuple(sorted(depths))
    return ClassicalInterpretation(
        domain=domain,
        true_atoms=true_atoms,
        role_edges={r: frozenset(v) for r, v in role_edges.items()},
        root=root,
        parent=parent,
        depth=depths,
        cut=frozenset(cut),
    )

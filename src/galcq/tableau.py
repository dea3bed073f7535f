"""Tableau decision procedure for classical ALCQ ontologies with GCIs.

Single named individual at the root, tree-shaped expansion (the logic has no
inverse roles), equality blocking, and the standard rules for qualified
number restrictions (choose and merge).  Every GCI `C [= D` contributes the
clause nnf(not C or D) to every node label.

Search organization:
  - the global axioms are propagated once, by the ordinary rules, on a
    scratch node of dependency 0; every node starts from a copy of the
    resulting static seed instead of re-propagating the axioms;
  - concepts are interned to dense integers, looked up by their kind and
    their children's ids rather than by the structural NNF object; the
    NNF literals share one node per atom for the whole construction, and
    every node's sort key is computed once;
  - the transitivity clauses `(and t[i][j] t[j][k]) [= t[i][k]` over three
    distinct order positions, the n^3 bulk of every reduction, are not
    interned: each is one bit in three presence tables over position
    pairs (k in `third[i*n + j]`, i in `first[j*n + k]`, j in
    `middle[i*n + k]`), with its literals in `leq_ids`.  Every other
    inclusion is read by `nnf.inclusion_nnf`, the reader the brute-force
    oracle shares, and interned, a clause over order atoms straight from
    its literal nodes.  The base concepts are in sort-key order, with runs
    (i, k, j bits) of triples merged between the disjunctions.  Node
    labels are dicts from concept id to a dependency bitmask of decision
    levels;
  - unit propagation and clause clashes are one rule, `_examine`, given a
    clause's disjuncts and their complements.  Four bitsets per node over
    its label and the base atoms hold the order facts: P_row[i] and
    P_col[j] the `leq(i, j)` facts, N_row[i] and N_col[j] the refuted
    ones.  An order fact reads off them the ~2n triples over its pair that
    act (leave one disjunct open or none) and examines them in
    (i * n + j) * n + k order, then the clauses watched under it in id
    order; a clause holding a concept and its complement is never a unit
    or a clash and is not watched.  This is the order of interning and
    watching every triple, since the reduction emits transitivity first
    and its degenerate triples, still interned, never act (each is a
    tautology or holds by the base fact `leq(i, i)`).  Branching scans a
    node's base and extra clauses with pointers that pass every clause
    with a present disjunct, a run of triples by bit tests; the first
    clause without one goes to `_examine`, and only a clause that stays
    open becomes a branch;
  - every decision is (kind, node, alternatives, exhaustion dependency):
    "or" tries a clause's open disjuncts semantically (failed atomic ones
    are asserted negatively before the next try), "choose" tries (not q, q)
    at a successor, "merge" pairs of successors.  The exhaustion dependency
    (the refuted disjuncts', 0, the full mask) joins the conflict once
    every alternative has failed;
  - backtracking is conflict-directed: every derived fact carries the set
    of decision levels it rests on, and a clash jumps straight back to the
    deepest involved level, skipping unrelated decisions.  Dependency sets
    are over-approximated wherever a rule's firing condition is hard to
    attribute (merges, crowded at-least firings), which can only reduce
    jumping, never solutions.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .classical_model import ClassicalInterpretation, ClassicalOntology
from .concepts import And
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
from .orders import Leq

# Default resource budgets of a tableau run: nodes created and rule steps.
NODE_BUDGET = 5000
STEP_BUDGET = 2_000_000

_KIND_ATOM = 0
_KIND_NEGATOM = 1
_KIND_AND = 2
_KIND_OR = 3
_KIND_FORALL = 4
_KIND_ATLEAST = 5
_KIND_ATMOST = 6


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
    sub) for the counting restrictions; `or_negs` caches the complement ids
    of every disjunction's disjuncts; `fingerprints` are fixed random words
    for xor label fingerprints.  `lits` shares literal nodes across every
    formula built for this tableau.
    """

    def __init__(self):
        self.lits = Literals()
        self.ids: dict = {}
        self.objs: list = []
        self.kinds: list[int] = []
        self.parts: list = []
        self.negs: list = []
        self.or_negs: list = []
        self.watch: dict[int, list[int]] = {}
        self.literal_ids: dict[int, int] = {}  # id(literal node) -> id
        self.fingerprints: list[int] = []
        self._fp_rng = random.Random(0xA1C9)

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

    def clause(self, literals: list) -> int:
        """Id of the disjunction of shared literal nodes.

        Gives what `intern(mk_or(literals))` gives, ids and interning order
        included, without building the intermediate formulas: the literals
        are sorted by sort key and deduplicated (equal literals are one
        node), then interned in that order before the clause itself.
        """
        unique = sorted({id(d): d for d in literals}.values(), key=sort_key)
        if len(unique) == 1:
            return self._literal(unique[0])
        part = tuple([self._literal(d) for d in unique])
        cid = self.ids.get((_KIND_OR, part))
        if cid is None:
            return self._new(NOr(tuple(unique)), _KIND_OR, part)
        return cid

    def _literal(self, d) -> int:
        # a shared literal node is looked up by identity, without hashing
        # its atom
        cid = self.literal_ids.get(id(d))
        if cid is not None and self.objs[cid] is d:
            return cid
        kind = _KIND_ATOM if type(d) is NAtom else _KIND_NEGATOM
        cid = self.ids.get((kind, d.atom))
        if cid is None:
            cid = self._new(d, kind, d.atom)
        self.literal_ids[id(d)] = cid
        return cid

    def _new(self, n, kind: int, part) -> int:
        cid = len(self.objs)
        self.ids[(kind, part)] = cid
        self.objs.append(n)
        self.kinds.append(kind)
        self.parts.append(part)
        self.negs.append(None)
        self.or_negs.append(None)
        self.fingerprints.append(self._fp_rng.getrandbits(64))
        if kind == _KIND_OR:
            negs = tuple(self.negation(d) for d in part)
            self.or_negs[cid] = negs
            # a clause holding a concept and its complement is never a unit
            # or a clash: whichever of the two is refuted, the other holds
            if not any(nd in part for nd in negs):
                for nd in negs:
                    self.watch.setdefault(nd, []).append(cid)
        return cid

    def negation(self, cid: int) -> int:
        neg = self.negs[cid]
        if neg is None:
            neg = self.intern(negate_nnf(self.objs[cid], self.lits))
            self.negs[cid] = neg
            self.negs[neg] = cid
        return neg


def _positions(bits: int):
    """The set bits of `bits`, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Node:
    __slots__ = (
        "id",
        "parent",
        "parent_roles",
        "depth",
        "dep",
        "children",
        "label",
        "fp",
        "foralls",
        "atleasts",
        "atmosts",
        "extra_ors",
        "bits",
        "base_ptr",
        "extra_ptr",
        "pruned",
    )

    def __init__(self, nid, parent, parent_roles, depth, dep):
        self.id = nid
        self.parent = parent
        self.parent_roles = parent_roles
        self.depth = depth
        self.dep = dep
        self.children = []
        self.label = {}  # concept id -> dependency bitmask
        self.fp = 0  # xor fingerprint of the label's key set
        self.foralls = {}
        self.atleasts = set()
        self.atmosts = set()
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
        self.onto = ontology
        self.node_budget = node_budget
        self.step_budget = step_budget
        self.trace = None  # set after the silent static pre-pass
        self.interner = _Interner()
        self.nodes: list[_Node] = []
        self.created = 0
        self.steps = 0
        self.trail: list = []
        self.queue: deque = deque()
        self.neq: dict = {}  # frozenset{a,b} -> dependency bitmask
        self.stack: list = []

        interner = self.interner
        base = self._read_inclusions(ontology)
        self.base_set = frozenset(base)
        self.base_order, self.base_ors = self._base_order(base)
        # the interned base concepts, without the triples
        self.base_list = tuple(c for c in self.base_order if type(c) is int)
        individuals = {ind for ind, _ in ontology.assertions}
        if individuals - {ontology.individual}:
            raise ValueError("assertions must use the ontology's single individual")
        self.root_ids = tuple(
            interner.intern(nnf(c, interner.lits)) for _, c in ontology.assertions
        )
        self._precompute_static()
        self.trace = trace

    def _read_inclusions(self, ontology: ClassicalOntology) -> set:
        """Intern every inclusion but the distinct-position transitivity
        triples as a base clause; return their ids.

        A transitivity clause over three distinct elements, recognised by
        the identity of the shared elements before it is read as a clause,
        only sets its bits in the presence tables `third`, `first` and
        `middle`.  The radix n is fixed first, so the tables fill as the
        clauses come: a family over m elements has m(m-1)(m-2) > (m-2)^3
        inclusions, so one more than the cube root of the inclusion count
        bounds m.  An element beyond it, which only a hand-built ontology
        can have, gets the position n, so every clause over it is interned.
        """
        interner = self.interner
        lits = interner.lits
        base = set()
        root = 0
        while root**3 < len(ontology.inclusions):
            root += 1
        n = self.order_n = root + 1
        nn = n * n
        self.third, self.first, self.middle = [0] * nn, [0] * nn, [0] * nn
        third, first, middle = self.third, self.first, self.middle
        # order positions, assigned by element equality and looked up by
        # identity: the reduction shares one object per element
        self.order_elements: list = []
        position: dict = {}  # id(element) -> position
        by_value: dict = {}  # element -> position

        def place(e) -> int:
            p = by_value.get(e)
            if p is None:
                p = len(self.order_elements)
                if p < n:
                    self.order_elements.append(e)
                else:
                    p = n
                by_value[e] = p
            position[id(e)] = p
            return p

        add = base.add
        for inc in ontology.inclusions:
            lhs, rhs = inc.lhs, inc.rhs
            if type(lhs) is And and type(rhs) is Leq:
                ij, jk = lhs.left, lhs.right
                if type(ij) is Leq and type(jk) is Leq:
                    x, y, z = ij.lhs, jk.lhs, jk.rhs
                    if ij.rhs is y and rhs.lhs is x and rhs.rhs is z:
                        try:
                            i, j, k = position[id(x)], position[id(y)], position[id(z)]
                        except KeyError:
                            i, j, k = place(x), place(y), place(z)
                        if i != j != k != i and i < n and j < n and k < n:
                            third[i * n + j] |= 1 << k
                            first[j * n + k] |= 1 << i
                            middle[i * n + k] |= 1 << j
                            continue
            read = inclusion_nnf(inc, lits)
            add(interner.clause(read) if type(read) is list else interner.intern(read))

        def where(e) -> int:
            p = position.get(id(e))
            return by_value.get(e, n) if p is None else p

        self._index_order_literals(where)
        return base

    def _index_order_literals(self, where: Callable):
        """Tables over the order literals, given the position of an element
        (n beyond the radix): `leq_ids` holds the id of `leq(i, j)` at
        i*n + j and of its negation at n*n + i*n + j, `order_of` the bitset
        slots and positions of every order literal id, and `by_rank` and
        `element_rank` the positions by the elements' sort keys, which
        order a triple's disjuncts."""
        interner = self.interner
        lits = interner.lits
        n = self.order_n
        nn = n * n
        ids = self.leq_ids = [None] * (2 * nn)
        for kind, table, offset in ((_KIND_ATOM, lits.pos, 0), (_KIND_NEGATOM, lits.neg, nn)):
            for atom in table:
                if type(atom) is Leq:
                    i, j = where(atom.lhs), where(atom.rhs)
                    if i < n and j < n and i != j:
                        ids[offset + i * n + j] = interner.ids.get((kind, atom))
        # the literals and complements of the triples that no other clause
        # interned (hand-built ontologies only)
        elements = self.order_elements
        for p in range(nn):
            if self.middle[p] | self.third[p] | self.first[p]:
                for index, make in ((p, lits.atom), (nn + p, lits.negated)):
                    if ids[index] is None:
                        atom = Leq(*(elements[x] for x in divmod(p, n)))
                        ids[index] = interner._literal(make(atom))
        # slots: P_row[i] and P_col[j] for leq(i, j), N_row[i] and N_col[j]
        # for its negation
        self.order_of: dict = {}  # literal id -> (row slot, column slot, i, j)
        for index, cid in enumerate(ids):
            if cid is not None:
                sign, pair = divmod(index, nn)
                i, j = divmod(pair, n)
                offset = 2 * n * sign
                self.order_of[cid] = (offset + i, offset + n + j, i, j)
        keys = [_element_key(e) for e in elements]
        self.by_rank = sorted(range(len(elements)), key=keys.__getitem__)
        self.element_rank = [0] * len(elements)
        for r, p in enumerate(self.by_rank):
            self.element_rank[p] = r

    def _base_order(self, base: set) -> tuple:
        """The base concepts in sort-key order with the triples merged in,
        and its slice of disjunctions.

        A disjunction's key is (3, its disjuncts' keys), and its disjuncts
        are in key order, so disjunctions compare by the ranks of their
        disjuncts in one sort of every distinct disjunct.  The triple
        (i, j, k) has the disjuncts leq(i, k), then not leq(i, j) and not
        leq(j, k) in the order of their first element, so the triples of a
        pair (i, k) follow each other in the rank order of j, after the
        disjunctions that start with a smaller literal.  They are merged in
        as runs (i, k, j bits), split wherever a real disjunction starting
        with leq(i, k) falls between two of them.
        """
        interner = self.interner
        objs, kinds, parts = interner.objs, interner.kinds, interner.parts
        n = self.order_n
        nn = n * n
        ids, middle, by_rank = self.leq_ids, self.middle, self.by_rank
        ors = [c for c in base if kinds[c] == _KIND_OR]
        others = sorted(
            (c for c in base if kinds[c] != _KIND_OR), key=lambda c: sort_key(objs[c])
        )
        disjuncts = {d for c in ors for d in parts[c]}
        disjuncts.update(c for c in ids if c is not None)
        ranked = sorted(disjuncts, key=lambda d: sort_key(objs[d]))
        rank = {d: r for r, d in enumerate(ranked)}.__getitem__
        keyed = sorted((tuple(map(rank, parts[c])), c) for c in ors)
        blocks = sorted((p for p in range(nn) if middle[p]), key=lambda p: rank(ids[p]))
        merged = []
        at = 0  # the next real disjunction in `keyed`
        for p in blocks:
            lead = rank(ids[p])
            while at < len(keyed) and keyed[at][0][0] < lead:
                merged.append(keyed[at][1])
                at += 1
            i, k = divmod(p, n)
            rest = middle[p]  # the triples of (i, k) not merged yet
            cursor = 0  # into by_rank
            while at < len(keyed) and keyed[at][0][0] == lead:
                tail = keyed[at][0][1:]
                run = 0
                while cursor < len(by_rank):
                    j = by_rank[cursor]
                    if rest >> j & 1:
                        x, y = rank(ids[nn + i * n + j]), rank(ids[nn + j * n + k])
                        if ((x, y) if x < y else (y, x)) >= tail:
                            break
                        run |= 1 << j
                    cursor += 1
                if run:
                    merged.append((i, k, run))
                    rest ^= run
                merged.append(keyed[at][1])
                at += 1
            if rest:
                merged.append((i, k, rest))
        merged.extend(cid for _, cid in keyed[at:])
        head = [c for c in others if kinds[c] < _KIND_OR]
        order = tuple(head + merged + others[len(head) :])
        return order, order[len(head) : len(head) + len(merged)]

    def _triple(self, i: int, j: int, k: int) -> tuple:
        """The disjuncts of the triple (i, j, k), `(and leq(i, j) leq(j, k))
        [= leq(i, k)`, in sort-key order, and their complements."""
        n = self.order_n
        nn = n * n
        ids = self.leq_ids
        ik, ij, jk = i * n + k, i * n + j, j * n + k
        if self.element_rank[j] < self.element_rank[i]:
            ij, jk = jk, ij
        return (ids[ik], ids[nn + ij], ids[nn + jk]), (ids[nn + ik], ids[ij], ids[jk])

    def _precompute_static(self):
        """Propagate the global axioms once, on a scratch node.

        Every node starts from the same deterministic consequences of the
        global axioms (numeric facts, bounds, conjunct decompositions and
        units), so the ordinary rules derive them once, on a node of
        dependency 0 without neighbours, and new nodes copy them.  A clash
        there means the axioms are contradictory at every element, hence
        inconsistency.  The pass is bounded by the interned concepts and the
        triples; it is not traced and takes no steps.
        """
        node = _Node(0, None, frozenset(), 0, 0)
        bits = node.bits = [0] * (4 * self.order_n)
        for cid, (row, col, i, j) in self.order_of.items():
            if cid in self.base_set:
                bits[row] |= 1 << j
                bits[col] |= 1 << i
        self.nodes.append(node)
        queue = self.queue
        p_col, n_row, n_col = self.order_n, 2 * self.order_n, 3 * self.order_n
        try:
            # every base clause first, in base order, then what they add:
            # queue order
            for entry in self.base_order:
                if type(entry) is int:
                    self._process(0, entry)
                    continue
                # a run of triples (i, j, k) of one (i, k): examine them all
                # if one acts, leaving no disjunct present and one or none
                # open
                i, k, run = entry
                if bits[i] >> k & 1:
                    continue
                run_open = run & ~(bits[n_row + i] | bits[n_col + k])
                if bits[n_row + i] >> k & 1:
                    acting = run_open & (bits[i] | bits[p_col + k])
                else:
                    acting = run_open & bits[i] & bits[p_col + k]
                if acting:
                    for j in self.by_rank:
                        if run >> j & 1:
                            self._examine(0, None, *self._triple(i, j, k))
            while queue:
                self._process(*queue.popleft())
            self.static_clash = False
        except _Clash:
            self.static_clash = True
        self.static_label = tuple(node.label)
        self.static_foralls = node.foralls
        self.static_atleasts = frozenset(node.atleasts)
        self.static_atmosts = frozenset(node.atmosts)
        self.static_extra_ors = tuple(node.extra_ors)
        self.static_fp = node.fp
        self.static_bits = tuple(node.bits)
        self.nodes.clear()
        queue.clear()
        self.trail.clear()

    # ------------------------------------------------------------------
    # label operations

    def _dep_of(self, node: _Node, cid: int) -> int:
        # base clauses share the node's own dependency
        return node.label.get(cid, node.dep)

    def _full_mask(self) -> int:
        return (1 << (len(self.stack) + 1)) - 1

    def _add(self, nid: int, cid: int, dep: int, rule: str = ""):
        node = self.nodes[nid]
        label = node.label
        if cid in label or cid in self.base_set:
            return
        neg = self.interner.negation(cid)
        if neg in label or neg in self.base_set:
            raise _Clash(dep | self._dep_of(node, neg))
        label[cid] = dep
        node.fp ^= self.interner.fingerprints[cid]
        order = self.order_of.get(cid)
        if order is not None:
            row, col, i, j = order
            node.bits[row] |= 1 << j
            node.bits[col] |= 1 << i
        self.trail.append(("add", nid, cid))
        self.queue.append((nid, cid))
        if rule and self.trace:
            self.trace(f"{rule} n{nid} {self.interner.objs[cid]!r}"[:200])

    def _process(self, nid: int, cid: int):
        node = self.nodes[nid]
        if node.pruned:
            return
        interner = self.interner
        kind = interner.kinds[cid]
        part = interner.parts[cid]
        # only the rules that use the dependency look it up; clauses do not
        if kind == _KIND_ATOM or kind == _KIND_NEGATOM:
            neg = interner.negation(cid)
            if neg in node.label or neg in self.base_set:
                raise _Clash(self._dep_of(node, cid) | self._dep_of(node, neg))
            order = self.order_of.get(cid)
            if order is not None:
                self._examine_triples(nid, node.bits, kind, order)
        elif kind == _KIND_AND:
            dep = self._dep_of(node, cid)
            for a in part:
                self._add(nid, a, dep)
        elif kind == _KIND_OR:
            if not part:
                raise _Clash(self._dep_of(node, cid))
            if cid not in self.base_set:
                node.extra_ors.append(cid)
                self.trail.append(("pop", node.extra_ors))
            self._examine(nid, cid, part, interner.or_negs[cid])
        elif kind == _KIND_FORALL:
            role, sub = part
            bucket = node.foralls.setdefault(role, {})
            if sub not in bucket:
                bucket[sub] = cid  # remember the forall literal for its dep
                self.trail.append(("del", bucket, sub))
                dep = self._dep_of(node, cid)
                for child_id in self._live_children(node, role):
                    child_dep = self.nodes[child_id].dep
                    self._add(child_id, sub, dep | child_dep, rule="forall")
        elif kind == _KIND_ATLEAST or kind == _KIND_ATMOST:
            counted = node.atleasts if kind == _KIND_ATLEAST else node.atmosts
            if cid not in counted:
                counted.add(cid)
                self.trail.append(("discard", counted, cid))
        for oid in interner.watch.get(cid, ()):
            if oid in node.label or oid in self.base_set:
                self._examine(nid, oid, interner.parts[oid], interner.or_negs[oid])

    def _examine_triples(self, nid: int, bits: list, kind: int, order):
        """Examine the transitivity triples that order literal `order` (its
        bitset slots and positions i, j) makes act at node `nid`, whose
        bitsets are `bits`: it refutes one of their disjuncts and leaves one
        or none open.  `leq(i, j)` refutes a disjunct of (i, j, k), which
        acts when `leq(j, k)` or `not leq(i, k)` is present and neither
        complement is, and of (k, i, j), likewise over `leq(k, i)` and
        `not leq(k, j)`; `not leq(i, j)` one of (i, m, j), likewise over
        `leq(i, m)` and `leq(m, j)`.  The acting triples are read from the
        bitsets before the first is examined, which finds the ones that
        watching every triple would: the units of the triples examined
        earlier for a fact share no atom with a later one's open disjuncts.
        They are examined in (i * n + j) * n + k order, as the reduction
        emits them.
        """
        _, _, i, j = order
        n = self.order_n
        p_col, n_row, n_col = n, 2 * n, 3 * n  # P_row starts at 0
        pair = i * n + j
        examine, triple = self._examine, self._triple
        if kind == _KIND_ATOM:
            ks = bits[j] | bits[n_row + i]
            ks &= ~(bits[n_row + j] | bits[i]) & self.third[pair]
            firsts = bits[p_col + i] | bits[n_col + j]
            firsts &= ~(bits[n_col + i] | bits[p_col + j]) & self.first[pair]
            below = firsts & ((1 << i) - 1)
            for h in _positions(below):
                examine(nid, None, *triple(h, i, j))
            for k in _positions(ks):
                examine(nid, None, *triple(i, j, k))
            for h in _positions(firsts ^ below):
                examine(nid, None, *triple(h, i, j))
        else:
            ms = bits[i] | bits[p_col + j]
            ms &= ~(bits[n_row + i] | bits[n_col + j]) & self.middle[pair]
            for m in _positions(ms):
                examine(nid, None, *triple(i, m, j))

    def _examine(self, nid: int, oid, disjuncts, negs) -> bool:
        """Settle the clause with `disjuncts`, whose complements are `negs`,
        at node `nid`: True if it is satisfied or its one open disjunct was
        added, False if two or more are open; a clause with every disjunct
        refuted raises `_Clash`.  `oid` is the clause's id, None for a
        transitivity triple."""
        node = self.nodes[nid]
        label = node.label
        base = self.base_set
        unit = -1
        open_count = 0
        for d, nd in zip(disjuncts, negs):
            if d in label or d in base:
                return True
            if not (nd in label or nd in base):
                open_count += 1
                if open_count > 1:
                    return False  # a later falsification retriggers
                unit = d
        # unit propagation or clash: only now collect the refuter deps
        dep = self._refuted_dep(node, oid, negs)
        if open_count == 0:
            raise _Clash(dep)
        self._add(nid, unit, dep, rule="unit")
        return True

    def _refuted_dep(self, node: _Node, oid, negs) -> int:
        """Dependency of clause `oid` at `node` joined with the dependencies
        of its refuted disjuncts' complements `negs` (an open disjunct has
        none).  A base clause, a triple (`oid` None) among them, has the
        node's own dependency."""
        label = node.label
        dep = label.get(oid, node.dep)
        for nd in negs:
            fd = label.get(nd)
            if fd is not None:
                dep |= fd
        return dep

    def _propagate(self):
        while self.queue:
            self.steps += 1
            if self.steps > self.step_budget:
                raise BudgetExceededError("tableau step budget exhausted")
            nid, cid = self.queue.popleft()
            self._process(nid, cid)

    # ------------------------------------------------------------------
    # structural operations

    def _new_node(self, parent_id: Optional[int], roles: frozenset, dep: int) -> int:
        self.created += 1
        if len(self.nodes) >= self.node_budget:
            raise BudgetExceededError("tableau node budget exhausted")
        nid = len(self.nodes)
        depth = 0 if parent_id is None else self.nodes[parent_id].depth + 1
        node = _Node(nid, parent_id, roles, depth, dep)
        # seed the deterministic consequences of the global axioms
        node.label = dict.fromkeys(self.static_label, dep)
        node.fp = self.static_fp
        node.foralls = {r: dict(subs) for r, subs in self.static_foralls.items()}
        node.atleasts = set(self.static_atleasts)
        node.atmosts = set(self.static_atmosts)
        node.extra_ors = list(self.static_extra_ors)
        node.bits = list(self.static_bits)
        self.nodes.append(node)
        self.trail.append(("node", nid))
        if parent_id is not None:
            self.nodes[parent_id].children.append(nid)
            self._add_fillers(nid, roles, dep)
        return nid

    def _add_fillers(self, nid: int, roles, dep: int):
        """Add the parent's universal fillers over `roles` to successor `nid`,
        each depending on its restriction and on `dep`."""
        parent = self.nodes[self.nodes[nid].parent]
        for role in roles:
            for sub, fcid in parent.foralls.get(role, {}).items():
                self._add(nid, sub, self._dep_of(parent, fcid) | dep, rule="forall")

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
                self.trail.append(("attr", node, "pruned", False))
                stack.extend(node.children)
        keep = self.nodes[keep_id]
        absorb = self.nodes[absorb_id]
        merged_roles = keep.parent_roles | absorb.parent_roles
        if merged_roles != keep.parent_roles:
            self.trail.append(("attr", keep, "parent_roles", keep.parent_roles))
            keep.parent_roles = merged_roles
            # the full mask already holds every restriction's dependency
            self._add_fillers(keep_id, merged_roles, dep)
        for pair in [p for p in self.neq if absorb_id in p]:
            (other,) = pair - {absorb_id}
            if other != keep_id:
                self._add_neq(keep_id, other, dep)
        for cid in tuple(absorb.label):
            self._add(keep_id, cid, dep)

    def _undo_to(self, mark: int):
        """Pop the trail down to `mark`, undoing a label fact, a new node,
        a dict insertion ("del"), a set insertion ("discard"), a list append
        ("pop") or an attribute write ("attr": object, name, old value)."""
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "add":
                node = self.nodes[entry[1]]
                cid = entry[2]
                del node.label[cid]
                node.fp ^= self.interner.fingerprints[cid]
                order = self.order_of.get(cid)
                if order is not None:
                    row, col, i, j = order
                    node.bits[row] &= ~(1 << j)
                    node.bits[col] &= ~(1 << i)
            elif tag == "node":
                node = self.nodes.pop()
                if node.parent is not None:
                    self.nodes[node.parent].children.pop()
            elif tag == "del":
                del entry[1][entry[2]]
            elif tag == "discard":
                entry[1].discard(entry[2])
            elif tag == "pop":
                entry[1].pop()
            elif tag == "attr":
                setattr(entry[1], entry[2], entry[3])
        self.queue.clear()

    # ------------------------------------------------------------------
    # blocking

    def _compute_blocking(self):
        """Blocking status of every live node, in creation order.

        Anywhere-blocking: without inverse roles a node's subtree
        constraints are a function of its label alone, so an earlier node
        with the same label can lend its successors.  A blocker must be
        *active* (neither blocked nor below a blocked node), because only
        active nodes are guaranteed fully expanded; processing in creation
        order makes this well-founded.  Returns (blocked_by, active).
        """
        blocked_by: dict[int, Optional[int]] = {}
        active: dict[int, bool] = {}
        by_fp: dict[int, list[_Node]] = {}
        for node in self.nodes:
            if node.pruned:
                active[node.id] = False
                continue
            parent_active = node.parent is None or active.get(node.parent, False)
            blocker = None
            for candidate in by_fp.get(node.fp, ()):
                if candidate.label.keys() == node.label.keys():
                    blocker = candidate.id
                    break
            blocked_by[node.id] = blocker
            is_active = parent_active and blocker is None
            active[node.id] = is_active
            if is_active:
                by_fp.setdefault(node.fp, []).append(node)
        return blocked_by, active

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

        Each pointer passes the clauses that have a present disjunct and
        stops at the first one that has none; a run of triples (i, j, k)
        holds once `leq(i, k)` does, and otherwise triple by triple once
        `not leq(i, j)` or `not leq(j, k)` does.  `_examine` settles the
        first clause without a present disjunct if it is a unit or a clash;
        otherwise it becomes the branch.
        """
        label = node.label
        base = self.base_set
        parts = self.interner.parts
        bits = node.bits
        n_row, n_col = 2 * self.order_n, 3 * self.order_n
        for ors, attr in ((self.base_ors, "base_ptr"), (node.extra_ors, "extra_ptr")):
            old = ptr = getattr(node, attr)
            end = len(ors)
            while ptr < end:
                entry = ors[ptr]
                if type(entry) is int:
                    for d in parts[entry]:
                        if d in label or d in base:
                            break
                    else:
                        break
                else:
                    i, k, run = entry
                    if not bits[i] >> k & 1 and run & ~(bits[n_row + i] | bits[n_col + k]):
                        break
                ptr += 1
            if ptr != old:
                self.trail.append(("attr", node, attr, old))
                setattr(node, attr, ptr)
            if ptr == end:
                continue
            entry = ors[ptr]
            if type(entry) is int:
                oid, disjuncts, negs = entry, parts[entry], self.interner.or_negs[entry]
            else:
                # the run holds up to its first open triple in rank order
                i, k, run = entry
                run &= ~(bits[n_row + i] | bits[n_col + k])
                j = next(j for j in self.by_rank if run >> j & 1)
                oid = None
                disjuncts, negs = self._triple(i, j, k)
            if self._examine(node.id, oid, disjuncts, negs):
                return _ACTED
            candidates = [
                d for d, nd in zip(disjuncts, negs) if not (nd in label or nd in base)
            ]
            # the refuted disjuncts' dependency is part of any conflict
            # derived from exhausting the remaining candidates
            return (
                "or",
                node.id,
                self._branch_order(candidates),
                self._refuted_dep(node, oid, negs),
            )
        return None

    def _find_decision(self):
        """Return the next `(kind, node id, alternatives, exhaustion dep)`
        decision, `_ACTED` after a deterministic rule, or None if complete."""
        interner = self.interner
        live = [n for n in self.nodes if not n.pruned]
        merge_option = None
        # at-most bookkeeping: clash detection and merge candidates
        for node in live:
            for amid in sorted(node.atmosts):
                count, role, qid = interner.parts[amid]
                holders = self._holders(node, role, qid)
                if len(holders) > count:
                    distinct_dep = self._distinct_subset_dep(holders, count + 1)
                    if distinct_dep is not None:
                        conflict = self._dep_of(node, amid) | node.dep | distinct_dep
                        for c in holders:
                            child = self.nodes[c]
                            conflict |= self._dep_of(child, qid) | child.dep
                        raise _Clash(conflict)
                    if merge_option is None:
                        pairs = [
                            (a, b)
                            for a, b in itertools.combinations(holders, 2)
                            if frozenset((a, b)) not in self.neq
                        ]
                        merge_option = (
                            "merge",
                            node.id,
                            tuple(pairs),
                            self._full_mask(),
                        )
        # disjunction branching
        for node in live:
            decision = self._scan_ors(node)
            if decision is not None:
                return decision
        # choose: decide at-most qualifiers at every relevant neighbor
        for node in live:
            for amid in sorted(node.atmosts):
                _, role, qid = interner.parts[amid]
                nqid = interner.negation(qid)
                for child_id in self._live_children(node, role):
                    child = self.nodes[child_id]
                    if not self._present_id(child, qid) and not self._present_id(
                        child, nqid
                    ):
                        # negated qualifier first: zero holders always
                        # satisfies the at-most, and uniform siblings keep
                        # labels convergent; the two are jointly exhaustive
                        return ("choose", child_id, (nqid, qid), 0)
        # at-least generation, only at active nodes
        _, active = self._compute_blocking()
        for node in live:
            if not node.atleasts:
                continue
            if not active.get(node.id):
                continue
            for alid in sorted(node.atleasts):
                count, role, qid = interner.parts[alid]
                holders = self._holders(node, role, qid)
                if self._distinct_subset_dep(holders, count) is not None:
                    continue
                # successor generation is sound whenever the at-least concept
                # is present, so the new nodes depend only on that concept
                dep = self._dep_of(node, alid) | node.dep
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
        if merge_option is not None and merge_option[2]:
            return merge_option
        if merge_option is not None:
            raise _Clash(self._full_mask())
        return None

    def _present_id(self, node: _Node, cid: int) -> bool:
        return cid in node.label or cid in self.base_set

    def _holders(self, node: _Node, role: str, qid: int) -> list[int]:
        """Live `role`-successors of `node` whose label holds `qid`."""
        return [
            c
            for c in self._live_children(node, role)
            if self._present_id(self.nodes[c], qid)
        ]

    # ------------------------------------------------------------------
    # search

    def _apply_alternative(self, decision, idx: int, conf: int):
        kind, nid, alternatives, _ = decision
        if kind == "merge":
            self._merge(*alternatives[idx])
            return
        own = (1 << len(self.stack)) | self.nodes[nid].dep
        if kind == "or":
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
                stack.append([len(self.trail), outcome, 0, 0])
                outcome = self._step(outcome, 0, 0)

    # ------------------------------------------------------------------
    # export

    def _export(self) -> CompletionGraph:
        interner = self.interner
        base_atoms = frozenset(
            interner.parts[cid]
            for cid in self.base_set
            if interner.kinds[cid] == _KIND_ATOM
        )
        blocked_by, _ = self._compute_blocking()
        nodes = {}
        pending = deque([0])
        while pending:
            nid = pending.popleft()
            node = self.nodes[nid]
            children = tuple(c for c in node.children if not self.nodes[c].pruned)
            atoms = frozenset(
                interner.parts[cid]
                for cid in node.label
                if interner.kinds[cid] == _KIND_ATOM
            ) | base_atoms
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
    from those leaves exceeds the ontology's quantifier depth.
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

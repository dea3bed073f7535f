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
    every node's sort key is computed once, so building the base clauses
    never re-walks an atom's concept trees; node labels are dicts from
    concept id to a dependency bitmask of decision levels;
  - disjunctions branch semantically (failed disjuncts are asserted
    negatively before the next try), with unit propagation driven by a
    watch index over disjunct complements;
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
    mk_or,
    negate_nnf,
    nnf,
    nnf_not,
    sort_key,
)

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
        key = (kind, part)
        cid = self.ids.get(key)
        if cid is not None:
            return cid
        cid = len(self.objs)
        self.ids[key] = cid
        self.objs.append(n)
        self.kinds.append(kind)
        self.parts.append(part)
        self.negs.append(None)
        self.or_negs.append(None)
        self.fingerprints.append(self._fp_rng.getrandbits(64))
        if kind == _KIND_OR:
            negs = tuple(self.negation(d) for d in part)
            self.or_negs[cid] = negs
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
    order: tuple


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
        node_budget: int = 5000,
        step_budget: int = 20_000_000,
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

        lits = self.interner.lits
        base = set()
        for inc in ontology.inclusions:
            clause = mk_or((nnf_not(inc.lhs, lits), nnf(inc.rhs, lits)))
            base.add(self.interner.intern(clause))
        self.base_list = tuple(
            sorted(base, key=lambda cid: sort_key(self.interner.objs[cid]))
        )
        self.base_set = frozenset(self.base_list)
        self.base_ors = tuple(
            cid for cid in self.base_list if self.interner.kinds[cid] == _KIND_OR
        )
        individuals = {ind for ind, _ in ontology.assertions}
        if individuals - {ontology.individual}:
            raise ValueError("assertions must use the ontology's single individual")
        self.root_ids = tuple(
            self.interner.intern(nnf(c, lits)) for _, c in ontology.assertions
        )
        self._precompute_static()
        self.trace = trace

    def _precompute_static(self):
        """Propagate the global axioms once, on a scratch node.

        Every node starts from the same deterministic consequences of the
        global axioms (numeric facts, bounds, conjunct decompositions and
        units), so the ordinary rules derive them once, on a node of
        dependency 0 without neighbours, and new nodes copy them.  A clash
        there means the axioms are contradictory at every element, hence
        inconsistency.  The pass is bounded by the interned concepts; it is
        not traced and takes no steps.
        """
        node = _Node(0, None, frozenset(), 0, 0)
        self.nodes.append(node)
        queue = self.queue
        try:
            # every base clause first, then what they add: queue order
            for cid in self.base_list:
                self._process(0, cid)
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
        self.nodes.clear()
        queue.clear()
        self.trail.clear()

    # ------------------------------------------------------------------
    # label operations

    def _dep_of(self, node: _Node, cid: int) -> int:
        dep = node.label.get(cid)
        if dep is not None:
            return dep
        return node.dep  # base clauses share the node's own dependency

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
        elif kind == _KIND_AND:
            dep = self._dep_of(node, cid)
            for a in part:
                self._add(nid, a, dep)
        elif kind == _KIND_OR:
            if not part:
                raise _Clash(self._dep_of(node, cid))
            if cid not in self.base_set:
                node.extra_ors.append(cid)
                self.trail.append(("extraor", nid))
            self._examine(nid, cid)
        elif kind == _KIND_FORALL:
            role, sub = part
            bucket = node.foralls.setdefault(role, {})
            if sub not in bucket:
                bucket[sub] = cid  # remember the forall literal for its dep
                self.trail.append(("forall", nid, role, sub))
                dep = self._dep_of(node, cid)
                for child_id in node.children:
                    child = self.nodes[child_id]
                    if not child.pruned and role in child.parent_roles:
                        self._add(child_id, sub, dep | child.dep, rule="forall")
        elif kind == _KIND_ATLEAST:
            if cid not in node.atleasts:
                node.atleasts.add(cid)
                self.trail.append(("atleast", nid, cid))
        elif kind == _KIND_ATMOST:
            if cid not in node.atmosts:
                node.atmosts.add(cid)
                self.trail.append(("atmost", nid, cid))
        for oid in interner.watch.get(cid, ()):
            if oid in node.label or oid in self.base_set:
                self._examine(nid, oid)

    def _examine(self, nid: int, oid: int):
        node = self.nodes[nid]
        interner = self.interner
        label = node.label
        base = self.base_set
        parts = interner.parts[oid]
        negs = interner.or_negs[oid]
        unit = -1
        open_count = 0
        for d, nd in zip(parts, negs):
            if d in label or d in base:
                return
            if not (nd in label or nd in base):
                open_count += 1
                if open_count > 1:
                    return  # genuinely open; a later falsification retriggers
                unit = d
        # unit propagation or clash: only now collect the falsifier deps
        dep = label.get(oid)
        if dep is None:
            dep = node.dep
        for d, nd in zip(parts, negs):
            if d != unit:
                fd = label.get(nd)
                if fd is not None:
                    dep |= fd
        if open_count == 0:
            raise _Clash(dep)
        self._add(nid, unit, dep, rule="unit")

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
        self.nodes.append(node)
        self.trail.append(("node", nid))
        if parent_id is not None:
            parent = self.nodes[parent_id]
            parent.children.append(nid)
            for role in roles:
                for sub, fcid in parent.foralls.get(role, {}).items():
                    self._add(nid, sub, self._dep_of(parent, fcid) | dep, rule="forall")
        return nid

    def _add_neq(self, a: int, b: int, dep: int):
        pair = frozenset((a, b))
        if pair not in self.neq:
            self.neq[pair] = dep
            self.trail.append(("neq", pair))

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
                self.trail.append(("prune", x))
                stack.extend(node.children)
        keep = self.nodes[keep_id]
        absorb = self.nodes[absorb_id]
        merged_roles = keep.parent_roles | absorb.parent_roles
        if merged_roles != keep.parent_roles:
            self.trail.append(("edgeroles", keep_id, keep.parent_roles))
            keep.parent_roles = merged_roles
            parent = self.nodes[keep.parent]
            for role in merged_roles:
                for sub in parent.foralls.get(role, {}):
                    self._add(keep_id, sub, dep, rule="forall")
        for pair in [p for p in self.neq if absorb_id in p]:
            (other,) = pair - {absorb_id}
            if other != keep_id:
                self._add_neq(keep_id, other, dep)
        for cid in tuple(absorb.label):
            self._add(keep_id, cid, dep)

    def _undo_to(self, mark: int):
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "add":
                node = self.nodes[entry[1]]
                del node.label[entry[2]]
                node.fp ^= self.interner.fingerprints[entry[2]]
            elif tag == "node":
                node = self.nodes.pop()
                if node.parent is not None:
                    self.nodes[node.parent].children.pop()
            elif tag == "forall":
                del self.nodes[entry[1]].foralls[entry[2]][entry[3]]
            elif tag == "atleast":
                self.nodes[entry[1]].atleasts.discard(entry[2])
            elif tag == "atmost":
                self.nodes[entry[1]].atmosts.discard(entry[2])
            elif tag == "extraor":
                self.nodes[entry[1]].extra_ors.pop()
            elif tag == "neq":
                del self.neq[entry[1]]
            elif tag == "prune":
                self.nodes[entry[1]].pruned = False
            elif tag == "edgeroles":
                self.nodes[entry[1]].parent_roles = entry[2]
            elif tag == "baseptr":
                self.nodes[entry[1]].base_ptr = entry[2]
            elif tag == "extraptr":
                self.nodes[entry[1]].extra_ptr = entry[2]
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

        def bucket(cid):
            k = kinds[cid]
            if k == _KIND_ATOM:
                return 0
            if k == _KIND_NEGATOM:
                return 2
            return 1

        return tuple(sorted(candidates, key=bucket))

    def _scan_ors(self, node: _Node):
        """Advance this node's clause pointers; return a decision or None."""
        label = node.label
        base = self.base_set
        interner = self.interner
        parts = interner.parts
        or_negs = interner.or_negs
        for ors, ptr_attr, tag in (
            (self.base_ors, "base_ptr", "baseptr"),
            (node.extra_ors, "extra_ptr", "extraptr"),
        ):
            ptr = getattr(node, ptr_attr)
            old = ptr
            decision = None
            end = len(ors)
            while ptr < end:
                oid = ors[ptr]
                satisfied = False
                candidates = []
                for d, nd in zip(parts[oid], or_negs[oid]):
                    if d in label or d in base:
                        satisfied = True
                        break
                    if not (nd in label or nd in base):
                        candidates.append(d)
                if satisfied:
                    ptr += 1
                    continue
                falsified_dep = label.get(oid, node.dep)
                for nd in or_negs[oid]:
                    fd = label.get(nd)
                    if fd is not None:
                        falsified_dep |= fd
                if not candidates:
                    if ptr != old:
                        self.trail.append((tag, node.id, old))
                        setattr(node, ptr_attr, ptr)
                    raise _Clash(falsified_dep)
                if len(candidates) == 1:
                    self._add(node.id, candidates[0], falsified_dep, rule="unit")
                    decision = _ACTED
                else:
                    # falsified_dep justifies why the excluded disjuncts are
                    # unavailable; it is part of any conflict derived from
                    # exhausting the remaining candidates
                    decision = (
                        "or",
                        node.id,
                        oid,
                        self._branch_order(candidates),
                        falsified_dep,
                    )
                break
            if ptr != old:
                self.trail.append((tag, node.id, old))
                setattr(node, ptr_attr, ptr)
            if decision is not None:
                return decision
        return None

    def _find_decision(self):
        interner = self.interner
        live = [n for n in self.nodes if not n.pruned]
        merge_option = None
        # at-most bookkeeping: clash detection and merge candidates
        for node in live:
            for amid in sorted(node.atmosts):
                count, role, qid = interner.parts[amid]
                children = self._live_children(node, role)
                holders = [
                    c for c in children if self._present_id(self.nodes[c], qid)
                ]
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
                        return ("choose", child_id, qid)
        # at-least generation, only at active nodes
        _, active = self._compute_blocking()
        for node in live:
            if not node.atleasts:
                continue
            if not active.get(node.id):
                continue
            for alid in sorted(node.atleasts):
                count, role, qid = interner.parts[alid]
                children = self._live_children(node, role)
                holders = [
                    c for c in children if self._present_id(self.nodes[c], qid)
                ]
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

    # ------------------------------------------------------------------
    # search

    def _alternative_count(self, decision) -> int:
        tag = decision[0]
        if tag == "or":
            return len(decision[3])
        if tag == "choose":
            return 2
        return len(decision[2])

    def _exhaustion_dep(self, decision) -> int:
        """Conflict contribution of the decision itself once every
        alternative has failed."""
        tag = decision[0]
        if tag == "or":
            return decision[4]
        if tag == "choose":
            return 0  # the two alternatives are jointly exhaustive
        return decision[3]

    def _apply_alternative(self, decision, idx: int, level: int, conf: int):
        own = 1 << level
        tag = decision[0]
        if tag == "or":
            _, nid, _, candidates, _ = decision
            own |= self.nodes[nid].dep
            kinds = self.interner.kinds
            for j in range(idx):
                # assert failed alternatives negatively, but only atomic
                # ones: negating a failed forall would force a successor
                if kinds[candidates[j]] in (_KIND_ATOM, _KIND_NEGATOM):
                    self._add(nid, self.interner.negation(candidates[j]), conf | own)
            self._add(nid, candidates[idx], own, rule="or")
        elif tag == "choose":
            _, nid, qid = decision
            own |= self.nodes[nid].dep
            # negated qualifier first: zero holders always satisfies the
            # at-most, and uniform siblings keep labels convergent
            cid = self.interner.negation(qid) if idx == 0 else qid
            self._add(nid, cid, own, rule="choose")
        else:
            _, _, pairs, _ = decision
            keep, absorb = pairs[idx]
            self._merge(keep, absorb)

    def _step(self):
        try:
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
        outcome = self._step()
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
                    if idx >= self._alternative_count(decision):
                        stack.pop()
                        self._undo_to(mark)
                        conflict = conf | self._exhaustion_dep(decision)
                        continue
                    entry[2] = idx
                    self._undo_to(mark)
                    try:
                        self._apply_alternative(decision, idx, len(stack), conf)
                        outcome = self._step()
                    except _Clash as clash:
                        outcome = (_CLASHED, clash.conflict)
                    break
            elif outcome is None:
                return TableauResult(True, self._export())
            elif outcome is _ACTED:
                outcome = self._step()
            else:
                stack.append([len(self.trail), outcome, 0, 0])
                try:
                    self._apply_alternative(outcome, 0, len(stack), 0)
                    outcome = self._step()
                except _Clash as clash:
                    outcome = (_CLASHED, clash.conflict)

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
        order = []
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
            order.append(nid)
            pending.extend(children)
        return CompletionGraph(nodes=nodes, root=0, order=tuple(order))


def check_consistency(
    o: ClassicalOntology,
    node_budget: int = 5000,
    step_budget: int = 20_000_000,
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

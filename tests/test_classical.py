import dataclasses
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from galcq import (
    And,
    AtLeast,
    AtMost,
    ClassicalInterpretation,
    ClassicalOntology,
    Exists,
    Forall,
    Implies,
    Inclusion,
    Leq,
    MalformedModelError,
    Name,
    Not,
    Or,
    check_classical_model,
    check_consistency,
    evaluate_classical,
    parse_ontology,
    reduce_ontology,
)
from galcq.classical_model import fact_axioms
from galcq.concepts import TOP, BOT
from galcq.extraction import _node_preorder
from galcq.tableau import extract_classical_model

A = Name("A")
B = Name("B")
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def _interp():
    return ClassicalInterpretation(
        domain=(0, 1, 2),
        true_atoms={0: frozenset({A}), 1: frozenset({A, B}), 2: frozenset()},
        role_edges={"r": frozenset({(0, 1), (0, 2), (1, 1)})},
        root=0,
    )


def test_boolean_evaluation():
    i = _interp()
    assert evaluate_classical(i, A, 0)
    assert not evaluate_classical(i, B, 0)
    assert evaluate_classical(i, Not(B), 0)
    assert evaluate_classical(i, And(A, B), 1)
    assert evaluate_classical(i, Or(B, A), 0)
    assert evaluate_classical(i, Implies(B, A), 2)
    assert evaluate_classical(i, TOP, 2)
    assert not evaluate_classical(i, BOT, 0)


def test_quantifier_evaluation():
    i = _interp()
    assert evaluate_classical(i, Exists("r", B), 0)
    assert not evaluate_classical(i, Forall("r", A), 0)
    assert evaluate_classical(i, Forall("r", A), 1)  # only successor is 1
    assert evaluate_classical(i, Forall("r", A), 2)  # no successors
    assert evaluate_classical(i, AtLeast(2, "r", TOP), 0)
    assert not evaluate_classical(i, AtLeast(2, "r", A), 0)
    assert evaluate_classical(i, AtMost(1, "r", A), 0)
    assert not evaluate_classical(i, AtMost(1, "r", TOP), 0)


def test_check_classical_model():
    i = _interp()
    ok = ClassicalOntology((Inclusion(B, A),), (("a", A),), "a")
    assert check_classical_model(i, ok) == []
    bad = ClassicalOntology((Inclusion(TOP, A),), (), "a")
    violations = check_classical_model(i, bad)
    assert violations and "fails at 2" in violations[0]
    bad_root = ClassicalOntology((), (("a", B),), "a")
    assert check_classical_model(i, bad_root)


def test_check_restricted_elements():
    i = _interp()
    o = ClassicalOntology((Inclusion(TOP, A),), (), "a")
    assert check_classical_model(i, o, elements=(0, 1)) == []


def test_interior_with_cut():
    i = ClassicalInterpretation(
        domain=(0, 1, 2),
        true_atoms={0: frozenset(), 1: frozenset(), 2: frozenset()},
        role_edges={"r": frozenset({(0, 1), (1, 2)})},
        root=0,
        parent={0: None, 1: 0, 2: 1},
        depth={0: 0, 1: 1, 2: 2},
        cut=frozenset({2}),
    )
    assert i.interior(0) == (0, 1)
    assert i.interior(1) == (0,)
    no_cut = ClassicalInterpretation(
        domain=(0,), true_atoms={0: frozenset()}, role_edges={}, root=0
    )
    assert no_cut.interior(5) == (0,)


def _perturbed(tree, atoms, rng):
    """`tree` with the same one to three atoms flipped at about half its
    elements, so that a triple can fail at several of them."""
    flips = set(rng.sample(atoms, rng.randint(1, 3)))
    labels = {}
    for d in tree.domain:
        label = tree.true_atoms[d]
        labels[d] = label ^ flips if rng.random() < 0.5 else label
    return dataclasses.replace(tree, true_atoms=labels, _succ={})


def test_family_by_position_reports_what_the_built_family_does(corpus_runs):
    # a plain ontology over `inclusions` has no structure, so the checker
    # evaluates every transitivity triple as an ordinary inclusion
    rng = random.Random(15)
    verdicts = []
    for run_ in corpus_runs:
        red = run_.reduction
        plain = ClassicalOntology(red.inclusions, red.assertions, red.individual)
        trees = [run_.brute.model] if run_.brute and run_.brute.model else []
        if run_.graph is not None:
            tree = extract_classical_model(run_.graph, 2)
            atoms = [a for row in red.order.table for a in row]
            trees += [tree] + [_perturbed(tree, atoms, rng) for _ in range(3)]
        for k, t in enumerate(trees):
            # the whole domain, or the elements off the cut, which skips some
            elements = t.interior(1) if k % 2 else None
            violations = check_classical_model(t, red, elements)
            assert violations == check_classical_model(t, plain, elements), run_.name
            verdicts.append(not violations)
    assert any(verdicts) and not all(verdicts)


def _relabelled(tree, d, drop=(), add=()):
    """`tree` with the atoms `drop` removed from and `add` added to the
    label of element `d`."""
    labels = dict(tree.true_atoms)
    labels[d] = (labels[d] - set(drop)) | set(add)
    return dataclasses.replace(tree, true_atoms=labels, _succ={})


def test_each_order_family_is_reported_like_its_inclusions(corpus_runs):
    # bit tests on the rows against one `Inclusion` at a time over
    # `inclusions`, on labels that break totality, the bounds, the constant
    # order and antitonicity in turn
    run_ = next(r for r in corpus_runs if r.name == "duality")
    red = run_.reduction
    u, t, inv = red.order, red.order.table, red.order.inverse
    plain = ClassicalOntology(red.inclusions, red.assertions, red.individual)
    tree = extract_classical_model(run_.graph, 2)
    d = tree.domain[-1]
    assert d != tree.root
    label = tree.true_atoms[d]
    n, last = len(u), len(u.values) - 1
    i = last + 1  # the first subconcept
    # a true leq(x, y) whose antitone partner is another atom
    x, y = next((x, y) for x in range(n) for y in range(n) if t[x][y] in label and inv[y] != x)
    j = i + 1
    cases = {  # the labels, and the right side of an inclusion they break
        "totality": ({"drop": (t[i][j], t[j][i])}, Or(t[i][j], t[j][i])),
        "bounds": ({"drop": (t[0][i],)}, And(t[0][i], t[i][last])),
        "constants": ({"add": (t[last][0],)}, Not(t[last][0])),
        "antitonicity": ({"drop": (t[inv[y]][inv[x]],)}, t[inv[y]][inv[x]]),
    }
    for family, (change, rhs) in cases.items():
        broken = _relabelled(tree, d, **change)
        for elements in (None, (tree.root, d), (tree.root,)):
            violations = check_classical_model(broken, red, elements)
            assert violations == check_classical_model(broken, plain, elements), family
            hit = any(v.endswith(f" vs {rhs!r}") for v in violations)
            assert hit == (elements != (tree.root,)), family
    # labels that break one family alone, built from a valuation of the
    # elements: the checker reports only that family at d, and the
    # extraction's `_node_preorder` names the same one
    by_text = _family_of_each_inclusion(plain, u)
    pairs = sorted({min(p, inv[p]) for p in range(last + 1, n)})
    assert all(inv[p] != p for p in pairs) and len(pairs) >= 3
    value = {p: u.elements[p].value for p in range(last + 1)}
    for k, p in enumerate(pairs):  # distinct values in (0, 1/2) and (1/2, 1)
        value[p] = Fraction(k + 1, 2 * len(pairs) + 2)
        value[inv[p]] = 1 - value[p]

    def valued(changes=None):
        v = value | (changes or {})
        return {t[a][b] for a in range(n) for b in range(n) if v[a] <= v[b]}

    low, next_, high = pairs[0], pairs[1], pairs[-1]  # adjacent, then apart
    alone = {
        "transitivity": valued() | {t[high][low], t[inv[low]][inv[high]]},
        "totality": valued()
        - {t[low][next_], t[next_][low], t[inv[next_]][inv[low]], t[inv[low]][inv[next_]]},
        "bounds": valued({low: Fraction(-1, 4), inv[low]: Fraction(5, 4)}),
        "constant order": {a for row in t for a in row},
        "antitonicity": valued({inv[low]: Fraction(1, 2)}),
    }
    order_atoms = [a for a in label if isinstance(a, Leq)]
    assert _node_preorder(u, frozenset(valued()), d)
    for family, atoms in alone.items():
        broken = _relabelled(tree, d, drop=order_atoms, add=atoms)
        violations = check_classical_model(broken, red, (d,))
        assert violations == check_classical_model(broken, plain, (d,)), family
        texts = (v.split(": ", 1)[1] for v in violations)
        assert {by_text[x] for x in texts if x in by_text} == {family}
        with pytest.raises(MalformedModelError, match=f"{family} fail"):
            _node_preorder(u, broken.true_atoms[d], d)


def _shifted_swaps(u, rows):
    """Permutations of the positions of `u`, as lists, that move the rows
    `rows` and swap the shifted copies of a subconcept and its negation,
    or those of two subconcepts and those of their negations: each
    commutes with inversion, so it keeps every preorder family, and no
    restriction's shifted copy moves, so no semantics axiom reads the
    positions it swaps."""
    inv, e = u.inverse, u.elements

    def free(p):
        return not isinstance(e[p].concept, (Forall, AtLeast)) and not isinstance(
            e[inv[p]].concept, (Forall, AtLeast)
        )

    shifted = [u.up[p] for p in range(len(u.values), len(u.up))]
    shifted = [p for p in shifted if p < inv[p] and free(p)]
    for p, q in itertools.combinations_with_replacement(shifted, 2):
        swap = list(range(len(u)))
        if p == q:
            swap[p], swap[inv[p]] = inv[p], p
        else:
            swap[p], swap[q], swap[inv[p]], swap[inv[q]] = q, p, inv[q], inv[p]
        if [rows[swap[x]] for x in range(len(u))] != rows:
            yield swap


def test_transfer_is_checked_along_each_edge(corpus_runs):
    # a child whose label is relabelled by `_shifted_swaps` breaks only
    # transfer from its parent: the checker reports the same violations as
    # one `Inclusion` at a time over `inclusions`, all of them transfer
    # inclusions at the parent
    runs = [(r.name, r.reduction, r.graph) for r in corpus_runs if r.graph is not None]
    for name, text in (
        ("counting", "(gci B C >= 1/2)\n(assert (inst a (all s (not C))) = 1)\n"
         "(assert (inst a (atleast 1 s B)) >= 1/4)"),
        ("no-duality", (SAMPLES / "no-duality.sexp").read_text()),
    ):
        red = reduce_ontology(parse_ontology(text))
        runs.append((name, red, check_consistency(red).graph))
    swapped = 0
    for name, red, graph in runs:
        u = red.order
        if not u.roles:
            continue
        t, n = u.table, len(u)
        plain = ClassicalOntology(red.inclusions, red.assertions, red.individual)
        tree = extract_classical_model(graph, 3)
        edges = [(tree.parent[e], e) for e in tree.domain if e != tree.root]
        found, before = 0, {}
        for d, e in edges:
            if found == 3 or check_classical_model(tree, red, (d,)):
                continue  # enough, or near the cut
            label = tree.true_atoms[e]
            for swap in itertools.islice(_shifted_swaps(u, u.rows(label)), 3 - found):
                found += 1
                pairs = itertools.product(range(n), repeat=2)
                moved = {t[swap[x]][swap[y]] for x, y in pairs if t[x][y] in label}
                order_atoms = [a for a in label if isinstance(a, Leq)]
                broken = _relabelled(tree, e, drop=order_atoms, add=moved)
                assert not any(u.broken(u.rows(broken.true_atoms[e])))
                # the whole domain once per input: it is the slow case
                for elements in ((d,), (e,)) + ((None,) if found == 1 else ()):
                    violations = check_classical_model(broken, red, elements)
                    assert violations == check_classical_model(broken, plain, elements)
                    if elements not in before:
                        before[elements] = check_classical_model(tree, red, elements)
                    new = [v for v in violations if v not in before[elements]]
                    assert all(v.startswith(f"inclusion fails at {d}: ") for v in new)
                    assert all(" vs Forall(" in v for v in new)
                    assert bool(new) == (elements != (e,)), name
        swapped += found
    assert swapped >= 10


def _family_of_each_inclusion(plain, u):
    """The family of each inclusion that the order structure `u` fixes,
    keyed by the text the checker reports a failing inclusion with;
    `plain.inclusions` lists the families first."""
    n = len(u)
    sizes = {
        "transitivity": n**3,
        "totality": n * n,
        "bounds": n,
        "constant order": len(fact_axioms(u)) - n,
        "antitonicity": n * n,
    }
    out, start = {}, 0
    for family, size in sizes.items():
        for inc in plain.inclusions[start : start + size]:
            out[f"{inc.lhs!r} vs {inc.rhs!r}"] = family
        start += size
    return out

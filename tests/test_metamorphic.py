"""Metamorphic relations of the whole decision: each compares the verdict on
an input with the verdict on a rewritten copy, and needs no model and no
oracle, so it checks inconsistent verdicts as much as consistent ones.

Every relation holds under Goedel semantics within one `:atmost` mode:
renaming concept and role names bijectively and permuting the axioms keep
the verdict; so do replacing a concept C by `(and C C)`, min being
idempotent, and by `(not (not C))`, negation being involutive; adding
an axiom keeps an inconsistent input inconsistent, and weakening one keeps
a consistent input consistent.  The rewrites work on the s-expressions of
the corpus and the samples, seeded per relation and input, and the
decision is parse, reduce and tableau.  Besides, `sat` and `subsumes` are
monotone in the degree: a positive verdict at d stays positive at every
lower d, which the CLI shows through its exit codes.
"""

import functools
import pathlib
import random

import pytest
from conftest import CORPUS, NODE_BUDGET

from galcq import (
    BudgetExceededError,
    check_consistency,
    format_degree,
    parse_degree,
    parse_ontology,
    reduce_ontology,
)
from galcq.cli import run
from galcq.syntax import SAtom, SList, read_forms

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
INPUTS = dict(CORPUS)
INPUTS.update({p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.sexp"))})
# a rewrite that makes the search run past this is skipped, not failed
STEP_BUDGET = 200_000

ROLE_AT = {"all": 1, "some": 1, "atleast": 2, "atmost": 2}


def _print(node) -> str:
    if isinstance(node, SAtom):
        return node.text
    return "(" + " ".join(_print(item) for item in node.items) + ")"


def _text(forms) -> str:
    return "\n".join(_print(form) for form in forms)


@functools.lru_cache(maxsize=None)
def _verdict(text: str):
    """The consistency verdict on `text`, None if a budget ran out."""
    try:
        red = reduce_ontology(parse_ontology(text))
        return check_consistency(red, NODE_BUDGET, STEP_BUDGET).consistent
    except BudgetExceededError:
        return None


def _concept_slots(form):
    """(list, index) of every top-level concept of an axiom form."""
    head = form.items[0].text
    if head == "gci":
        return [(form.items, 1), (form.items, 2)]
    if head == "assert":
        return [(form.items[1].items, 2)]
    if head == "assert-cmp":
        return [(form.items[1].items, 2), (form.items[3].items, 2)]
    return []


def _subconcepts(node, out):
    """Append to `out` every concept below `node`, as the (list, index)
    slot that holds it."""
    if isinstance(node, SList):
        first = ROLE_AT.get(node.items[0].text, 0) + 1
        for k in range(first, len(node.items)):
            out.append((node.items, k))
            _subconcepts(node.items[k], out)
    return out


def _slots(forms):
    out = []
    for form in forms:
        for slot in _concept_slots(form):
            out.append(slot)
            _subconcepts(slot[0][slot[1]], out)
    return out


def _wrapped(text: str, rng, wrap) -> str:
    forms = read_forms(text)
    slots = _slots(forms)
    items, k = rng.choice(slots)
    items[k] = wrap(items[k])
    return _text(forms)


def _renamed(text: str, rng) -> str:
    """`text` with its concept and role names mapped bijectively to fresh
    ones in a seeded order."""
    forms = read_forms(text)
    concepts = [items[k] for items, k in _slots(forms)]
    names = {c.text for c in concepts if isinstance(c, SAtom)} - {"top", "bot"}
    quantified = [c for c in concepts if isinstance(c, SList) and c.items[0].text in ROLE_AT]
    roles = {c.items[ROLE_AT[c.items[0].text]].text for c in quantified}
    mapping = {}
    for old, prefix in ((sorted(names), "C"), (sorted(roles), "r")):
        fresh = [f"{prefix}{m}" for m in range(len(old))]
        rng.shuffle(fresh)
        mapping.update(zip(old, fresh))
    for c in concepts:
        if isinstance(c, SAtom):
            c.text = mapping.get(c.text, c.text)
    for c in quantified:
        role = c.items[ROLE_AT[c.items[0].text]]
        role.text = mapping[role.text]
    return _text(forms)


def _permuted(text: str, rng) -> str:
    forms = read_forms(text)
    rng.shuffle(forms)
    return _text(forms)


def _with_axiom(text: str, rng) -> str:
    """`text` with one more axiom: a graded inclusion of the corpus and
    samples, or an assertion about its own individual."""
    forms = read_forms(text)
    pool = [
        form
        for other in sorted(INPUTS.values())
        for form in read_forms(other)
        if form.items[0].text in ("gci", "assert")
    ]
    extra = rng.choice(pool)
    if extra.items[0].text == "assert":
        own = [f.items[1].items[1].text for f in forms if f.items[0].text.startswith("assert")]
        if own:
            extra.items[1].items[1].text = own[0]
    forms.insert(rng.randrange(len(forms) + 1), extra)
    return _text(forms)


RELATIONS = {
    "renaming": _renamed,
    "permutation": _permuted,
    "and-self": lambda text, rng: _wrapped(
        text, rng, lambda c: SList([SAtom("and", 0, 0), c, c], 0, 0)
    ),
    "double-negation": lambda text, rng: _wrapped(
        text,
        rng,
        lambda c: SList([SAtom("not", 0, 0), SList([SAtom("not", 0, 0), c], 0, 0)], 0, 0),
    ),
}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_rewrites_keep_the_verdict(relation):
    rewrite = RELATIONS[relation]
    checked = 0
    for name, text in sorted(INPUTS.items()):
        want = _verdict(text)
        if want is None or not read_forms(text):
            continue
        copy = rewrite(text, random.Random(f"{relation} {name}"))
        got = _verdict(copy)
        if got is not None:
            assert got == want, (name, copy)
            checked += 1
    assert checked >= 30, checked


def test_an_added_axiom_keeps_inconsistency():
    checked = 0
    for name, text in sorted(INPUTS.items()):
        if _verdict(text) is not False:
            continue
        for round_ in range(2):
            copy = _with_axiom(text, random.Random(f"added {round_} {name}"))
            got = _verdict(copy)
            if got is not None:
                assert got is False, (name, copy)
                checked += 1
    assert checked >= 20, checked



# the relator each strict one weakens to
LOOSER = {">": ">=", "<": "<="}


def _weakenings(forms):
    """Every way to weaken one axiom of `forms`, each a function of a
    seeded generator that applies it: lower a `gci` degree (to 0: drop the
    axiom), lower a `>=` bound or raise a `<=` one, or turn `>` into `>=`
    or `<` into `<=`, in `assert` and in `assert-cmp`."""
    out = []
    for form in forms:
        head = form.items[0].text
        if head not in ("gci", "assert", "assert-cmp"):
            continue
        rel = form.items[3 if head == "gci" else 2]
        if rel.text in LOOSER:
            out.append(lambda rng, rel=rel: setattr(rel, "text", LOOSER[rel.text]))
            continue
        if head == "assert-cmp" or rel.text not in (">=", "<="):
            continue
        bound = form.items[-1]
        q = parse_degree(bound.text)
        if rel.text == ">=" and q > 0:

            def lower(rng, form=form, bound=bound, q=q):
                bound.text = format_degree(q * rng.randrange(4) / 4)
                if form.items[0].text == "gci" and bound.text == "0":
                    forms.remove(form)

            out.append(lower)
        elif rel.text == "<=" and q < 1:

            def raise_(rng, bound=bound, q=q):
                bound.text = format_degree(q + (1 - q) * rng.randrange(1, 5) / 4)

            out.append(raise_)
    return out


def test_weakening_keeps_consistency():
    checked = 0
    for name, text in sorted(INPUTS.items()):
        if _verdict(text) is not True:
            continue
        for round_ in range(3):
            rng = random.Random(f"weakened {round_} {name}")
            forms = read_forms(text)
            sites = _weakenings(forms)
            if not sites:
                break
            rng.choice(sites)(rng)
            copy = _text(forms)
            got = _verdict(copy)
            if got is not None:
                assert got is True, (name, copy)
                checked += 1
    assert checked >= 40, checked


LADDER = ("1/4", "1/2", "3/4", "1")


def _concept_texts(text):
    """The s-expressions of the concepts of `text`, sorted, `top` and `bot`
    included."""
    forms = read_forms(text)
    return sorted({_print(items[k]) for items, k in _slots(forms)} | {"top", "bot"})


@pytest.mark.parametrize("command", ["sat", "subsumes"])
def test_positive_verdicts_are_monotone_in_the_degree(tmp_path, capsys, command):
    ladders = 0
    for n, (name, text) in enumerate(sorted(INPUTS.items())):
        path = tmp_path / f"{n}.sexp"
        path.write_text(text)
        rng = random.Random(f"{command} {name}")
        concepts = _concept_texts(text)
        for _ in range(2):
            if command == "sat":
                query = ["-c", rng.choice(concepts)]
            else:
                query = ["--lhs", rng.choice(concepts), "--rhs", rng.choice(concepts)]
            codes = [run([command, str(path), *query, "-d", d]) for d in LADDER]
            capsys.readouterr()
            if 2 in codes:
                continue
            # exit 0 is the positive verdict: once a degree fails, every
            # higher one does
            assert codes == sorted(codes), (name, query, codes)
            ladders += 1
    assert ladders >= 60, ladders

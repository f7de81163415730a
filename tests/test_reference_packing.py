"""The reference engine's packed chart against its unpacked oracles.

The size chart completes a span in one pass unless the grammar has an
empty-word entry or a cycle of unary productions.  helpers'
fixpoint_size_chart reruns every production over the whole chart until no
mask grows, in no span order and no rule order, so every mask must be the
same: on a long unary chain listed mother-first and reversed, on a chain
with an empty-word entry, on a unit cycle and on random grammars.

sug_membership reads the c-structure memo packed: one least subtree per
rooted feature structure, and none that is inconsistent.  The unpacked
stream of enumerate_cstructures is its oracle: wherever the stream is not
cut before it, the membership's member, witness and model are those of the
stream's first c-structure that generates_check finds consistent.
"""

import random
from dataclasses import replace
from pathlib import Path

from glab import Budget, SearchStats, enumerate_cstructures, generates_check, parse_unification_grammar, sug_membership
from glab.unification import _size_chart

from helpers import all_words, bench_module, fixpoint_size_chart, rand_arbitrary_sug, unary_chain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the budget and grammars of the arbitrary-schemata group of tools/differential.py
ARBITRARY_SEED = 1995
ARBITRARY_BUDGET = Budget(max_nodes=9, max_trees=200)


def test_the_one_pass_chart_equals_the_fixpoint_chart():
    chain = unary_chain(600)
    cases = [
        (chain, ("a",), 4096),
        (replace(chain, productions=chain.productions[::-1]), ("a",), 4096),
        (unary_chain(50, empty_entry=True), ("a",), 4096),
    ]
    example2 = parse_unification_grammar((FIXTURES / "example2_u.ugr").read_text())
    cases += [(example2, w, 60) for w in all_words(example2.terminals, 4)]
    rng = random.Random(20261022)
    for _ in range(60):
        g = rand_arbitrary_sug(rng)
        cases += [(g, w, 9) for w in all_words(g.terminals, 3)]
    one_pass = 0
    for g, word, max_nodes in cases:
        one_pass += g._chart_order is not None
        assert _size_chart(g, word, max_nodes) == fixpoint_size_chart(g, word, max_nodes), (g, word)
    # the chains listed either way take one pass; the empty-word entry and
    # the unit cycle B -> B rerun
    assert [g._chart_order is not None for g, _, _ in cases[:4]] == [True, True, False, False]
    assert 0 < one_pass < len(cases)


def _first_consistent(g, word, budget):
    """(member, witness, model) from the first c-structure of the stream
    that generates_check finds consistent; None when a cap cut the stream
    before it found one."""
    stats = SearchStats()
    for cs in enumerate_cstructures(g, word, budget, stats):
        result = generates_check(cs)
        if result.consistent:
            return True, cs, result.model
    return None if stats.exhausted else (False, None, None)


def _agrees_with_the_stream(g, word, budget) -> str:
    """Checks one word and names what it compared: "member", "non-member",
    or "cut" when the stream could not decide."""
    expected = _first_consistent(g, word, budget)
    if expected is None:
        return "cut"
    r = sug_membership(g, word, budget)
    assert (r.member, r.witness, r.model) == expected, (g, word)
    # the packed memo builds a subset of the keys and reads fewer roots
    assert not r.exhausted, (g, word)
    return "member" if r.member else "non-member"


def test_packed_membership_is_the_first_consistent_tree_of_the_stream():
    seen = {"member": 0, "non-member": 0, "cut": 0}
    rng = random.Random(ARBITRARY_SEED)
    for _ in range(150):
        g = rand_arbitrary_sug(rng)
        for word in all_words(g.terminals, 3):
            seen[_agrees_with_the_stream(g, word, ARBITRARY_BUDGET)] += 1
    # the four shapes of the reference-sweep benchmark's agreement grammars
    corpora = bench_module("corpora")
    for ag in corpora.agreement_grammars(random.Random(1), 4, 3):
        g = ag.grammar
        for word in all_words(g.terminals, 3):
            seen[_agrees_with_the_stream(g, word, Budget())] += 1
    assert seen["member"] >= 200 and seen["non-member"] >= 1000 and seen["cut"] > 0, seen


def test_a_witness_past_the_tree_cap_is_the_first_root_entry():
    rng = random.Random(ARBITRARY_SEED)
    for _ in range(21):
        g = rand_arbitrary_sug(rng)
    # the stream is cut at 200 trees; with a larger cap its first consistent
    # tree is the 1,019th
    assert _first_consistent(g, "aaa", ARBITRARY_BUDGET) is None
    stats = SearchStats()
    for k, cs in enumerate(enumerate_cstructures(g, "aaa", replace(ARBITRARY_BUDGET, max_trees=10**6), stats), 1):
        result = generates_check(cs)
        if result.consistent:
            break
    assert k == 1019 and not stats.exhausted
    r = sug_membership(g, "aaa", ARBITRARY_BUDGET)
    assert r.member and not r.exhausted and (r.witness, r.model) == (cs, result.model)
    assert r.stats.trees == 1

"""The stack engine keys a state by the part of its stack that can be read.

A PUSH v to a child B whose subtree has no rule that guards or pops v hands
B the stack (v,) alone in the search, so the states below it do not repeat
per stack underneath.  Witnesses still carry whole stacks.  These tests check
both against the independent oracles: whole-tree enumeration for indexed
grammars and the c-structure stream of the reference engine for stack-form ones, under a stack cap
that the search keyed by whole stacks trips.
"""

import random
from pathlib import Path

from glab import (
    Budget,
    NodeLabel,
    SearchStats,
    enumerate_derivations,
    indexed_language_upto,
    indexed_membership,
    parse_indexed_grammar,
    parse_unification_grammar,
    sug_language_upto,
    sug_membership,
    ugi_language_upto,
    ugi_membership,
    validate_derivation_tree,
)
from glab.indexed import terminal_symbols
from glab.stackengine import Fixpoint

from helpers import FUZZ_BUDGET, all_words, rand_general_ugi, rand_reduced_marked_indexed

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# T pushes g without end, and only A's guarded rule reads g; nothing reads
# f or h, so the search hands T the stack (f,) and A the stack (h,)
UNREAD = """\
nonterminals S T A
terminals a b
indices f g h
start S
S -> T ^f
T -> T ^g
T -> A ^h
A -> a
A ^g -> b
"""


def _whole_stack_search(rules, start, maxlen, budget) -> Fixpoint:
    """The search keyed by whole stacks: the same engine with no cut."""
    fp = Fixpoint(rules, start, maxlen, budget)
    fp.cuts = set()
    return fp.run()


def test_witness_keeps_the_whole_stacks():
    g = parse_indexed_grammar(UNREAD)
    # keyed by whole stacks, T[g^k f] is a new state for every k
    assert _whole_stack_search(g.stack_rules, g.start, 1, FUZZ_BUDGET).stats.reasons == ["max_stack"]
    r = indexed_membership(g, "a", FUZZ_BUDGET)
    assert r.member and not r.exhausted and r.reasons == ()
    assert validate_derivation_tree(g, r.witness).ok
    labels = [r.witness.labels[a] for a in r.witness.domain.sorted_addresses]
    stacks = [(x.symbol, x.stack) for x in labels if isinstance(x, NodeLabel)]
    assert stacks == [("S", ()), ("T", ("f",)), ("A", ("h", "f"))]
    # b needs a g under A's h, which no derivation puts there
    r = indexed_membership(g, "b", FUZZ_BUDGET)
    assert not r.member and not r.exhausted


def test_indexed_searches_agree_with_tree_enumeration():
    rng = random.Random(20261019)
    budget = Budget(max_nodes=10, max_stack=3, max_states=4000)
    tree_budget = Budget(max_nodes=10, max_trees=200_000)
    compared = completed = 0
    for _ in range(60):
        g = rand_reduced_marked_indexed(rng)
        res = indexed_language_upto(g, 4, budget)
        if res.exhausted:
            continue
        stats = SearchStats()
        first_tree = {}
        for t in enumerate_derivations(g, tree_budget, stats):
            first_tree.setdefault(terminal_symbols(t), t)
        assert not stats.exhausted
        assert set(res.words) == {w for w in first_tree if len(w) <= 4}, g
        for w in all_words(g.symbols.terminals, 3):
            m = indexed_membership(g, w, budget)
            if not m.exhausted:
                # enumeration order is (node count, rule sequence), so the
                # first tree of a yield is its minimal witness
                assert m.witness == first_tree.get(w), (g, w)
        compared += 1
        completed += _whole_stack_search(g.stack_rules, g.start, 4, budget).stats.exhausted
    assert compared >= 40 and completed >= 4


def test_stack_form_searches_agree_with_the_reference_sweep():
    rng = random.Random(20261019)
    budget = Budget(max_nodes=8, max_stack=2, max_states=2000, max_demand=8)
    ref_budget = Budget(max_nodes=8, max_trees=5_000, max_steps=200_000)
    compared = completed = 0
    for _ in range(40):
        g = rand_general_ugi(rng)
        res = ugi_language_upto(g, 3, budget)
        if res.exhausted:
            continue
        reference = set()
        for w in all_words(g.terminals, 3):
            ref = sug_membership(g, w, ref_budget)
            assert not ref.exhausted
            if ref.member:
                reference.add(w)
            m = ugi_membership(g, w, budget)
            if not m.exhausted:
                assert m.witness == ref.witness, (g, w)
        assert set(res.words) == reference, g
        compared += 1
        completed += _whole_stack_search(g.stack_rules, g.start, 3, budget).stats.exhausted
    assert compared >= 20 and completed >= 4


def test_language_results_carry_the_search_counters():
    # without A's guarded rule nothing reads any value: the language search
    # keeps the states S[], T[f], T[g] and A[h]
    g = parse_indexed_grammar(UNREAD.replace("A ^g -> b\n", ""))
    res = indexed_language_upto(g, 4, FUZZ_BUDGET)
    assert res.words == (("a",),) and not res.exhausted
    assert res.stats.states == 4 and res.stats.steps > 0 and res.stats.improved > 0
    assert _whole_stack_search(g.stack_rules, g.start, 4, FUZZ_BUDGET).stats.reasons == ["max_stack"]
    # the counters take no part in equality
    again = indexed_language_upto(g, 4, Budget(max_stack=1))
    assert again == res and again.stats is not res.stats
    # the membership sweep of a grammar outside stack form reports none
    agreement = parse_unification_grammar((FIXTURES / "agreement.ugr").read_text())
    assert sug_language_upto(agreement, 2).stats is None

"""Membership runs keep only the entries whose yield is a factor of the word.

A subtree of a witness of w yields a factor of w (a contiguous part of it),
so a membership run of the stack engine stores nothing else, and leaves out
the rules and states that cannot yield a factor within len(w).  Every kept
key keeps its least (cost, rule sequence), so a membership run must give the
same answer and the same minimal witness as a language run at the same
length: checked here on random indexed and stack-form grammars for every
word up to length 4, on a grammar whose joins are large, on the empty word,
and on a word whose proper factors take part in no witness of it.  Only the
work counters may fall.
"""

import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from glab import (
    Budget,
    IndexedGrammar,
    Plain,
    Push,
    SearchStats,
    SymbolTable,
    indexed_membership,
    parse_indexed_grammar,
    parse_unification_grammar,
    sug_membership,
    ugi_membership,
)
from glab.stackengine import Fixpoint

from helpers import FUZZ_BUDGET, all_words, rand_general_ugi, rand_reduced_marked_indexed, rand_reduced_ugi, sample_until

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAXLEN = 4
# the fuzz budget, with state and step caps that many random grammars trip
BUDGET = replace(FUZZ_BUDGET, max_states=200, max_steps=2000)
FAMILIES = (
    ("indexed", rand_reduced_marked_indexed, lambda g: g.symbols.terminals),
    ("general", rand_general_ugi, lambda g: g.terminals),
    ("reduced", rand_reduced_ugi, lambda g: g.terminals),
)


def assert_membership_matches_language(rules, start, terminals) -> int:
    """Compare a membership run with a language run of the same length for
    every word up to MAXLEN; return how many words were compared exactly."""
    languages = [Fixpoint(rules, start, n, BUDGET).run() for n in range(MAXLEN + 1)]
    exact = 0
    for word in all_words(terminals, MAXLEN):
        lang = languages[len(word)]
        mem = Fixpoint(rules, start, len(word), BUDGET, word).run()
        # a membership run is cut short only where the language run is
        assert not mem.stats.exhausted or lang.stats.exhausted, word
        found = mem.witness(word)
        if not lang.stats.exhausted:
            assert found == lang.witness(word), word
            assert mem.stats.states <= lang.stats.states
            exact += 1
        elif not mem.stats.exhausted and lang.witness(word) is not None:
            # a complete membership run finds every word a capped language
            # run found
            assert found is not None, word
    return exact


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_membership_matches_language_on_complete_random_grammars(family):
    """Grammars whose language to MAXLEN is complete and holds at least
    two nonempty words: every answer and witness is compared."""
    name, make, terminals = family
    rng = random.Random(f"factors/{name}")

    def complete(g) -> bool:
        lang = Fixpoint(g.stack_rules, g.start, MAXLEN, BUDGET).run()
        return not lang.stats.exhausted and sum(map(bool, lang.language().words)) >= 2

    for g in sample_until(lambda: make(rng), complete, 20, 2000):
        words = sum(1 for _ in all_words(terminals(g), MAXLEN))
        assert assert_membership_matches_language(g.stack_rules, g.start, terminals(g)) == words


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
def test_membership_on_random_grammars_is_capped_only_where_language_is(family):
    name, make, terminals = family
    rng = random.Random(f"factors/raw/{name}")
    for _ in range(10):
        g = make(rng)
        assert_membership_matches_language(g.stack_rules, g.start, terminals(g))


def test_membership_matches_language_on_large_joins():
    """S -> S S S | S S | a | b: an ambiguous grammar whose joins are
    large, and most of whose combinations a membership run drops because
    their yield is no factor of the word.  The step cap is lifted so that
    the language runs complete: they build all of the ternary join's
    millions of combinations and drop those over length."""
    g = IndexedGrammar(
        SymbolTable(("S",), ("a", "b"), ()),
        (Plain("S", ("S", "S", "S")), Plain("S", ("S", "S")), Plain("S", ("a",)), Plain("S", ("b",))),
        "S",
    )
    budget = Budget(max_steps=10**9)
    for n in range(7):
        lang = Fixpoint(g.stack_rules, g.start, n, budget).run()
        assert not lang.stats.exhausted
        for word in product("ab", repeat=n):
            mem = Fixpoint(g.stack_rules, g.start, n, budget, word).run()
            assert mem.witness(word) == lang.witness(word), word


def test_membership_of_the_empty_word():
    # S -> A A with A -> a | eps: the empty word needs both A to be empty,
    # and the rules with the leaf a take no part
    g = IndexedGrammar(
        SymbolTable(("S", "A"), ("a",), ()),
        (Plain("S", ("A", "A")), Plain("A", ("a",)), Plain("A", ())),
        "S",
    )
    r = indexed_membership(g, ())
    assert r.member and not r.exhausted
    assert [label.symbol for _, label in sorted(r.witness.labels.items())] == ["S", "A", "", "A", ""]
    assert r.stats.states == 2
    # a grammar without the empty word discovers no state for it
    g1 = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text(encoding="utf-8"))
    r = indexed_membership(g1, "")
    assert not r.member and not r.exhausted and r.stats.states == 0


def test_membership_of_a_word_whose_proper_factors_take_part_in_nothing():
    # S -> S' ^f, S' -> a b c | A C, A -> a b, C -> b c: the witness of abc
    # is flat below S', so no proper factor of abc takes part in it, while
    # A and C yield the proper factors ab and bc.  S' -> A C yields at least
    # four terminals, so neither a membership run of abc nor a language run
    # to length 3 runs it, and neither discovers A and C.
    g = IndexedGrammar(
        SymbolTable(("S", "S'", "A", "C"), ("a", "b", "c"), ("f",)),
        (
            Push("S", "S'", "f"),
            Plain("S'", ("a", "b", "c")),
            Plain("S'", ("A", "C")),
            Plain("A", ("a", "b")),
            Plain("C", ("b", "c")),
        ),
        "S",
    )
    r = indexed_membership(g, "abc")
    assert r.member and not r.exhausted
    assert [label.symbol for _, label in sorted(r.witness.labels.items())] == ["S", "S'", "a", "b", "c"]
    assert (r.stats.states, r.stats.improved) == (2, 2)
    assert Fixpoint(g.stack_rules, g.start, 3, Budget()).run().stats.states == 2
    assert indexed_membership(g, "abbc").member
    for w in ("acb", "cab", "ab", "bc", "b", "abcc"):
        r = indexed_membership(g, w)
        assert not r.member and not r.exhausted, w


def test_factor_filter_cuts_entries_on_example1():
    """a^60 b^60 c^60: of the 2070 entries a language run to length 180
    adds or improves, a membership run keeps about one in nine."""
    g = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text(encoding="utf-8"))
    n = 60
    lang = Fixpoint(g.stack_rules, g.start, 3 * n, Budget()).run().stats
    r = indexed_membership(g, "a" * n + "b" * n + "c" * n)
    assert r.member and not r.exhausted
    assert 5 * r.stats.improved <= lang.improved
    assert r.stats.states <= lang.states
    assert (lang.improved, r.stats.improved) == (2070, 241)


def test_every_decider_reports_its_search():
    text = (FIXTURES / "example2_u.ugr").read_text(encoding="utf-8")
    g = parse_unification_grammar(text)
    for decide in (ugi_membership, sug_membership):
        r = decide(g, "dd")
        assert r.member and r.stats is not None and r.stats.steps > 0
        # the counters take no part in equality
        assert r == replace(r, stats=SearchStats())

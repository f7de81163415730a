"""Per-grammar search tables.

A grammar's stack_rules is a Machine: it codes the rules once and builds
each live-rule set's tables (rules per mother, cut pushes, least-yield
table) once, and every search of the grammar reads them.  A live set's
least-yield table is saturated at the largest maxlen + 1 asked so far and
read at each search's own; capping is a homomorphism of the capped (min, +)
arithmetic, so the values read equal those of a table saturated at the
search's cap.  None of this may show in an answer: a grammar object that
has answered other questions first, longer or shorter, gives every answer,
witness, model, reasons and work counter that a freshly parsed copy gives.
"""

import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from glab import (
    Budget,
    IndexedGrammar,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    parse_indexed_grammar,
    parse_unification_grammar,
    print_indexed_grammar,
    print_unification_grammar,
    sink_map_root,
    u_transform,
    ugi_language_upto,
    ugi_membership,
    ugi_normalize,
)
from glab.stackengine import Fixpoint, Machine

from helpers import FUZZ_BUDGET, bench_module, clashing_pops, rand_general_ugi, rand_reduced_marked_indexed, rand_reduced_ugi

ROOT_DIR = Path(__file__).resolve().parent.parent
FIXTURES = ROOT_DIR / "fixtures"


def _fuzz_pool():
    """The fuzz-equiv benchmark's pool: each case's grammar and its rewrite."""
    corpora = bench_module("corpora")
    rewrite = {"u": lambda g: u_transform(g)[0], "mark": mark_index_end, "normalize": ugi_normalize, "sink": sink_map_root}
    for case in corpora.fuzz_corpus(random.Random(0), 25):
        yield case.grammar
        yield rewrite[case.family](case.grammar)


def _fresh(g):
    """A copy of g parsed from its text, with no table built."""
    if isinstance(g, IndexedGrammar):
        return parse_indexed_grammar(print_indexed_grammar(g))
    return parse_unification_grammar(print_unification_grammar(g))


def _engines(g):
    if isinstance(g, IndexedGrammar):
        return indexed_language_upto, indexed_membership, g.symbols.terminals
    return ugi_language_upto, ugi_membership, g.terminals


def _assert_same(got, want, what):
    assert got == want, what
    assert got.stats == want.stats, what


def _check_warm_and_cold(g, words, maxlen, budget):
    """Ask g a language, every word longest first, every word shortest
    first and the language again; each answer must be the one a fresh copy
    of g gives.  Returns how many answers were compared."""
    language, membership, _ = _engines(g)
    fresh_language = language(_fresh(g), maxlen, budget)
    fresh = {w: membership(_fresh(g), w, budget) for w in words}
    _assert_same(language(g, maxlen, budget), fresh_language, ("language", maxlen))
    for order in (sorted(words, key=len, reverse=True), sorted(words, key=len)):
        for w in order:
            _assert_same(membership(g, w, budget), fresh[w], w)
    _assert_same(language(g, maxlen, budget), fresh_language, ("language", maxlen))
    return 2 + 2 * len(words)


@pytest.mark.parametrize(
    "fixture, maxlen, words",
    [
        ("example1.ixg", 12, ["a" * n + "b" * n + "c" * (n + k) for n in range(1, 8) for k in (0, 1)] + ["abcc", "aabc"]),
        ("example2.ixg", 16, ["d" * m for m in range(1, 20)]),
        ("example2_u.ugr", 16, ["d" * m for m in range(1, 20)]),
    ],
)
def test_warm_and_cold_tables_give_the_same_answers_on_the_fixtures(fixture, maxlen, words):
    text = (FIXTURES / fixture).read_text()
    g = parse_indexed_grammar(text) if fixture.endswith(".ixg") else parse_unification_grammar(text)
    # a node cap that cuts the longest words, so that some answers name it
    for budget in (Budget(), Budget(max_nodes=60, max_stack=12)):
        _check_warm_and_cold(g, words, maxlen, budget)


def test_warm_and_cold_tables_give_the_same_answers_on_the_fuzz_pool():
    # the fuzz budget with a state cap that keeps the slowest rewrites short
    budget = replace(FUZZ_BUDGET, max_states=500)
    compared = exhausted = 0
    for g in _fuzz_pool():
        language, membership, terminals = _engines(g)
        words = [w for n in range(4) for w in itertools.product(terminals, repeat=n)]
        compared += _check_warm_and_cold(g, words, 3, budget)
        exhausted += language(g, 3, budget).exhausted
    assert compared > 2000 and exhausted >= 10


def _grammars():
    rng = random.Random(2810)
    for _ in range(30):
        yield rand_reduced_marked_indexed(rng)
        yield rand_reduced_ugi(rng)
        yield rand_general_ugi(rng)
    # stack-form grammars whose sibling pops clash below the root, where the
    # bound is only a lower bound
    rng = random.Random(2811)
    found = 0
    while found < 10:
        g = rand_general_ugi(rng)
        if clashing_pops(g):
            found += 1
            yield g
    for name in ("example1.ixg", "example2.ixg", "example2_u.ugr"):
        text = (FIXTURES / name).read_text()
        yield parse_indexed_grammar(text) if name.endswith(".ixg") else parse_unification_grammar(text)


def test_a_table_saturated_at_a_larger_cap_reads_the_bounds_of_a_fresh_one():
    budget = Budget(max_nodes=64, max_stack=12, max_states=2000, max_steps=20_000)
    checked = capped = 0
    for g in _grammars():
        _, _, terminals = _engines(g)
        rules = tuple(g.stack_rules)
        word = tuple(itertools.islice(itertools.cycle(terminals), 3))
        for maxlen, w in ((4, None), (6, None), (len(word), word)):
            small = Fixpoint(Machine(rules), g.start, maxlen, budget, w).run()
            warm = Machine(rules)
            # saturate the same live set at a larger cap first: a longer
            # word over the same letters has the same live rules
            longer = 4 * maxlen + 7
            big = Fixpoint(warm, g.start, longer, budget, w and tuple(itertools.islice(itertools.cycle(w), longer)))
            assert big.oracle.table.limit == longer + 1
            read = Fixpoint(warm, g.start, maxlen, budget, w)
            assert read.oracle.table is big.oracle.table
            assert read.oracle.cap == small.oracle.cap == small.oracle.table.limit == maxlen + 1
            # the states of the longer search too, whose bounds may pass the cap
            for state in itertools.chain(small.entries, big.run().entries):
                assert read.oracle.bound(*state) == small.oracle.bound(*state), (state, rules)
                checked += 1
                capped += small.oracle.bound(*state) == maxlen + 1
    assert checked > 1000 and capped >= 50


def test_a_plain_rule_list_builds_its_own_machine():
    g = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text())
    rules = list(g.stack_rules)
    fp = Fixpoint(rules, g.start, 9, Budget()).run()
    assert isinstance(fp.machine, Machine) and fp.machine is not g.stack_rules
    assert fp.machine == g.stack_rules
    assert fp.language() == indexed_language_upto(g, 9)
    # the grammar's own machine serves every search of it
    assert Fixpoint(g.stack_rules, g.start, 9, Budget()).machine is g.stack_rules

"""The stack engine neither stores nor joins an entry that a shorter demand
of the same yield subsumes.

A pop below the root of a search records a demand on the index list under
the root, and Fixpoint keys its entries by (yield, demand).  An entry is
subsumed when its state also holds the same yield with a proper prefix of
its demand at a (cost, rule sequence) no larger.  The shorter demand merges
with every sibling demand the longer one merges with, to a prefix of that
result, and prepends to a prefix too, so swapping it in gives a tree of the
same yield that is no larger; preorder rule sequences are prefix-free, so it
is no later in rule order either.  No minimal tree uses a subsumed entry.
So words and minimal witnesses are unchanged, but the joins shrink, and
max_demand names only a demand that no shorter one covers.

Checked here: words and minimal witnesses against the reference c-structure
sweep (sug_membership, which enumerates whole c-structures and never runs
the stack engine) on random stack-form grammars, some with sibling
daughters that pop different values; the fuzz-pool grammar sink#31, whose
search max_demand used to cut; a max_demand cap that is real; and the
witnesses of three searches cut by max_steps.
"""

import random
from dataclasses import replace

import pytest

from glab import (
    Budget,
    collect_equations,
    parse_unification_grammar,
    solve,
    sug_membership,
    ugi_language_upto,
    ugi_membership,
    validate_cstructure,
)
from glab.stackengine import Fixpoint

from helpers import FUZZ_BUDGET, all_words, clashing_pops, rand_general_ugi, sample_until

MAXLEN = 4
# small enough for the reference sweep; the state and step caps keep the
# selection of grammars quick
BUDGET = Budget(max_nodes=14, max_stack=16, max_states=200, max_steps=5000, max_demand=8)


def _complete_with_demands(g) -> bool:
    """Whether the language run of g is complete and stores an entry with
    a demand, so that subsumption can apply."""
    fp = Fixpoint(g.stack_rules, g.start, MAXLEN, BUDGET).run()
    return not fp.stats.exhausted and any(d for store in fp.entries.values() for _, d in store)


@pytest.mark.parametrize("family", ["general", "clash"])
def test_words_and_witnesses_match_the_reference_sweep(family):
    rng = random.Random(f"subsumption/{family}")
    if family == "general":
        grammars = sample_until(lambda: rand_general_ugi(rng), _complete_with_demands, 30, 10_000)
    else:
        grammars = sample_until(
            lambda: rand_general_ugi(rng), lambda g: clashing_pops(g) and _complete_with_demands(g), 20, 10_000
        )
    members = 0
    for g in grammars:
        language = ugi_language_upto(g, MAXLEN, BUDGET)
        assert not language.exhausted
        reference = set()
        for word in all_words(g.terminals, MAXLEN):
            want = sug_membership(g, word, BUDGET)
            got = ugi_membership(g, word, BUDGET)
            assert not want.exhausted and not got.exhausted
            assert got.member == want.member and got.witness == want.witness, word
            if want.member:
                reference.add(word)
        assert set(language.words) == reference
        members += len(reference)
    assert members >= 50


# X yields a with demand v0 in three nodes and with demand v1 v1 in four;
# only the longer one meets Y's demand v1
NO_PREFIX = """\
nonterminals S X Y A B C D
terminals a b
attributes next idx
values v0 v1
start S
rule S -> X { up = dn } Y { up = dn }
rule X -> A { up next = dn ; up idx = v0 }
rule X -> B { up next = dn ; up idx = v1 }
rule B -> C { up next = dn ; up idx = v1 }
rule Y -> D { up next = dn ; up idx = v1 }
lex A -> a { }
lex C -> a { }
lex D -> b { }
"""


def test_a_shorter_demand_that_is_no_prefix_subsumes_nothing():
    g = parse_unification_grammar(NO_PREFIX)
    assert ugi_language_upto(g, MAXLEN, BUDGET).words == (("a", "b"),)
    want = sug_membership(g, "ab", BUDGET)
    got = ugi_membership(g, "ab", BUDGET)
    assert want.member and got.witness == want.witness


SINK31 = """\
nonterminals U0
terminals a
attributes next idx
values v0 v1
start U0
rule U0 -> U0 { up = dn } U0 { up = dn }
rule U0 -> U0 { up next = dn ; up idx = v1 }
rule U0 -> U0 { up next = dn ; up idx = v0 }
lex U0 -> a { }
"""


def test_sink31_completes():
    # every demand of U0 on the empty stack is subsumed by the entry of
    # U0 -> a and its joins, which demand nothing
    g = parse_unification_grammar(SINK31)
    r = ugi_language_upto(g, MAXLEN, FUZZ_BUDGET)
    assert r.words == tuple(("a",) * n for n in range(1, 5))
    assert not r.exhausted and r.reasons == ()
    m = ugi_membership(g, "aaaa", FUZZ_BUDGET)
    assert m.member and m.reasons == ()


# random/general/35 of tools/differential.py: U1 pops v0 below the root as
# often as it likes, and only a demand that starts with v1 meets the pops
# of U0's second rule, so no shorter demand covers the longer ones
GENERAL35 = """\
nonterminals U0 U1
terminals a b
attributes next idx
values v0 v1
start U0
rule U1 -> U0 { up next = dn ; up idx = v1 }
rule U1 -> U1 { up next = dn ; up idx = v0 }
rule U0 -> U1 { up = dn } U1 { up = dn }
rule U0 -> U1 { up next = dn ; up idx = v1 } U1 { up next = dn ; up idx = v1 }
rule U1 -> U0 { up next = dn ; up idx = v1 } U0 { up next = dn ; up idx = v0 } U1 { up = dn }
lex U0 -> b { }
lex U1 -> b { }
"""


def test_a_real_max_demand_cap_still_trips():
    g = parse_unification_grammar(GENERAL35)
    steps = []
    for max_demand in (8, 16):
        r = ugi_membership(g, "bbb", replace(FUZZ_BUDGET, max_demand=max_demand))
        assert r.member and r.exhausted and r.reasons == ("max_demand",)
        steps.append(r.stats.steps)
    # a larger cap lets longer demands through, and they cost more joins;
    # joining the entries that became subsumed after they were stored cost
    # 54,914 steps under the first cap
    assert steps == [5248, 73144]


# random/clash/17 and random/clash/18 of tools/differential.py
CLASH17 = """\
nonterminals U0
terminals a b
attributes next idx
values v0 v1
start U0
rule U0 -> U0 { up next = dn ; up idx = v1 } U0 { up = dn } U0 { up next = dn ; up idx = v0 }
rule U0 -> U0 { up next = dn ; up idx = v1 }
rule U0 -> U0 { up next = dn ; up idx = v1 } U0 { up = dn }
rule U0 -> U0 { up next = dn ; up idx = v1 } U0 { up next = dn ; up idx = v0 }
rule U0 -> U0 { up next = dn ; up idx = v1 } U0 { dn next = up ; dn idx = v1 }
lex U0 -> a { }
"""

CLASH18 = """\
nonterminals U0
terminals a
attributes next idx
values v0 v1
start U0
rule U0 -> U0 { up = dn } U0 { dn next = up ; dn idx = v0 }
rule U0 -> U0 { up next = dn ; up idx = v1 } U0 { dn next = up ; dn idx = v0 }
rule U0 -> U0 { dn next = up ; dn idx = v0 } U0 { up next = dn ; up idx = v1 } U0 { up next = dn ; up idx = v0 }
rule U0 -> U0 { dn next = up ; dn idx = v1 }
rule U0 -> U0 { up = dn } U0 { up next = dn ; up idx = v0 }
lex U0 -> a { }
"""


@pytest.mark.parametrize(
    "text, word", [(GENERAL35, "bbb"), (CLASH17, "aaa"), (CLASH18, "aaa")], ids=["general35", "clash17", "clash18"]
)
def test_witnesses_of_searches_cut_by_max_steps_validate(text, word):
    g = parse_unification_grammar(text)
    r = ugi_membership(g, word, Budget(max_steps=50))
    assert r.exhausted and r.reasons == ("max_steps",)
    assert r.member
    cs = r.witness
    assert cs.terminal_symbols == tuple(word)
    assert validate_cstructure(g, cs).ok
    assert solve(collect_equations(cs), cs.domain.addresses).consistent
    assert sug_membership(g, word, Budget(max_nodes=len(cs.domain))).member

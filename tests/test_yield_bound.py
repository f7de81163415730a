"""The least-yield bound that gates the stack engine's rules.

Fixpoint runs a rule on a state only when the least yield lengths of its
children, computed from pop summaries, sum to at most the length bound, so
it discovers a state only when the state's least yield fits; only then do
the stack and state caps apply.  In a search that no cap cut short, a
discovered state holds every word it derives up to the length bound, so its
shortest entry is as long as its least yield: the bound must equal it.  A
search without the bound, capped or not, finds only real yields, and the
bound must not exceed any of them.  Stack-form pops that reach below the
root are the one exception to exactness.  The bound lets each of them meet
its own value, while Fixpoint also makes sibling demands agree; so the bound
is exact where there is one index value and a lower bound elsewhere."""

import random
from pathlib import Path

import pytest

from glab import (
    Budget,
    GrammarError,
    IndexedGrammar,
    Pop,
    Push,
    SearchStats,
    SymbolTable,
    enumerate_derivations,
    parse_indexed_grammar,
    parse_unification_grammar,
)
from glab.cli import main
from glab.indexed import indexed_language_upto, indexed_membership, terminal_symbols
from glab.stackengine import COPY, POP, PUSH, Child, Fixpoint, Rule

from helpers import rand_general_ugi, rand_reduced_marked_indexed, rand_reduced_ugi

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# generous on nodes, so that no entry within the length bound is dropped
BUDGET = Budget(max_nodes=10_000, max_stack=16, max_states=4000, max_demand=8, max_steps=5000)
MAXLEN = 6


def _shortest_entries(fp: Fixpoint) -> dict:
    return {state: min(len(w) for w, _ in store) for state, store in fp.entries.items() if store}


def _bound(fp: Fixpoint, sym: str, stack: tuple) -> int:
    """The bound of sym on stack, coded through the search's own table."""
    return fp.oracle.bound(sym, fp.encode(stack))


class _NoBound:
    def bound(self, sym, stack) -> int:
        return 0


def _check_bound(rules, start, exact: bool, maxlen: int = MAXLEN) -> int:
    """Check that the bound never exceeds a yield that a search without it
    finds, capped or not; and, if the search with it was not cut short by a
    cap, that it is the shortest entry of every state discovered.  Return
    how many states were checked."""
    fp = Fixpoint(rules, start, maxlen, BUDGET)
    oracle, fp.oracle = fp.oracle, _NoBound()
    unpruned = _shortest_entries(fp.run())
    for state, least in unpruned.items():
        assert oracle.bound(*state) <= least, (state, rules)
    fp = Fixpoint(rules, start, maxlen, BUDGET).run()
    if fp.stats.exhausted:
        return len(unpruned)
    shortest = _shortest_entries(fp)
    for state in fp.entries:
        bound = fp.oracle.bound(*state)
        assert bound <= maxlen, state
        if exact:
            assert shortest.get(state) == bound, (state, rules)
        else:
            assert bound <= shortest.get(state, maxlen + 1), (state, rules)
    return len(unpruned) + len(fp.entries)


def test_bound_is_exact_on_random_indexed_grammars():
    rng = random.Random(120426)
    checked = 0
    for _ in range(150):
        g = rand_reduced_marked_indexed(rng)
        checked += _check_bound(g.stack_rules, g.start, exact=True)
    assert checked >= 100


def test_languages_of_random_indexed_grammars_agree_with_tree_enumeration():
    rng = random.Random(120426)
    budget = Budget(max_nodes=10, max_stack=16)
    compared = 0
    for _ in range(30):
        g = rand_reduced_marked_indexed(rng)
        res = Fixpoint(g.stack_rules, g.start, 4, budget).run().language()
        stats = SearchStats()
        trees = enumerate_derivations(g, Budget(max_nodes=10, max_trees=100_000), stats)
        by_trees = {w for w in map(terminal_symbols, trees) if len(w) <= 4}
        if not (res.exhausted or stats.exhausted):
            assert set(res.words) == by_trees, g
            compared += 1
    assert compared >= 20


def test_bound_on_random_stack_form_grammars():
    rng = random.Random(120427)
    exact = lower = 0
    for generator in (rand_reduced_ugi, rand_general_ugi):
        for _ in range(150):
            g = generator(rng)
            if len(g.values) == 1:
                exact += _check_bound(g.stack_rules, g.start, exact=True)
            else:
                lower += _check_bound(g.stack_rules, g.start, exact=False)
    assert exact >= 20 and lower >= 40


def test_bound_is_below_the_shortest_entry_where_demands_clash():
    # U0 pops v1 and v0 below the root in one rule: the bound lets each pop
    # meet its own value, but the two demands clash, so only U0 -> a is left
    rules = [
        Rule("U0", None, (Child("U1", POP, "v1"), Child("U1", PUSH, "v0"), Child("U1", POP, "v0"))),
        Rule("U0", None, (Child("a"),)),
        Rule("U1", None, (Child(""),)),
    ]
    fp = Fixpoint(rules, "U0", MAXLEN, BUDGET).run()
    assert not fp.stats.exhausted
    assert _bound(fp, "U0", ()) == 0
    assert _shortest_entries(fp)[fp.root] == 1


def test_bound_counts_the_lockstep_stack_of_example1():
    # S' on g^k f derives a^(k+1) b^(k+1) c^(k+1) at the least
    g = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text())
    fp = Fixpoint(g.stack_rules, g.start, 400, Budget())
    assert [_bound(fp, "S'", ("g",) * k + ("f",)) for k in range(120)] == [3 * (k + 1) for k in range(120)]
    # past the length bound the bound saturates at maxlen + 1
    assert _bound(fp, "S'", ("g",) * 200 + ("f",)) == 401
    # no pop matches g on the empty stack, and A needs one
    assert _bound(fp, "A", ("g",)) == 401
    # the walk to a memoised suffix goes by depth, so a stack that is not
    # coded fails at its bottom value instead of looping
    with pytest.raises(KeyError):
        fp.oracle.bound("S'", ("g", "f"))


def test_bound_counts_the_doubling_stack_of_example2():
    # B on g^k f $ derives d^(2^(k+1)) at the least: each g doubles it
    g = parse_indexed_grammar((FIXTURES / "example2.ixg").read_text())
    fp = Fixpoint(g.stack_rules, g.start, 300, Budget())
    assert [_bound(fp, "B", ("g",) * k + ("f", "$")) for k in range(8)] == [2 ** (k + 1) for k in range(8)]
    assert _bound(fp, "B", ("g",) * 8 + ("f", "$")) == 301


def test_the_exits_of_a_push_see_the_stack_it_pushed_onto():
    # A pushes t over u; B pops the t and leaves C on u, where C costs three
    # terminals, not on the $ below, where it would cost one
    sym = SymbolTable(("S", "S1", "A", "B", "C"), ("c",), ("$", "u", "t"))
    rules = (
        Push("S", "S1", "$"),
        Push("S1", "A", "u"),
        Push("A", "B", "t"),
        Pop("B", "t", ("C",)),
        Pop("C", "u", ("c", "c", "c")),
        Pop("C", "$", ("c",)),
    )
    g = IndexedGrammar(sym, rules, "S")
    fp = Fixpoint(g.stack_rules, g.start, MAXLEN, BUDGET)
    assert _bound(fp, "A", ("u", "$")) == 3 and _bound(fp, "C", ("$",)) == 1
    assert _check_bound(g.stack_rules, g.start, exact=True) > 0


@pytest.mark.parametrize("fixture, maxlen", [("example1.ixg", 30), ("example2.ixg", 64), ("example2_u.ugr", 64)])
def test_bound_is_exact_on_the_fixtures(fixture, maxlen):
    text = (FIXTURES / fixture).read_text()
    g = parse_indexed_grammar(text) if fixture.endswith(".ixg") else parse_unification_grammar(text)
    assert _check_bound(g.stack_rules, g.start, exact=True, maxlen=maxlen) > 0


def test_a_guarded_rule_with_a_popping_child_is_refused():
    rules = [Rule("A", "f", (Child("A", POP, "f"),)), Rule("A", None, (Child("A", COPY),))]
    with pytest.raises(GrammarError):
        Fixpoint(rules, "A", 3, Budget())
    # a guarded rule may only copy, so a guarded push is refused too
    rules = [Rule("A", "f", (Child("A", PUSH, "f"),)), Rule("A", None, (Child("A", PUSH, "f"),))]
    with pytest.raises(GrammarError):
        Fixpoint(rules, "A", 3, Budget())


# Deep stacks that fit the length bound are no longer cut by max_stack: the
# bound now sees every level of the stack and is tested first.


def test_deep_languages_of_the_fixtures_are_not_exhausted(capsys):
    for fixture, maxlen, words in (
        ("example1.ixg", 60, ["a" * n + "b" * n + "c" * n for n in range(1, 21)]),
        ("example2.ixg", 128, ["d" * 2**k for k in range(1, 8)]),
    ):
        assert main(["enum", str(FIXTURES / fixture), "--max-len", str(maxlen)]) == 0
        out, err = capsys.readouterr()
        assert out.split() == words and err == ""


def test_a85_b85_c85_is_a_member_without_exhaustion():
    g = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text())
    r = indexed_membership(g, "a" * 85 + "b" * 85 + "c" * 85)
    assert r.member and not r.exhausted and r.reasons == ()


# A state deeper than max_nodes lies in no tree within max_nodes, since every
# push is a node on the path to it: excluding it is exact, not a budget event.


def test_a_small_node_cap_cuts_deep_stacks_without_exhaustion(capsys):
    g = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text())
    # the witness of a^4 b^4 c^4 has 29 nodes, that of a^5 b^5 c^5 36
    words = ["a" * n + "b" * n + "c" * n for n in range(1, 5)]
    r = indexed_language_upto(g, 120, Budget(max_nodes=30))
    assert ["".join(w) for w in r.words] == words
    assert not r.exhausted and r.reasons == ()
    assert main(["enum", str(FIXTURES / "example1.ixg"), "--max-len", "120", "--budget", "30"]) == 0
    out, err = capsys.readouterr()
    assert out.split() == words and err == ""

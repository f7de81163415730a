"""Exact work counts of the stack engine on the joins that cost it most.

SearchStats.steps counts every child combination of every join the fixpoint
runs.  Most combinations of a large join are over length or clash on their
demands; these counts pin that, however the engine gets past such
combinations, it finds the same words, stops at the same cap, counts the
same steps and adds or improves the same entries in the same order.

The grammars come from the benchmark's fuzz-equiv pool: sink#31 (one
nonterminal, U0 -> U0 U0 with two pops below the root) and its
sink_map_root image, normalize#58 and normalize#74; and normalize#49 of the
acceptance-7 corpus, before its rewrite.  Each is searched to length 4
under the fuzz budget.  Then the two indexed example fixtures.

Last, marked indexed grammars that push values no rule reads: mark#19 of
the acceptance-7 corpus and mark#21 of the fuzz-equiv pool, each before and
after mark_index_end.  Keyed by the whole stack, the first took 4,000
states and stopped at max_states, the second 17 and stopped at max_stack;
keyed by the readable stack, each takes a handful of states and completes.
"""

import itertools
from pathlib import Path

import pytest

from glab import Budget, indexed_language_upto, mark_index_end, parse_indexed_grammar, parse_unification_grammar
from glab.stackengine import Fixpoint

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FUZZ_CAPS = dict(max_nodes=512, max_stack=16, max_states=4000, max_demand=8)

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

SINK31_IMAGE = """\
nonterminals U0 U0_0 U0_p U0_e
terminals a
attributes next idx
values v0 v1 $
start U0_0
rule U0 -> U0 { up = dn } U0 { up = dn }
rule U0 -> U0 { up next = dn ; up idx = v1 }
rule U0 -> U0 { up next = dn ; up idx = v0 }
rule U0_0 -> U0_p { dn next = up ; dn idx = $ }
rule U0_p -> U0 { up = dn } U0_e { up = dn }
rule U0_p -> U0_p { dn next = up ; dn idx = v0 }
rule U0_p -> U0_p { dn next = up ; dn idx = v1 }
lex U0 -> a { }
lex U0_e -> _ { }
"""

NORMALIZE58 = """\
nonterminals U0 U1
terminals a b
attributes next idx
values v0 v1
start U0
rule U1 -> U1 { up = dn }
rule U0 -> U0 { up = dn }
rule U0 -> U0 { dn next = up ; dn idx = v1 } U0 { up next = dn ; up idx = v0 }
rule U1 -> U0 { up next = dn ; up idx = v0 } U0 { up = dn } U1 { dn next = up ; dn idx = v0 }
rule U0 -> U1 { up = dn } U1 { up next = dn ; up idx = v1 }
lex U0 -> _ { }
lex U1 -> b { }
"""

NORMALIZE74 = """\
nonterminals U0 U1 U2
terminals a
attributes next idx
values v0 v1
start U0
rule U2 -> U0 { dn next = up ; dn idx = v0 } U0 { dn next = up ; dn idx = v0 } U0 { up = dn }
rule U0 -> U1 { up = dn } U2 { up next = dn ; up idx = v1 }
rule U2 -> U1 { up next = dn ; up idx = v0 }
rule U1 -> U2 { up next = dn ; up idx = v0 } U1 { up = dn } U2 { up = dn }
rule U1 -> U1 { up next = dn ; up idx = v1 }
lex U1 -> _ { }
"""


NORMALIZE49 = """\
nonterminals U0 U1
terminals a b
attributes next idx
values v0
start U0
rule U1 -> U1 { up next = dn ; up idx = v0 }
rule U1 -> U1 { up = dn } U0 { dn next = up ; dn idx = v0 } U1 { up next = dn ; up idx = v0 }
rule U1 -> U1 { dn next = up ; dn idx = v0 } U1 { up = dn }
rule U0 -> U1 { dn next = up ; dn idx = v0 } U1 { dn next = up ; dn idx = v0 }
rule U1 -> U0 { up next = dn ; up idx = v0 }
lex U0 -> b { }
lex U1 -> a { }
"""


ALL_AB = tuple("".join(w) for n in range(1, 5) for w in itertools.product("ab", repeat=n))


def _run(g, maxlen: int, budget: Budget) -> Fixpoint:
    return Fixpoint(g.stack_rules, g.start, maxlen, budget).run()


def _counts(fp: Fixpoint) -> tuple:
    s = fp.stats
    return (s.trees, s.steps, s.states, s.improved, s.exhausted, tuple(s.reasons))


def _words(fp: Fixpoint) -> tuple[str, ...]:
    return tuple("".join(w) for w in fp.language().words)


@pytest.mark.parametrize(
    "text, words, counts",
    [
        (SINK31, ("a", "aa", "aaa", "aaaa"), (0, 31, 1, 5, False, ())),
        (SINK31_IMAGE, ("a", "aa", "aaa", "aaaa"), (0, 74397, 4000, 20906, True, ("max_states",))),
        (NORMALIZE58, ("", "bb", "bbbb"), (0, 1274, 66, 212, True, ("max_stack",))),
        (NORMALIZE74, ("",), (0, 4, 3, 3, False, ())),
        # every word up to length 4 but a
        (NORMALIZE49, tuple(w for w in ALL_AB if w != "a"), (0, 787887, 34, 2036, True, ("max_stack",))),
    ],
    ids=["sink31", "sink31-image", "normalize58", "normalize74", "normalize49"],
)
def test_fuzz_pool_counts(text, words, counts):
    fp = _run(parse_unification_grammar(text), 4, Budget(**FUZZ_CAPS))
    assert _words(fp) == words
    assert _counts(fp) == counts


@pytest.mark.parametrize(
    "fixture, maxlen, budget, words, counts",
    [
        (
            "example1.ixg",
            21,
            Budget(),
            tuple("a" * n + "b" * n + "c" * n for n in range(1, 8)),
            (0, 53, 29, 56, False, ()),
        ),
        (
            "example1.ixg",
            21,
            Budget(max_steps=50),
            tuple("a" * n + "b" * n + "c" * n for n in range(1, 6)),
            (0, 51, 29, 53, True, ("max_steps",)),
        ),
        (
            "example2.ixg",
            64,
            Budget(max_steps=50),
            tuple("d" * 2**k for k in range(1, 7)),
            (0, 44, 20, 45, False, ()),
        ),
    ],
    ids=["example1-21", "example1-21-steps50", "example2-64-steps50"],
)
def test_fixture_counts(fixture, maxlen, budget, words, counts):
    fp = _run(parse_indexed_grammar((FIXTURES / fixture).read_text()), maxlen, budget)
    assert _words(fp) == words
    assert _counts(fp) == counts


# (max_steps, steps, states, improved, reasons, root entries) with the cap at
# every Fibonacci number below the steps of the whole search, so that it
# falls at many points of its growing joins: sink#31 needs 31 steps, and
# normalize#49 787,887 before it trips max_stack
_SWEEP_SINK31 = [
    (1, 2, 1, 2, ("max_steps",), 2),
    (2, 3, 1, 2, ("max_steps",), 2),
    (3, 4, 1, 2, ("max_steps",), 2),
    (5, 6, 1, 2, ("max_steps",), 2),
    (8, 9, 1, 4, ("max_steps",), 4),
    (13, 14, 1, 5, ("max_steps",), 4),
    (21, 22, 1, 5, ("max_steps",), 4),
]
_SWEEP_NORMALIZE49 = [
    (1, 2, 4, 3, ("max_steps",), 1),
    (2, 3, 4, 5, ("max_steps",), 1),
    (3, 4, 4, 6, ("max_steps",), 1),
    (5, 6, 7, 9, ("max_steps",), 2),
    (8, 9, 8, 12, ("max_steps",), 5),
    (13, 14, 8, 13, ("max_steps",), 5),
    (21, 22, 9, 22, ("max_steps",), 5),
    (34, 35, 10, 37, ("max_steps",), 5),
    (55, 56, 10, 48, ("max_steps",), 5),
    (89, 90, 10, 63, ("max_steps",), 5),
    (144, 145, 10, 78, ("max_steps",), 5),
    (233, 234, 10, 83, ("max_steps",), 5),
    (377, 378, 10, 115, ("max_steps",), 5),
    (610, 611, 10, 158, ("max_steps",), 38),
    (987, 988, 10, 180, ("max_steps",), 38),
    (1597, 1598, 10, 182, ("max_steps",), 38),
    (2584, 2585, 10, 212, ("max_steps",), 38),
    (4181, 4182, 12, 262, ("max_steps",), 38),
    (6765, 6766, 12, 340, ("max_steps",), 38),
    (10946, 10947, 12, 340, ("max_steps",), 38),
    (17711, 17712, 12, 340, ("max_steps",), 38),
    (28657, 28658, 12, 340, ("max_steps",), 38),
    (46368, 46369, 12, 340, ("max_steps",), 38),
    (75025, 75026, 12, 340, ("max_steps",), 38),
    (121393, 121394, 14, 554, ("max_steps",), 40),
    (196418, 196419, 14, 610, ("max_steps",), 40),
    (317811, 317812, 16, 738, ("max_steps",), 40),
    (514229, 514230, 26, 1299, ("max_steps",), 40),
]


def _sweep(text: str, rows: list) -> list:
    g = parse_unification_grammar(text)
    got = []
    for max_steps, *_ in rows:
        fp = _run(g, 4, Budget(**FUZZ_CAPS, max_steps=max_steps))
        s = fp.stats
        assert s.exhausted
        got.append((max_steps, s.steps, s.states, s.improved, tuple(s.reasons), len(fp.entries[fp.root])))
    return got


def test_max_steps_sweep_on_sink31():
    assert _sweep(SINK31, _SWEEP_SINK31) == _SWEEP_SINK31


def test_max_steps_sweep_on_normalize49():
    assert _sweep(NORMALIZE49, _SWEEP_NORMALIZE49) == _SWEEP_NORMALIZE49


MARK19 = """\
nonterminals N0 N0_0
terminals a b
indices i0 i1 $
start N0_0
N0 -> N0 ^i1
N0 -> N0 ^i1
N0 -> N0 N0
N0 -> b
N0 -> N0 ^i0
N0 -> _
N0_0 -> N0 ^$
"""

FUZZ21 = """\
nonterminals N0 N0_0
terminals a
indices i0 i1 $
start N0_0
N0 -> N0 ^i0
N0 -> N0 ^i0
N0 -> a
N0 -> _
N0 -> _
N0 -> N0 ^i0
N0 -> N0 N0
N0_0 -> N0 ^$
"""


@pytest.mark.parametrize(
    "text, rewrite, words, counts",
    [
        (MARK19, False, ("", "b", "bb", "bbb", "bbbb"), (0, 197, 4, 32, False, ())),
        (MARK19, True, ("", "b", "bb", "bbb", "bbbb"), (0, 203, 5, 38, False, ())),
        (FUZZ21, False, ("", "a", "aa", "aaa", "aaaa"), (0, 110, 3, 20, False, ())),
        (FUZZ21, True, ("", "a", "aa", "aaa", "aaaa"), (0, 116, 4, 26, False, ())),
    ],
    ids=["mark19-before", "mark19-after", "fuzz21-mark-left", "fuzz21-mark-right"],
)
def test_unread_pushes_counts(text, rewrite, words, counts):
    g = parse_indexed_grammar(text)
    if rewrite:
        g = mark_index_end(g)
    res = indexed_language_upto(g, 4, Budget(**FUZZ_CAPS))
    assert tuple("".join(w) for w in res.words) == words
    s = res.stats
    assert (s.trees, s.steps, s.states, s.improved, s.exhausted, tuple(s.reasons)) == counts
    assert (res.exhausted, res.reasons) == counts[4:]

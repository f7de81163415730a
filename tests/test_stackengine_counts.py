"""Exact work counts of the stack engine on the joins that cost it most.

SearchStats.steps counts every child combination of every join the fixpoint
runs.  Most combinations of a large join are over length or clash on their
demands; these counts pin that, however the engine gets past such
combinations, it finds the same words, stops at the same cap, counts the
same steps and adds or improves the same entries in the same order.

The grammars come from the benchmark's fuzz-equiv pool: sink#31 (one
nonterminal, U0 -> U0 U0 with two pops below the root) and its
sink_map_root image, normalize#58 and normalize#74, each searched to length
4 under the fuzz budget; and the two indexed example fixtures.
"""

from pathlib import Path

import pytest

from glab import Budget, parse_indexed_grammar, parse_unification_grammar
from glab.stackengine import Fixpoint
from glab.unification import _stack_rules

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


def _run(g, maxlen: int, budget: Budget) -> Fixpoint:
    rules = g.stack_rules if hasattr(g, "stack_rules") else _stack_rules(g)
    return Fixpoint(rules, g.start, maxlen, budget).run()


def _counts(fp: Fixpoint) -> tuple:
    s = fp.stats
    return (s.trees, s.steps, s.states, s.improved, s.exhausted, tuple(s.reasons))


def _words(fp: Fixpoint) -> tuple[str, ...]:
    return tuple("".join(w) for w in fp.language().words)


@pytest.mark.parametrize(
    "text, words, counts",
    [
        (SINK31, ("a", "aa", "aaa", "aaaa"), (0, 2000001, 1, 4307, True, ("max_demand", "max_steps"))),
        (SINK31_IMAGE, ("a", "aa", "aaa", "aaaa"), (0, 74397, 4000, 20906, True, ("max_states",))),
        (NORMALIZE58, ("", "bb", "bbbb"), (0, 2000001, 65, 1163, True, ("max_demand", "max_steps"))),
        (NORMALIZE74, ("",), (0, 619370, 3, 339, True, ("max_demand",))),
    ],
    ids=["sink31", "sink31-image", "normalize58", "normalize74"],
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


# (max_steps, steps, improved, reasons, root entries) on sink#31's grammar,
# with the cap at every Fibonacci number up to 317811, so that it falls at
# many points of its growing joins
_SWEEP = [
    (1, 2, 2, ("max_steps",), 2),
    (2, 3, 3, ("max_steps",), 3),
    (3, 4, 4, ("max_steps",), 4),
    (5, 6, 6, ("max_steps",), 6),
    (8, 9, 9, ("max_steps",), 9),
    (13, 14, 14, ("max_steps",), 14),
    (21, 22, 17, ("max_steps",), 16),
    (34, 35, 18, ("max_steps",), 16),
    (55, 56, 19, ("max_steps",), 16),
    (89, 90, 35, ("max_steps",), 32),
    (144, 145, 53, ("max_steps",), 48),
    (233, 234, 57, ("max_steps",), 48),
    (377, 378, 70, ("max_steps",), 48),
    (610, 611, 72, ("max_steps",), 48),
    (987, 988, 81, ("max_steps",), 48),
    (1597, 1598, 87, ("max_steps",), 48),
    (2584, 2585, 188, ("max_steps",), 132),
    (4181, 4182, 196, ("max_steps",), 132),
    (6765, 6766, 212, ("max_steps",), 132),
    (10946, 10947, 260, ("max_steps",), 132),
    (17711, 17712, 333, ("max_steps",), 132),
    (28657, 28658, 629, ("max_steps",), 352),
    (46368, 46369, 663, ("max_steps",), 352),
    (75025, 75026, 782, ("max_steps",), 352),
    (121393, 121394, 978, ("max_steps",), 352),
    (196418, 196419, 1723, ("max_demand", "max_steps"), 884),
    (317811, 317812, 1814, ("max_demand", "max_steps"), 884),
]


def test_max_steps_sweep_on_sink31():
    g = parse_unification_grammar(SINK31)
    got = []
    for max_steps, *_ in _SWEEP:
        fp = _run(g, 4, Budget(**FUZZ_CAPS, max_steps=max_steps))
        s = fp.stats
        assert s.states == 1 and s.exhausted
        got.append((max_steps, s.steps, s.improved, tuple(s.reasons), len(fp.entries[fp.root])))
    assert got == _SWEEP

"""Exact output of the reference c-structure engine.

enumerate_cstructures streams every c-structure of a word in ascending node
count and rule-sequence order, and sug_membership returns the first one that
has a model.  These pins hold the streams (count, order and content), the
trees counter, and every field of the membership results, on grammars that
cover the engine's corners: a plain phrase grammar, a unit cycle under a
node cap, an ambiguous binary grammar whose non-members refute every
bracketing, and an empty-string lexicon entry beside a unit cycle.  However
the engine gets to its candidates, it must find these same ones.

Work counters other than trees are not pinned: how many production tries a
search needs is the engine's business, and only a cap it hits shows.
"""

import hashlib
from pathlib import Path

import pytest

from glab import Budget, SearchStats, enumerate_cstructures, format_schema, parse_unification_grammar, sug_membership

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# S -> X, X -> X X, every daughter sharing agr: a string of n words has
# Catalan(n-1) bracketings, times two for every x1; x0 and x1 never agree
AMBIGUOUS = """\
nonterminals S X
terminals x0 x1 x2
attributes agr num
values sg pl du
start S
rule S -> X { up agr = dn agr }
rule X -> X { up agr = dn agr } X { up agr = dn agr }
lex X -> x0 { up agr num = sg }
lex X -> x1 { up agr num = pl }
lex X -> x1 { up agr num = du }
lex X -> x2 { }
"""

# E derives the empty string, so A -> A E grows without consuming input,
# and B -> B is a unit cycle; a carries u and b carries v, so no string
# that holds an a is a member
EPSILON_CYCLE = """\
nonterminals S A B E
terminals a b
attributes f g
values u v
start S
rule S -> A { up f = dn f } B { up f = dn f }
rule A -> A { up = dn } E { }
rule A -> B { up g = dn }
rule B -> B { up = dn }
lex A -> a { up f = u }
lex B -> b { up f = v }
lex E -> _ { }
"""


def _grammar(name: str):
    if name in ("agreement.ugr", "example2_u.ugr"):
        return parse_unification_grammar((FIXTURES / name).read_text())
    return parse_unification_grammar({"ambiguous": AMBIGUOUS, "epsilon-cycle": EPSILON_CYCLE}[name])


def _text(cs) -> str:
    """One line per node in address order: address, category, schema."""
    rows = []
    for a in cs.domain.sorted_addresses:
        schema = "" if a.is_root else " " + format_schema(cs.eqsets[a])
        rows.append(f"{a} {cs.categories[a] or '_'}{schema}")
    return " | ".join(rows)


def _model_text(m) -> str:
    delta = sorted((q, sorted(edges.items())) for q, edges in m.delta.items())
    names = sorted((str(a), q) for a, q in m.names.items())
    return repr((m.nodes, delta, sorted(m.alpha.items()), names))


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _stream(g, word, budget) -> tuple:
    stats = SearchStats()
    texts = [_text(cs) for cs in enumerate_cstructures(g, word, budget, stats)]
    return (len(texts), _digest(texts), stats.trees, stats.exhausted, tuple(stats.reasons))


def _membership(g, word, budget) -> tuple:
    r = sug_membership(g, word, budget)
    witness = _text(r.witness) if r.witness is not None else None
    model = _digest([_model_text(r.model)]) if r.model is not None else None
    return (r.member, witness, model, r.exhausted, r.reasons)


SMALL = Budget(max_nodes=12)

# (grammar, word, budget, stream, membership): stream is (count, digest of
# the structures, trees, exhausted, reasons), membership is (member,
# witness, digest of the model, exhausted, reasons)
CASES = [
    (
        "agreement.ugr",
        "this dog",
        Budget(),
        (1, "c0ff8bd5e00424ed", 1, False, ()),
        (
            True,
            "eps S | 1 D { up = dn } | 11 this { up num = sg } | 2 N { up = dn } | 21 dog { up num = sg }",
            "efcf21538d2317f6", False, (),
        ),
    ),
    (
        "agreement.ugr",
        "these dog",
        Budget(),
        (1, "92d790193414a08d", 1, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "agreement.ugr",
        "dog",
        Budget(),
        (0, "e3b0c44298fc1c14", 0, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "agreement.ugr",
        "these dogs",
        Budget(max_trees=1),
        (1, "f874208d078541a3", 1, False, ()),
        (
            True,
            "eps S | 1 D { up = dn } | 11 these { up num = pl } | 2 N { up = dn } | 21 dogs { up num = pl }",
            "27bb99df170b8bca", False, (),
        ),
    ),
    (
        "example2_u.ugr",
        "d",
        Budget(max_nodes=60),
        (0, "e3b0c44298fc1c14", 0, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "example2_u.ugr",
        "dd",
        Budget(max_nodes=60),
        (52, "c0ddd55125e311d8", 52, False, ()),
        (
            True,
            "eps S | 1 A { dn next = up ; dn idx = $ } | 11 B { dn next = up ; dn idx = f } | 111 C { up = dn } | 1111 D { up next = dn ; up idx = f } | 11111 d { } | 112 C { up = dn } | 1121 D { up next = dn ; up idx = f } | 11211 d { }",
            "197da0e409c134f2", False, (),
        ),
    ),
    (
        "example2_u.ugr",
        "ddd",
        Budget(max_nodes=60),
        (94, "0ba45bd58e896c99", 94, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "example2_u.ugr",
        "dddd",
        Budget(max_nodes=60),
        (210, "18aaa7f6ac8b49ce", 210, False, ()),
        (
            True,
            "eps S | 1 A { dn next = up ; dn idx = $ } | 11 B { dn next = up ; dn idx = f } | 111 B { dn next = up ; dn idx = g } | 1111 C { up = dn } | 11111 C' { up next = dn ; up idx = g } | 111111 C { up = dn } | 1111111 D { up next = dn ; up idx = f } | 11111111 d { } | 111112 C { up = dn } | 1111121 D { up next = dn ; up idx = f } | 11111211 d { } | 1112 C { up = dn } | 11121 C' { up next = dn ; up idx = g } | 111211 C { up = dn } | 1112111 D { up next = dn ; up idx = f } | 11121111 d { } | 111212 C { up = dn } | 1112121 D { up next = dn ; up idx = f } | 11121211 d { }",
            "bfaa42ed6a560dd6", False, (),
        ),
    ),
    (
        "ambiguous",
        "x1 x2 x1 x2 x2",
        Budget(),
        (56, "57ccb25ae6de8d9c", 56, False, ()),
        (
            True,
            "eps S | 1 X { up agr = dn agr } | 11 X { up agr = dn agr } | 111 X { up agr = dn agr } | 1111 X { up agr = dn agr } | 11111 X { up agr = dn agr } | 111111 x1 { up agr num = pl } | 11112 X { up agr = dn agr } | 111121 x2 { } | 1112 X { up agr = dn agr } | 11121 x1 { up agr num = pl } | 112 X { up agr = dn agr } | 1121 x2 { } | 12 X { up agr = dn agr } | 121 x2 { }",
            "a75fe830ae1972de", False, (),
        ),
    ),
    (
        "ambiguous",
        "x0 x2 x2 x1 x2",
        Budget(),
        (28, "2da06fd78d09a0d6", 28, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "ambiguous",
        "x2 x1 x2 x2 x1 x2",
        Budget(),
        (168, "0b8254c5818d01b9", 168, False, ()),
        (
            True,
            "eps S | 1 X { up agr = dn agr } | 11 X { up agr = dn agr } | 111 X { up agr = dn agr } | 1111 X { up agr = dn agr } | 11111 X { up agr = dn agr } | 111111 X { up agr = dn agr } | 1111111 x2 { } | 111112 X { up agr = dn agr } | 1111121 x1 { up agr num = pl } | 11112 X { up agr = dn agr } | 111121 x2 { } | 1112 X { up agr = dn agr } | 11121 x2 { } | 112 X { up agr = dn agr } | 1121 x1 { up agr num = pl } | 12 X { up agr = dn agr } | 121 x2 { }",
            "567eb0438ac670ea", False, (),
        ),
    ),
    (
        "ambiguous",
        "x0 x2 x2 x2 x2 x1",
        Budget(),
        (84, "0adc0d551cc2eed7", 84, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "ambiguous",
        "x0 x2 x2 x2 x2 x1",
        Budget(max_trees=50),
        (50, "4fe832445bcd2ae8", 50, True, ("max_trees",)),
        # the membership reads one root entry per rooted structure, and no
        # bracketing has a consistent one, so it reads none and completes
        (False, None, None, False, ()),
    ),
    (
        "epsilon-cycle",
        "",
        SMALL,
        (0, "e3b0c44298fc1c14", 0, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "epsilon-cycle",
        "ab",
        SMALL,
        (15, "612f000cc5ad3062", 15, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "epsilon-cycle",
        "b",
        SMALL,
        (0, "e3b0c44298fc1c14", 0, False, ()),
        (False, None, None, False, ()),
    ),
    (
        "epsilon-cycle",
        "bb",
        SMALL,
        (39, "1891c099720ce59c", 39, False, ()),
        (
            True,
            "eps S | 1 A { up f = dn f } | 11 B { up g = dn } | 111 b { up f = v } | 2 B { up f = dn f } | 21 b { up f = v }",
            "2c244a6c095842c9", False, (),
        ),
    ),
    (
        "epsilon-cycle",
        "ba",
        SMALL,
        (0, "e3b0c44298fc1c14", 0, False, ()),
        (False, None, None, False, ()),
    ),
]


@pytest.mark.parametrize(
    "name, word, budget, stream, membership", CASES, ids=[f"{c[0]}:{c[1] or '_'}:{k}" for k, c in enumerate(CASES)]
)
def test_reference_engine_output(name, word, budget, stream, membership):
    g = _grammar(name)
    assert _stream(g, word, budget) == stream
    assert _membership(g, word, budget) == membership

"""The stack engine codes every terminal and index value as one character.

Inside a search, yields, stacks and demands are strings over those codes,
and only the edges decode.  These grammars would break a coding that joined
the names themselves: a terminal and an index value that share the
multi-character name ab, the values v1 and v10, whose names run together,
and a word that holds a terminal no rule emits.  Languages and minimal
witnesses are checked against whole-tree enumeration (indexed) and the
c-structure stream of the reference engine (stack form, where a terminal
and a value may share a name).
"""

from glab import (
    Budget,
    enumerate_derivations,
    indexed_language_upto,
    indexed_membership,
    parse_indexed_grammar,
    parse_unification_grammar,
    sug_membership,
    ugi_language_upto,
    ugi_membership,
)
from glab.indexed import terminal_symbols
from glab.stackengine import Fixpoint

from helpers import all_words, indexed_language_by_trees

# c^k ab c^k ab: the value ab marks the bottom of the stack, the terminal ab
# is emitted where B pops it
SHARED_NAME = """\
nonterminals S A B C D
terminals ab c
attributes next idx
values ab c
start S
rule S -> A { dn next = up ; dn idx = ab }
rule A -> A { dn next = up ; dn idx = c }
rule A -> B { up = dn } B { up = dn }
rule B -> C { up = dn } B { up next = dn ; up idx = c }
rule B -> D { up next = dn ; up idx = ab }
lex C -> c { }
lex D -> ab { }
"""

# U reads its stack from the top, a for each v1 and b for each v10, down to
# the end marker e
V1_V10 = """\
nonterminals S T U
terminals a b
indices e v1 v10
start S
S -> T ^e
T -> T ^v10
T -> T ^v1
T -> U
U ^v10 -> b U
U ^v1 -> a U
U ^e -> a
"""

# z is a terminal of the grammar that no rule emits
UNUSED_TERMINAL = """\
nonterminals S A
terminals a z
indices f
start S
S -> A ^f
A ^f -> a
"""


def assert_indexed_agrees_with_trees(g, maxlen: int, max_nodes: int) -> set:
    """The language and every minimal witness up to maxlen, against whole
    derivation trees; return the language."""
    budget = Budget(max_nodes=max_nodes)
    res = indexed_language_upto(g, maxlen, budget)
    assert not res.exhausted
    words = indexed_language_by_trees(g, maxlen, budget)
    assert set(res.words) == words
    first_tree = {}
    for t in enumerate_derivations(g, budget):
        # enumeration order is (node count, rule sequence), so the first
        # tree of a yield is its minimal witness
        first_tree.setdefault(terminal_symbols(t), t)
    for w in all_words(g.symbols.terminals, maxlen):
        m = indexed_membership(g, w, budget)
        assert not m.exhausted and m.member == (w in words), w
        assert m.witness == first_tree.get(w), w
    return words


def test_a_terminal_and_a_value_may_share_a_multi_character_name():
    g = parse_unification_grammar(SHARED_NAME)
    words = {("ab", "ab"), ("c", "ab", "c", "ab"), ("c", "c", "ab", "c", "c", "ab")}
    res = ugi_language_upto(g, 6)
    assert not res.exhausted and set(res.words) == words
    budget = Budget(max_nodes=16)
    for w in all_words(g.terminals, 4):
        want = sug_membership(g, w, budget)
        got = ugi_membership(g, w, budget)
        assert not want.exhausted and not got.exhausted
        assert got.member == want.member == (w in words), w
        assert got.witness == want.witness, w
    # words of multi-character terminals are split at whitespace
    assert ugi_membership(g, "c ab c ab").member and not ugi_membership(g, "c ab ab").member


def test_values_whose_names_run_together_stay_apart():
    g = parse_indexed_grammar(V1_V10)
    words = assert_indexed_agrees_with_trees(g, 4, 13)
    assert words == {w + ("a",) for w in all_words(("a", "b"), 3)}
    # the witness's stacks decode to the declared values
    r = indexed_membership(g, "baa")
    stacks = [label.stack for label in r.witness.labels.values() if hasattr(label, "stack")]
    assert ("v10", "v1", "e") in stacks and ("v1", "e") in stacks


def test_a_word_with_a_terminal_no_rule_emits_is_no_member():
    g = parse_indexed_grammar(UNUSED_TERMINAL)
    assert assert_indexed_agrees_with_trees(g, 3, 10) == {("a",)}
    for w in ("z", "az", "za", "zz"):
        r = indexed_membership(g, w)
        assert not r.member and not r.exhausted and r.witness is None, w
    # a language run has no code for z, and finds no witness of a word with it
    fp = Fixpoint(g.stack_rules, g.start, 2, Budget()).run()
    assert fp.witness(("a", "z")) is None and fp.witness(("a",)) is not None

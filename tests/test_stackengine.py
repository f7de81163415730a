"""The shared stack engine against the independent oracles.

The engine reruns a rule for a state whenever a child state gains or
improves an entry, and then joins only the child entries that changed.  The
grammars below are built so that this matters: a self-feeding ambiguous
rule, a rule whose second child gets its first entry several rounds late,
and child pops that reach below the root and leave demands to merge.  Their
languages and minimal witnesses are checked against whole-tree enumeration
(indexed) and the c-structure sweep (stack form).
"""

import os
import subprocess
import sys
from pathlib import Path

import glab
from glab import (
    Budget,
    Daughter,
    IndexedGrammar,
    LexRule,
    Plain,
    Pop,
    Push,
    SimpleUnificationGrammar,
    SymbolTable,
    UProduction,
    copy_schema,
    enumerate_derivations,
    indexed_language_upto,
    indexed_membership,
    parse_indexed_grammar,
    parse_unification_grammar,
    pop_schema,
    push_schema,
    sug_language_upto,
    sug_membership,
    ugi_language_upto,
    ugi_membership,
    validate_cstructure,
    validate_derivation_tree,
)
from glab.indexed import terminal_symbols
from glab.stackengine import COPY, POP, PUSH, Child, Fixpoint, Rule

from helpers import all_words

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_indexed_agrees_with_trees(g: IndexedGrammar, maxlen: int, max_nodes: int) -> set:
    first_tree = {}
    for t in enumerate_derivations(g, Budget(max_nodes=max_nodes)):
        first_tree.setdefault(terminal_symbols(t), t)
    res = indexed_language_upto(g, maxlen)
    assert not res.exhausted
    assert set(res.words) == {w for w in first_tree if len(w) <= maxlen}
    for w in all_words(g.symbols.terminals, maxlen):
        m = indexed_membership(g, w)
        # enumeration order is (node count, rule sequence), so the first
        # tree of a yield is its minimal witness
        assert m.witness == first_tree.get(w), w
        assert m.member == (w in first_tree) and not m.exhausted
    return set(res.words)


def test_self_feeding_ambiguous_rule_agrees_with_tree_enumeration():
    # T -> T T copies the f pushed above it to both children, so every
    # split of a word is a derivation and T feeds its own two positions
    sym = SymbolTable(("S", "T"), ("a", "b"), ("f",))
    rules = (
        Push("S", "T", "f"),
        Plain("T", ("T", "T")),
        Pop("T", "f", ("a",)),
        Plain("T", ("b", "b")),
    )
    words = assert_indexed_agrees_with_trees(IndexedGrammar(sym, rules, "S"), 4, 13)
    assert ("a", "a", "a", "a") in words and ("a", "b", "b", "a") in words
    assert ("a", "b") not in words


def test_late_second_child_agrees_with_tree_enumeration():
    # A has entries from the start and keeps improving on them, while B
    # reaches its first word only through a push, a push, a pop and a pop;
    # until then every run of S -> A B stops at B
    sym = SymbolTable(("S", "A", "B", "C", "D"), ("a", "b"), ("f", "g"))
    rules = (
        Plain("S", ("A", "B")),
        Plain("A", ("a",)),
        Plain("A", ("A", "a")),
        Push("B", "C", "f"),
        Push("C", "D", "g"),
        Pop("D", "g", ("C",)),
        Pop("C", "f", ("b",)),
        Plain("B", ("b", "B")),
    )
    words = assert_indexed_agrees_with_trees(IndexedGrammar(sym, rules, "S"), 5, 16)
    assert words == {("a",) * i + ("b",) * j for i in range(1, 5) for j in range(1, 6 - i)}


def test_demands_below_the_root_agree_with_the_reference_sweep():
    # every pop at the root reaches below it: a needs f there and b needs g,
    # so S -> S S merges the demands of its children or drops the pair
    cp = copy_schema()
    g = SimpleUnificationGrammar(
        ("S", "A", "B"),
        ("a", "b"),
        ("next", "idx"),
        ("f", "g"),
        (
            UProduction("S", (Daughter("S", cp), Daughter("S", cp))),
            UProduction("S", (Daughter("A", pop_schema("next", "idx", "f")),)),
            UProduction("S", (Daughter("B", pop_schema("next", "idx", "g")),)),
            UProduction("A", (Daughter("A", pop_schema("next", "idx", "f")),)),
            UProduction("B", (Daughter("S", push_schema("next", "idx", "g")),)),
        ),
        (LexRule("A", "a", frozenset()), LexRule("B", "b", frozenset())),
        "S",
    )
    budget = Budget(max_nodes=12)
    res = ugi_language_upto(g, 3, budget)
    assert not res.exhausted
    reference = set()
    for w in all_words(g.terminals, 3):
        ref = sug_membership(g, w, budget)
        m = ugi_membership(g, w, budget)
        assert not ref.exhausted and not m.exhausted
        assert m.member == ref.member and m.witness == ref.witness, w
        if ref.member:
            reference.add(w)
    assert set(res.words) == reference
    assert ("a", "a", "a") in reference and ("a", "b") not in reference


# The grammar normalize#49 of the acceptance-7 corpus, before the rewrite:
# a ternary rule and two binary ones that push, pop below the root and copy,
# so that its joins are large and most of their combinations over length.
NORMALIZE49 = [
    Rule("U1", None, (Child("U1", POP, "v0"),)),
    Rule("U1", None, (Child("U1", COPY), Child("U0", PUSH, "v0"), Child("U1", POP, "v0"))),
    Rule("U1", None, (Child("U1", PUSH, "v0"), Child("U1", COPY))),
    Rule("U0", None, (Child("U1", PUSH, "v0"), Child("U1", PUSH, "v0"))),
    Rule("U1", None, (Child("U0", POP, "v0"),)),
    Rule("U0", None, (Child("b"),)),
    Rule("U1", None, (Child("a"),)),
]

# A search cut short by max_steps on it.  Where the cap falls depends on the
# order of the jobs, so its root entries would change with the hash seed if
# jobs were queued in set order.
_CAPPED_SEARCH = f"""
from glab import Budget
from glab.stackengine import Child, Fixpoint, Rule

rules = {NORMALIZE49!r}
budget = Budget(max_nodes=512, max_stack=16, max_states=4000, max_demand=8, max_steps=1000)
fp = Fixpoint(rules, "U0", 4, budget).run()
assert "max_steps" in fp.stats.reasons
for key, entry in sorted(fp.entries[fp.root].items()):
    print(key, entry[:2])
"""


def test_capped_search_does_not_depend_on_the_hash_seed():
    src = str(Path(glab.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_SEARCH], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# Right-branching grammars for a^n: the witness of a^1200 is 1200 levels
# deep, past the default recursion limit of 1000, so every walk over it must
# keep its own stack.


def test_indexed_witness_of_a_deep_word():
    g = IndexedGrammar(SymbolTable(("S",), ("a",), ()), (Plain("S", ("a", "S")), Plain("S", ("a",))), "S")
    r = indexed_membership(g, "a" * 1200)
    assert r.member and not r.exhausted
    assert len(r.witness.domain) == 2400 and r.witness.domain.height == 1200
    assert terminal_symbols(r.witness) == ("a",) * 1200
    assert validate_derivation_tree(g, r.witness).ok


def test_stack_form_witness_of_a_deep_word():
    g = SimpleUnificationGrammar(
        ("S", "A"),
        ("a",),
        ("next", "idx"),
        (),
        (UProduction("S", (Daughter("A", copy_schema()), Daughter("S", copy_schema()))),),
        (LexRule("A", "a", frozenset()), LexRule("S", "a", frozenset())),
        "S",
    )
    r = ugi_membership(g, "a" * 1200)
    assert r.member and not r.exhausted
    # 1200 S nodes, 1199 A nodes above the first 1199 leaves, 1200 leaves
    assert len(r.witness.domain) == 3599 and r.witness.domain.height == 1200
    assert r.witness.terminal_symbols == ("a",) * 1200
    assert validate_cstructure(g, r.witness).ok


AMBIGUOUS_X = (
    "nonterminals S X\nterminals x0 x1 x2\nattributes agr num\nvalues sg pl du\nstart S\n"
    "rule S -> X { up agr = dn agr }\n"
    "rule X -> X { up agr = dn agr } X { up agr = dn agr }\n"
    "lex X -> x0 { up agr num = sg }\nlex X -> x1 { up agr num = pl }\nlex X -> x2 { }\n"
)


def test_membership_results_name_the_caps():
    ex1 = parse_indexed_grammar((FIXTURES / "example1.ixg").read_text())
    # the witness of a^30 b^30 c^30 needs a stack of depth 30
    r = indexed_membership(ex1, "a" * 30 + "b" * 30 + "c" * 30, Budget(max_stack=8))
    assert not r.member and r.exhausted and r.reasons == ("max_stack",)
    assert indexed_membership(ex1, "aabbcc").reasons == ()
    ex2u = parse_unification_grammar((FIXTURES / "example2_u.ugr").read_text())
    r = ugi_membership(ex2u, "dddd", Budget(max_steps=3))
    assert not r.member and r.exhausted and r.reasons == ("max_steps",)
    # S -> X, X -> X X: a five-word member takes 16 production tries to
    # reach its first c-structure
    amb = parse_unification_grammar(AMBIGUOUS_X)
    r = sug_membership(amb, "x1 x2 x1 x2 x2", Budget(max_steps=3))
    assert not r.member and r.exhausted and r.reasons == ("max_steps",)
    agr = parse_unification_grammar((FIXTURES / "agreement.ugr").read_text())
    r = sug_membership(agr, "these dogs")
    assert r.member and r.reasons == ()


def test_a_language_sweep_names_the_capped_memberships():
    # not in stack form, so sug_language_upto sweeps memberships, and three
    # steps do not reach a c-structure of a two-word string
    r = sug_language_upto(parse_unification_grammar(AMBIGUOUS_X), 2, Budget(max_steps=3))
    assert r.exhausted and r.reasons == ("membership_budget",)

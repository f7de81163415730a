"""Indexed grammars: construction, tree validation, enumeration, languages.

The two inline example grammars have closed-form languages (a^n b^n c^n and
d^(2^n)), so expected word sets are computed from the formulas rather than
from the code under test.
"""

import itertools
import random

import pytest

from glab import (
    Budget,
    DerivationTree,
    GrammarError,
    IndexedGrammar,
    LeafLabel,
    NodeLabel,
    Plain,
    Pop,
    PreconditionError,
    Push,
    ROOT,
    SearchStats,
    SymbolTable,
    address,
    end_marker,
    enumerate_derivations,
    fresh_symbol,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    marked_index_end_check,
    reduced_form_check,
    tree_of,
    validate_derivation_tree,
)
from glab.indexed import terminal_string, terminal_symbols
from glab.stackengine import COPY, PUSH, Child, Rule

from helpers import FUZZ_BUDGET, indexed_language_by_trees, rand_reduced_marked_indexed, shallow_recursion


def lockstep_grammar() -> IndexedGrammar:
    # a^n b^n c^n via one shared counting stack
    sym = SymbolTable(("S", "S'", "A", "B", "C"), ("a", "b", "c"), ("f", "g"))
    rules = (
        Push("S", "S'", "f"),
        Push("S'", "S'", "g"),
        Plain("S'", ("A", "B", "C")),
        Pop("A", "g", ("a", "A")),
        Pop("B", "g", ("b", "B")),
        Pop("C", "g", ("c", "C")),
        Pop("A", "f", ("a",)),
        Pop("B", "f", ("b",)),
        Pop("C", "f", ("c",)),
    )
    return IndexedGrammar(sym, rules, "S")


def doubling_grammar() -> IndexedGrammar:
    # d^(2^n), n >= 1, in reduced form with a dedicated stack-end index
    sym = SymbolTable(("S", "A", "B", "C", "C'", "D"), ("d",), ("$", "f", "g"))
    rules = (
        Push("S", "A", "$"),
        Push("A", "B", "f"),
        Push("B", "B", "g"),
        Plain("B", ("C", "C")),
        Pop("C", "g", ("C'",)),
        Pop("C", "f", ("D",)),
        Plain("C'", ("C", "C")),
        Plain("D", ("d",)),
    )
    return IndexedGrammar(sym, rules, "S")


def lockstep_words(maxlen: int) -> set:
    return {tuple("a" * n + "b" * n + "c" * n) for n in range(1, maxlen // 3 + 1)}


def doubling_words(maxlen: int) -> set:
    out, n = set(), 1
    while 2**n <= maxlen:
        out.add(("d",) * 2**n)
        n += 1
    return out


def lockstep_tree():
    """The unique derivation of aabbcc in lockstep_grammar, by hand."""
    labels = {
        ROOT: NodeLabel("S"),
        address(1): NodeLabel("S'", ("f",)),
        address(1, 1): NodeLabel("S'", ("g", "f")),
        address(1, 1, 1): NodeLabel("A", ("g", "f")),
        address(1, 1, 2): NodeLabel("B", ("g", "f")),
        address(1, 1, 3): NodeLabel("C", ("g", "f")),
        address(1, 1, 1, 1): LeafLabel("a"),
        address(1, 1, 1, 2): NodeLabel("A", ("f",)),
        address(1, 1, 1, 2, 1): LeafLabel("a"),
        address(1, 1, 2, 1): LeafLabel("b"),
        address(1, 1, 2, 2): NodeLabel("B", ("f",)),
        address(1, 1, 2, 2, 1): LeafLabel("b"),
        address(1, 1, 3, 1): LeafLabel("c"),
        address(1, 1, 3, 2): NodeLabel("C", ("f",)),
        address(1, 1, 3, 2, 1): LeafLabel("c"),
    }
    return tree_of(labels)


# --------------------------------------------------------------------------
# Construction and rendering


def test_symbol_table_rejects_overlap():
    with pytest.raises(GrammarError):
        SymbolTable(("S", "a"), ("a",), ())


def test_symbol_table_rejects_duplicates():
    with pytest.raises(GrammarError):
        SymbolTable(("S", "S"), ("a",), ())


def test_grammar_rejects_undeclared_symbols():
    sym = SymbolTable(("S",), ("a",), ("f",))
    with pytest.raises(GrammarError):
        IndexedGrammar(sym, (Push("S", "Z", "f"),), "S")
    with pytest.raises(GrammarError):
        IndexedGrammar(sym, (Pop("S", "h", ("S",)),), "S")
    with pytest.raises(GrammarError):
        IndexedGrammar(sym, (Plain("S", ("z",)),), "S")
    with pytest.raises(GrammarError):
        IndexedGrammar(sym, (), "Z")


@pytest.mark.parametrize("bad", ["", " ", "a b"])
def test_symbol_table_rejects_empty_and_spaced_symbols(bad):
    with pytest.raises(GrammarError, match=r"^terminal symbol must be a non-empty token without whitespace: "):
        SymbolTable(("S",), ("a", bad), ())


def test_grammar_errors_name_the_rule_and_the_symbol():
    sym = SymbolTable(("S",), ("a",), ("f",))
    with pytest.raises(GrammarError, match=r"^rule 1: left-hand side 'a' is not a nonterminal$"):
        IndexedGrammar(sym, (Plain("S", ("a",)), Plain("a", ("S",))), "S")
    with pytest.raises(GrammarError, match=r"^rule 0: 'h' is not a declared index$"):
        IndexedGrammar(sym, (Push("S", "S", "h"),), "S")


def test_derivation_tree_shape_errors():
    domain = lockstep_tree().domain
    with pytest.raises(GrammarError, match=r"^labels must cover exactly the tree domain$"):
        DerivationTree(domain, {ROOT: NodeLabel("S")})
    with pytest.raises(GrammarError, match=r"^internal node eps must carry a nonterminal label$"):
        tree_of({ROOT: LeafLabel("a"), address(1): LeafLabel("a")})
    with pytest.raises(GrammarError, match=r"^leaf 1 must carry a terminal or empty label$"):
        tree_of({ROOT: NodeLabel("S"), address(1): NodeLabel("S")})


def test_production_rendering():
    assert str(Push("S", "S'", "f")) == "S -> S' ^f"
    assert str(Pop("A", "g", ("a", "A"))) == "A ^g -> a A"
    assert str(Pop("A", "f", ())) == "A ^f -> _"
    assert str(Plain("S'", ("A", "B", "C"))) == "S' -> A B C"
    assert str(Plain("D", ())) == "D -> _"


def test_word_round_trip():
    g = lockstep_grammar()
    assert g.parse_word("abc") == ("a", "b", "c")
    assert g.parse_word("") == ()
    assert g.render_word(("a", "b")) == "ab"
    with pytest.raises(GrammarError):
        g.parse_word("abz")


# --------------------------------------------------------------------------
# Tree validation


def test_hand_tree_is_licensed():
    g = lockstep_grammar()
    t = lockstep_tree()
    report = validate_derivation_tree(g, t)
    assert report.ok and not report.errors
    assert report.license[ROOT] == 0
    assert report.license[address(1)] == 1
    assert report.license[address(1, 1)] == 2
    assert report.license[address(1, 1, 1)] == 3
    assert report.license[address(1, 1, 1, 2)] == 6
    assert terminal_symbols(t) == tuple("aabbcc")
    assert terminal_string(t) == "aabbcc"


def test_validation_reports_unlicensed_nodes_in_address_order():
    g = lockstep_grammar()
    labels = dict(lockstep_tree().labels)
    labels[address(1, 1)] = NodeLabel("S'", ("g", "g"))
    report = validate_derivation_tree(g, tree_of(labels))
    assert not report.ok
    assert report.license is None
    # both the tampered node and its parent lose their licenses
    assert report.first_error[0] == address(1)
    assert report.first_error[1] == "license"
    assert {(a, cond) for a, cond, _ in report.errors} == {
        (address(1), "license"),
        (address(1, 1), "license"),
    }


def test_validation_rejects_bad_root_and_leaf():
    g = lockstep_grammar()
    t = tree_of({ROOT: NodeLabel("S", ("f",)), address(1): LeafLabel("a")})
    report = validate_derivation_tree(g, t)
    assert not report.ok and report.first_error[1] == "root"

    labels = dict(lockstep_tree().labels)
    labels[address(1, 1, 3, 2, 1)] = LeafLabel("z")
    report = validate_derivation_tree(g, tree_of(labels))
    conds = {cond for _, cond, _ in report.errors}
    assert "leaf" in conds


def test_validation_rejects_undeclared_stack_and_symbol():
    g = lockstep_grammar()
    labels = dict(lockstep_tree().labels)
    labels[address(1)] = NodeLabel("S'", ("h",))
    report = validate_derivation_tree(g, tree_of(labels))
    assert any(cond == "stack" for _, cond, _ in report.errors)

    labels = dict(lockstep_tree().labels)
    labels[address(1)] = NodeLabel("Z", ("f",))
    report = validate_derivation_tree(g, tree_of(labels))
    assert any(cond == "symbol" for _, cond, _ in report.errors)


def test_validation_finds_an_undeclared_index_below_the_top_of_a_deep_node():
    g = lockstep_grammar()
    labels = dict(lockstep_tree().labels)
    labels[address(1, 1, 1)] = NodeLabel("A", ("g", "h", "f"))
    report = validate_derivation_tree(g, tree_of(labels))
    stack_errors = [(a, msg) for a, cond, msg in report.errors if cond == "stack"]
    assert stack_errors == [(address(1, 1, 1), "stack ('g', 'h', 'f') uses undeclared indices")]
    # its mother loses her licence, so nothing vouches for the tampered stack
    assert [(a, cond) for a, cond, _ in report.errors] == [(address(1, 1), "license"), (address(1, 1, 1), "stack")]


# --------------------------------------------------------------------------
# Structural checks and the end-marker transformation


def test_reduced_form_check():
    assert reduced_form_check(doubling_grammar()) == reduced_form_check(doubling_grammar())
    assert reduced_form_check(doubling_grammar()).is_reduced
    assert reduced_form_check(doubling_grammar()).offenders == ()
    report = reduced_form_check(lockstep_grammar())
    assert not report.is_reduced
    assert report.offenders == (2, 3, 4, 5, 6, 7, 8)


def shapes_grammar(*rules) -> IndexedGrammar:
    # S -> A^$ followed by the rules under test
    sym = SymbolTable(("S", "A", "B", "C"), ("a",), ("$", "f"))
    return IndexedGrammar(sym, (Push("S", "A", "$"),) + rules, "S")


@pytest.mark.parametrize(
    "rule, reduced",
    [
        (Push("A", "B", "f"), True),
        (Pop("A", "f", ("B",)), True),
        (Plain("A", ("B", "C")), True),
        (Plain("A", ("a",)), True),
        (Plain("A", ()), True),
        (Pop("A", "f", ()), False),
        (Pop("A", "f", ("a",)), False),
        (Pop("A", "f", ("B", "C")), False),
        (Plain("A", ("B",)), False),
        (Plain("A", ("B", "a")), False),
        (Plain("A", ("a", "a")), False),
    ],
    ids=str,
)
def test_reduced_form_of_every_production_shape(rule, reduced):
    report = reduced_form_check(shapes_grammar(rule))
    assert report.is_reduced is reduced
    assert report.offenders == (() if reduced else (1,))


# each production shape above, its compiled rule, and the children it gives
# an A whose stack is (f, $), written out by hand
SHAPE_TREES = [
    (Push("A", "B", "f"), Rule("A", None, (Child("B", PUSH, "f"),)), [NodeLabel("B", ("f", "f", "$"))]),
    (Pop("A", "f", ("B",)), Rule("A", "f", (Child("B", COPY),)), [NodeLabel("B", ("$",))]),
    (
        Plain("A", ("B", "C")),
        Rule("A", None, (Child("B", COPY), Child("C", COPY))),
        [NodeLabel("B", ("f", "$")), NodeLabel("C", ("f", "$"))],
    ),
    (Plain("A", ("a",)), Rule("A", None, (Child("a"),)), [LeafLabel("a")]),
    (Plain("A", ()), Rule("A", None, (Child(""),)), [LeafLabel("")]),
    (Pop("A", "f", ()), Rule("A", "f", (Child(""),)), [LeafLabel("")]),
    (Pop("A", "f", ("a",)), Rule("A", "f", (Child("a"),)), [LeafLabel("a")]),
    (
        Pop("A", "f", ("B", "C")),
        Rule("A", "f", (Child("B", COPY), Child("C", COPY))),
        [NodeLabel("B", ("$",)), NodeLabel("C", ("$",))],
    ),
    (Plain("A", ("B",)), Rule("A", None, (Child("B", COPY),)), [NodeLabel("B", ("f", "$"))]),
    (
        Plain("A", ("B", "a")),
        Rule("A", None, (Child("B", COPY), Child("a"))),
        [NodeLabel("B", ("f", "$")), LeafLabel("a")],
    ),
    (Plain("A", ("a", "a")), Rule("A", None, (Child("a"), Child("a"))), [LeafLabel("a"), LeafLabel("a")]),
]


def _shape_tree(children):
    # S -> A^$ (rule 0), A -> A^f (2), then the node under test at 1.1 with
    # the given children; a B or C child ends in B -> a (3) or C -> a (4)
    labels = {ROOT: NodeLabel("S"), address(1): NodeLabel("A", ("$",)), address(1, 1): NodeLabel("A", ("f", "$"))}
    for k, label in enumerate(children, 1):
        labels[address(1, 1, k)] = label
        if isinstance(label, NodeLabel):
            labels[address(1, 1, k, 1)] = LeafLabel("a")
    return tree_of(labels)


@pytest.mark.parametrize("production, rule, children", SHAPE_TREES, ids=[str(p) for p, _, _ in SHAPE_TREES])
def test_every_production_shape_compiles_and_licenses_its_children(production, rule, children):
    g = shapes_grammar(production, Push("A", "A", "f"), Plain("B", ("a",)), Plain("C", ("a",)))
    assert g.stack_rules[1] == rule
    report = validate_derivation_tree(g, _shape_tree(children))
    assert report.ok, report.errors
    assert report.license[address(1, 1)] == 1
    # one child changed: a nonterminal gains an f on its stack, a leaf
    # swaps a for the empty string or back
    first = children[0]
    if isinstance(first, NodeLabel):
        changed = NodeLabel(first.symbol, ("f",) + first.stack)
    else:
        changed = LeafLabel("" if first.symbol else "a")
    report = validate_derivation_tree(g, _shape_tree([changed] + children[1:]))
    assert [(a, cond) for a, cond, _ in report.errors] == [(address(1, 1), "license")]


def test_of_two_identical_productions_the_first_licenses():
    sym = SymbolTable(("S", "A"), ("a",), ("f",))
    g = IndexedGrammar(sym, (Push("S", "A", "f"), Pop("A", "f", ("a",))) * 2, "S")
    t = tree_of({ROOT: NodeLabel("S"), address(1): NodeLabel("A", ("f",)), address(1, 1): LeafLabel("a")})
    assert validate_derivation_tree(g, t).license == {ROOT: 0, address(1): 1}
    assert [validate_derivation_tree(g, u).license for u in enumerate_derivations(g)] == [{ROOT: 0, address(1): 1}] * 4


def test_marked_index_end_check():
    assert marked_index_end_check(doubling_grammar())
    assert not marked_index_end_check(lockstep_grammar())


@pytest.mark.parametrize(
    "rules, marked",
    [
        ((Push("A", "B", "f"), Pop("B", "f", ("C",))), True),
        ((Pop("A", "$", ("B",)),), False),
        ((Push("A", "B", "$"),), False),
        ((Plain("A", ("S", "B")),), False),
        ((Push("A", "S", "f"),), False),
    ],
    ids=["marked", "marker-guards-a-pop", "marker-pushed-again", "start-in-a-plain-rule", "start-pushed-to"],
)
def test_marked_index_end_on_marker_reuse_and_start_mentions(rules, marked):
    g = shapes_grammar(*rules)
    assert marked_index_end_check(g) is marked
    if marked:
        assert end_marker(g) == "$"
    else:
        with pytest.raises(PreconditionError):
            end_marker(g)


def test_marked_index_end_needs_a_push_from_the_start():
    sym = SymbolTable(("S", "A"), ("a",), ("$",))
    assert not marked_index_end_check(IndexedGrammar(sym, (Pop("S", "$", ("A",)),), "S"))
    assert not marked_index_end_check(IndexedGrammar(sym, (Plain("S", ("A", "A")),), "S"))
    assert marked_index_end_check(IndexedGrammar(sym, (Push("S", "S", "$"),), "S"))


def test_mark_index_end():
    g = lockstep_grammar()
    marked = mark_index_end(g)
    assert marked.start == "S_0"
    assert marked.symbols.indices[-1] == "$"
    assert marked.productions[:-1] == g.productions
    assert marked.productions[-1] == Push("S_0", "S", "$")
    assert marked_index_end_check(marked)
    left = indexed_language_upto(g, 6)
    right = indexed_language_upto(marked, 6)
    assert left.words == right.words and not left.exhausted and not right.exhausted


def test_mark_index_end_preserves_reduced_form():
    marked = mark_index_end(doubling_grammar())
    assert reduced_form_check(marked).is_reduced
    assert marked_index_end_check(marked)


def test_fresh_symbol():
    assert fresh_symbol("x", set()) == "x"
    assert fresh_symbol("x", {"x"}) == "x_1"
    assert fresh_symbol("x", {"x", "x_1"}) == "x_2"


# --------------------------------------------------------------------------
# Enumeration


def test_enumeration_streams_valid_trees_by_size():
    g = lockstep_grammar()
    trees = list(enumerate_derivations(g, Budget(max_nodes=20)))
    assert len(trees) == 2
    sizes = [len(t.domain) for t in trees]
    assert sizes == sorted(sizes) == [8, 15]
    for t in trees:
        assert validate_derivation_tree(g, t).ok
    assert trees[1] == lockstep_tree()


def test_enumeration_of_deep_unary_chains_does_not_recurse_per_level():
    sym = SymbolTable(("S",), ("a",), ())
    g = IndexedGrammar(sym, (Plain("S", ("S",)), Plain("S", ("a",))), "S")
    with shallow_recursion():
        trees = list(enumerate_derivations(g, Budget(max_nodes=200)))
    assert [len(t.domain) for t in trees] == list(range(2, 201))
    assert trees[-1].domain.height == 199
    assert validate_derivation_tree(g, trees[-1]).ok


def test_enumeration_of_deep_push_chains_does_not_recurse_per_level():
    # every level has a new stack, so no memo entry is ever reused
    sym = SymbolTable(("S",), ("a",), ("f",))
    g = IndexedGrammar(sym, (Push("S", "S", "f"), Plain("S", ("a",))), "S")
    with shallow_recursion():
        trees = list(enumerate_derivations(g, Budget(max_nodes=200)))
    assert [len(t.domain) for t in trees] == list(range(2, 201))
    assert trees[-1].domain.height == 199
    assert trees[-1].stack_at(address(*[1] * 198)) == ("f",) * 198
    assert validate_derivation_tree(g, trees[-1]).ok


def test_enumeration_stopped_by_max_steps_reports_it():
    g = lockstep_grammar()
    stats = SearchStats()
    trees = list(enumerate_derivations(g, Budget(max_nodes=30, max_steps=5), stats))
    assert stats.exhausted and stats.reasons == ["max_steps"]
    assert all(validate_derivation_tree(g, t).ok for t in trees)


def test_budget_fields_must_be_positive():
    with pytest.raises(GrammarError, match="max_nodes must be positive"):
        Budget(max_nodes=0)


def test_enumeration_respects_tree_cap():
    g = lockstep_grammar()
    stats = SearchStats()
    trees = list(enumerate_derivations(g, Budget(max_nodes=30, max_trees=1), stats))
    assert len(trees) == 1
    assert stats.exhausted and "max_trees" in stats.reasons


# --------------------------------------------------------------------------
# Languages and membership


def test_lockstep_language_matches_formula():
    res = indexed_language_upto(lockstep_grammar(), 9)
    assert set(res.words) == lockstep_words(9)
    assert res.words == tuple(sorted(res.words, key=lambda w: (len(w), w)))
    assert not res.exhausted


def test_doubling_language_matches_formula():
    res = indexed_language_upto(doubling_grammar(), 16)
    assert set(res.words) == doubling_words(16)
    assert not res.exhausted


def test_language_rejects_negative_maxlen():
    with pytest.raises(GrammarError):
        indexed_language_upto(lockstep_grammar(), -1)


def test_language_maxlen_zero():
    assert indexed_language_upto(lockstep_grammar(), 0).words == ()


def test_membership_finds_the_minimal_witness():
    g = lockstep_grammar()
    res = indexed_membership(g, "aabbcc")
    assert res.member and not res.exhausted
    assert res.witness == lockstep_tree()
    res = indexed_membership(g, ("a", "b", "c"))
    assert res.member and terminal_string(res.witness) == "abc"


def test_membership_exact_exclusion():
    g = lockstep_grammar()
    for bad in ("aabbc", "abcabc", "", "ba"):
        res = indexed_membership(g, bad)
        assert not res.member and res.witness is None and not res.exhausted


def test_membership_rejects_foreign_symbols():
    with pytest.raises(GrammarError):
        indexed_membership(lockstep_grammar(), "xyz")


def test_empty_word_grammar():
    g = IndexedGrammar(SymbolTable(("S",), (), ()), (Plain("S", ()),), "S")
    res = indexed_language_upto(g, 0)
    assert res.words == ((),)
    m = indexed_membership(g, "")
    assert m.member and terminal_string(m.witness) == ""
    assert len(m.witness.domain) == 2


def empty_pop_grammar() -> IndexedGrammar:
    # pops whose right-hand side holds no nonterminal, A ^f -> _ among them;
    # S -> A pops an empty stack and derives nothing
    sym = SymbolTable(("S", "T", "A"), ("a", "b"), ("f", "g"))
    rules = (
        Push("S", "T", "f"),
        Plain("S", ("A",)),
        Plain("T", ("A", "A")),
        Push("T", "A", "g"),
        Pop("A", "f", ()),
        Pop("A", "f", ("a", "b")),
        Pop("A", "g", ("a",)),
    )
    return IndexedGrammar(sym, rules, "S")


def test_empty_rhs_pops_agree_with_tree_enumeration():
    g = empty_pop_grammar()
    first_tree = {}
    for t in enumerate_derivations(g, Budget(max_nodes=12)):
        first_tree.setdefault(terminal_symbols(t), t)
    res = indexed_language_upto(g, 4)
    assert not res.exhausted
    assert set(res.words) == {w for w in first_tree if len(w) <= 4}
    assert set(res.words) == {(), ("a",), ("a", "b"), ("a", "b", "a", "b")}
    for n in range(5):
        for w in itertools.product("ab", repeat=n):
            m = indexed_membership(g, w)
            # enumeration order is (node count, rule sequence), so the first
            # tree of a yield is its minimal witness
            assert m.witness == first_tree.get(w), w
            assert m.member == (w in first_tree) and not m.exhausted


def test_state_cap_sets_the_exhausted_flag():
    res = indexed_language_upto(lockstep_grammar(), 9, Budget(max_states=2))
    assert res.exhausted and "max_states" in res.reasons


def test_stack_cap_sets_the_exhausted_flag():
    res = indexed_language_upto(doubling_grammar(), 16, Budget(max_stack=2))
    assert res.exhausted and "max_stack" in res.reasons


# --------------------------------------------------------------------------
# Fuzz: the per-state fixpoint agrees with whole-tree enumeration


def test_fixpoint_agrees_with_tree_enumeration():
    rng = random.Random(20260819)
    fix_budget = Budget(max_nodes=12, max_stack=16, max_states=4000)
    tree_budget = Budget(max_nodes=12, max_trees=200_000)
    compared = 0
    for _ in range(40):
        g = rand_reduced_marked_indexed(rng)
        res = indexed_language_upto(g, 4, fix_budget)
        if res.exhausted:
            continue
        stats = SearchStats()
        by_trees = set()
        for t in enumerate_derivations(g, tree_budget, stats):
            w = terminal_symbols(t)
            if len(w) <= 4:
                by_trees.add(w)
        if stats.exhausted:
            continue
        assert set(res.words) == by_trees, f"disagreement on {g}"
        compared += 1
    assert compared >= 20


def test_fuzzed_grammars_stay_reduced_and_marked():
    rng = random.Random(7)
    for _ in range(25):
        g = rand_reduced_marked_indexed(rng)
        assert reduced_form_check(g).is_reduced
        assert marked_index_end_check(g)

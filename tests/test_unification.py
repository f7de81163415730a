"""Unification grammars: schemata, c-structures, the stack-schema subclass,
its normal forms, and the two language engines.

The demand-string fixpoint is cross-checked against the reference semantics
(enumerate every c-structure, solve every equation set) on fuzzed grammars.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glab
from glab import (
    ArrowPathEq,
    ArrowValEq,
    Budget,
    CStructure,
    Consistent,
    DOWN,
    Daughter,
    GrammarError,
    Inconsistent,
    LexRule,
    PathEq,
    PreconditionError,
    ROOT,
    SearchStats,
    SimpleUnificationGrammar,
    UP,
    UProduction,
    ValEq,
    ValueClash,
    address,
    canonical_fs,
    classify_schema,
    collect_equations,
    copy_schema,
    delta_path,
    domain_of,
    enumerate_cstructures,
    format_schema,
    generates_check,
    instantiate,
    parse_unification_grammar,
    pop_schema,
    print_unification_grammar,
    push_schema,
    satisfies_set,
    sink_map_root,
    sug_language_upto,
    sug_membership,
    ugi_check,
    ugi_language_upto,
    ugi_membership,
    ugi_normalize,
    used_values,
    validate_cstructure,
    well_defined_check,
)

from glab.unification import _size_chart

from helpers import FUZZ_BUDGET, all_words, rand_general_ugi, rand_reduced_ugi, rand_ugi_cstructure, shallow_recursion


def agreement_grammar() -> SimpleUnificationGrammar:
    # determiner and noun must agree in number
    return SimpleUnificationGrammar(
        nonterminals=("S", "D", "N"),
        terminals=("this", "these", "dog", "dogs"),
        attributes=("num",),
        values=("sg", "pl"),
        productions=(UProduction("S", (Daughter("D", copy_schema()), Daughter("N", copy_schema()))),),
        lexicon=(
            LexRule("D", "this", frozenset({ArrowValEq(UP, ("num",), "sg")})),
            LexRule("D", "these", frozenset({ArrowValEq(UP, ("num",), "pl")})),
            LexRule("N", "dog", frozenset({ArrowValEq(UP, ("num",), "sg")})),
            LexRule("N", "dogs", frozenset({ArrowValEq(UP, ("num",), "pl")})),
        ),
        start="S",
    )


def agreement_cs(det: str, noun: str) -> CStructure:
    dval = "sg" if det == "this" else "pl"
    nval = "sg" if noun == "dog" else "pl"
    return CStructure(
        domain_of({ROOT, address(1), address(2), address(1, 1), address(2, 1)}),
        {ROOT: "S", address(1): "D", address(2): "N", address(1, 1): det, address(2, 1): noun},
        {
            address(1): copy_schema(),
            address(2): copy_schema(),
            address(1, 1): frozenset({ArrowValEq(UP, ("num",), dval)}),
            address(2, 1): frozenset({ArrowValEq(UP, ("num",), nval)}),
        },
    )


def counter_grammar() -> SimpleUnificationGrammar:
    # one push balanced by one pop; language {a}
    return SimpleUnificationGrammar(
        nonterminals=("S", "T", "U"),
        terminals=("a",),
        attributes=("next", "idx"),
        values=("f",),
        productions=(
            UProduction("S", (Daughter("T", push_schema("next", "idx", "f")),)),
            UProduction("T", (Daughter("U", pop_schema("next", "idx", "f")),)),
        ),
        lexicon=(LexRule("U", "a", frozenset()),),
        start="S",
    )


def popping_grammar() -> SimpleUnificationGrammar:
    # the single pop is never fed by a push; the demand runs past the root
    return SimpleUnificationGrammar(
        nonterminals=("X", "Y"),
        terminals=("a",),
        attributes=("next", "idx"),
        values=("v0",),
        productions=(UProduction("X", (Daughter("Y", pop_schema("next", "idx", "v0")),)),),
        lexicon=(LexRule("Y", "a", frozenset()),),
        start="X",
    )


# --------------------------------------------------------------------------
# Arrow equations and schemata


def test_arrow_rendering():
    assert str(UP) == "up" and str(DOWN) == "dn"


def test_path_equations_store_a_canonical_orientation():
    assert ArrowPathEq(UP, (), DOWN, ("next",)) == ArrowPathEq(DOWN, ("next",), UP, ())
    assert ArrowPathEq(DOWN, (), UP, ()) == ArrowPathEq(UP, (), DOWN, ())
    e = ArrowPathEq(UP, (), DOWN, ("next",))
    assert (e.left, e.left_path) == (DOWN, ("next",))


def test_schema_formatting():
    assert format_schema(frozenset()) == "{ }"
    assert format_schema(copy_schema()) == "{ up = dn }"
    assert format_schema(push_schema("next", "idx", "f")) == "{ dn next = up ; dn idx = f }"
    assert format_schema(pop_schema("next", "idx", "f")) == "{ up next = dn ; up idx = f }"


def test_arrow_value_equations_need_a_path():
    with pytest.raises(GrammarError):
        ArrowValEq(UP, (), "f")
    with pytest.raises(GrammarError):
        ArrowPathEq(UP, ("bad attr",), DOWN, ())


def test_classify_schema():
    assert classify_schema(copy_schema()) == ("copy", None, None)
    assert classify_schema(push_schema("next", "idx", "f")) == ("push", "f", ("next", "idx"))
    assert classify_schema(pop_schema("n", "i", "g")) == ("pop", "g", ("n", "i"))
    assert classify_schema(frozenset()) is None
    assert classify_schema(frozenset({ArrowValEq(UP, ("num",), "sg")})) is None
    # next and idx attributes must differ
    assert classify_schema(push_schema("n", "n", "f")) is None


# --------------------------------------------------------------------------
# Grammar construction


def test_grammar_validation():
    g = agreement_grammar()
    with pytest.raises(GrammarError):
        SimpleUnificationGrammar(("S", "a"), ("a",), (), (), g.productions, (), "S")
    with pytest.raises(GrammarError):
        SimpleUnificationGrammar(("S",), (), (), (), (), (), "Z")
    with pytest.raises(GrammarError):
        # schema uses an undeclared attribute
        SimpleUnificationGrammar(
            ("S", "D"), (), (), ("sg",),
            (UProduction("S", (Daughter("D", frozenset({ArrowValEq(UP, ("num",), "sg")})),)),),
            (), "S",
        )
    with pytest.raises(GrammarError):
        # lexicon word must be a declared terminal
        SimpleUnificationGrammar(("S",), (), (), (), (), (LexRule("S", "w", frozenset()),), "S")
    with pytest.raises(GrammarError):
        UProduction("S", ())
    with pytest.raises(GrammarError):
        LexRule("S", "w", copy_schema())


def test_grammar_validation_messages():
    copy = copy_schema()
    with pytest.raises(GrammarError, match="^schema entries must be arrow equations$"):
        Daughter("S", frozenset({ValEq(ROOT, ("num",), "sg")}))
    with pytest.raises(GrammarError, match="^duplicate value declaration$"):
        SimpleUnificationGrammar(("S",), (), (), ("sg", "sg"), (), (), "S")
    with pytest.raises(GrammarError, match=r"^rule 0: undeclared value \['pl'\]$"):
        SimpleUnificationGrammar(
            ("S",), (), ("num",), ("sg",),
            (UProduction("S", (Daughter("S", frozenset({ArrowValEq(UP, ("num",), "pl")})),)),),
            (), "S",
        )
    with pytest.raises(GrammarError, match="^rule 1: mother 'a' is not a nonterminal$"):
        SimpleUnificationGrammar(
            ("S",), ("a",), (), (),
            (UProduction("S", (Daughter("S", copy),)), UProduction("a", (Daughter("S", copy),))),
            (), "S",
        )
    with pytest.raises(GrammarError, match="^rule 0: daughter 'a' is not a nonterminal$"):
        SimpleUnificationGrammar(("S",), ("a",), (), (), (UProduction("S", (Daughter("a", copy),)),), (), "S")


def test_rule_rendering():
    g = agreement_grammar()
    assert str(g.productions[0]) == "S -> D { up = dn } N { up = dn }"
    assert str(g.lexicon[0]) == "D -> this { up num = sg }"
    assert str(LexRule("E", "", frozenset())) == "E -> _ { }"


def test_word_handling_with_multichar_terminals():
    g = agreement_grammar()
    assert not g.single_char_terminals
    assert g.parse_word("this dog") == ("this", "dog")
    assert g.render_word(("these", "dogs")) == "these dogs"
    with pytest.raises(GrammarError):
        g.parse_word("that dog")


def test_used_values():
    assert used_values(agreement_grammar()) == ("sg", "pl")
    g = counter_grammar()
    assert used_values(g) == ("f",)
    spare = SimpleUnificationGrammar(
        g.nonterminals, g.terminals, g.attributes, ("spare",) + g.values,
        g.productions, g.lexicon, g.start,
    )
    assert used_values(spare) == ("f",)


# --------------------------------------------------------------------------
# C-structures, licensing, equations


def test_cstructure_coverage_is_validated():
    with pytest.raises(GrammarError):
        CStructure(domain_of({ROOT, address(1)}), {ROOT: "S"}, {address(1): frozenset()})
    with pytest.raises(GrammarError):
        CStructure(
            domain_of({ROOT, address(1)}),
            {ROOT: "S", address(1): "a"},
            {ROOT: frozenset(), address(1): frozenset()},
        )


def test_agreement_cstructure_is_licensed():
    g = agreement_grammar()
    cs = agreement_cs("this", "dog")
    report = validate_cstructure(g, cs)
    assert report.ok and not report.errors
    # combined rule indices: the production, then lexicon entries in order
    assert report.license == {ROOT: 0, address(1): 1, address(2): 3}
    assert cs.terminal_symbols == ("this", "dog")


def test_cstructure_validation_errors():
    g = agreement_grammar()
    cs = agreement_cs("this", "dog")
    bad_root = CStructure(cs.domain, {**dict(cs.categories), ROOT: "D"}, cs.eqsets)
    assert any(cond == "root" for _, cond, _ in validate_cstructure(g, bad_root).errors)

    bad_leaf = CStructure(cs.domain, {**dict(cs.categories), address(1, 1): "cat"}, cs.eqsets)
    report = validate_cstructure(g, bad_leaf)
    conds = {cond for _, cond, _ in report.errors}
    assert "leaf" in conds and "license" in conds

    bare_root = CStructure(domain_of({ROOT}), {ROOT: "S"}, {})
    assert any(cond == "root" for _, cond, _ in validate_cstructure(g, bare_root).errors)

    # schemas live on the tree, so a foreign schema just fails licensing
    wrong_schema = CStructure(
        cs.domain,
        cs.categories,
        {**dict(cs.eqsets), address(1): push_schema("num", "num_1", "sg")},
    )
    report = validate_cstructure(g, wrong_schema)
    assert any(cond == "license" for _, cond, _ in report.errors)


def test_of_two_identical_rules_the_first_licenses():
    g = agreement_grammar()
    g = SimpleUnificationGrammar(
        g.nonterminals, g.terminals, g.attributes, g.values, g.productions * 2, g.lexicon * 2, g.start
    )
    # combined rules: the production twice, then the four lexicon rules twice
    assert validate_cstructure(g, agreement_cs("these", "dogs")).license == {ROOT: 0, address(1): 3, address(2): 5}


def test_a_lexicon_daughter_with_daughters_of_its_own_is_not_licensed():
    g = agreement_grammar()
    cs = agreement_cs("this", "dog")
    # the word under D has the lexicon rule's word and schema, and a child
    under = address(1, 1, 1)
    cs = CStructure(
        domain_of(cs.domain.addresses | {under}),
        {**dict(cs.categories), under: "this"},
        {**dict(cs.eqsets), under: frozenset()},
    )
    report = validate_cstructure(g, cs)
    assert [(a, cond) for a, cond, _ in report.errors] == [(address(1), "license"), (address(1, 1), "symbol")]


def test_instantiate_and_collect():
    cs = agreement_cs("this", "dog")
    eqs = instantiate(cs.eqsets[address(1)], ROOT, address(1))
    assert eqs == frozenset({PathEq(ROOT, (), address(1), ())})
    assert collect_equations(cs) == frozenset(
        {
            PathEq(ROOT, (), address(1), ()),
            PathEq(ROOT, (), address(2), ()),
            ValEq(address(1), ("num",), "sg"),
            ValEq(address(2), ("num",), "sg"),
        }
    )
    with pytest.raises(PreconditionError):
        instantiate(copy_schema(), ROOT, address(1, 1))


def test_agreement_generates_check():
    ok = generates_check(agreement_cs("this", "dog"))
    assert isinstance(ok, Consistent)
    m = ok.model
    assert m.node_of(ROOT) == m.node_of(address(1)) == m.node_of(address(2))
    assert m.alpha[delta_path(m, m.node_of(ROOT), ("num",))] == "sg"
    assert well_defined_check(m).well_defined

    bad = generates_check(agreement_cs("this", "dogs"))
    assert isinstance(bad, Inconsistent)
    assert isinstance(bad.diagnosis, ValueClash)
    assert {bad.diagnosis.value_a, bad.diagnosis.value_b} == {"sg", "pl"}


# --------------------------------------------------------------------------
# Reference engine: enumeration and membership


def test_enumerate_cstructures_for_a_word():
    g = agreement_grammar()
    structures = list(enumerate_cstructures(g, "this dog"))
    assert len(structures) == 1
    assert structures[0] == agreement_cs("this", "dog")
    assert validate_cstructure(g, structures[0]).ok
    # number agreement is not structural: the mismatched string still parses
    assert len(list(enumerate_cstructures(g, "these dog"))) == 1
    assert list(enumerate_cstructures(g, ("dog",))) == []


def test_enumeration_of_deep_unary_chains_does_not_recurse_per_level():
    g = SimpleUnificationGrammar(
        ("S",), ("a",), (), (), (UProduction("S", (Daughter("S", copy_schema()),)),), (LexRule("S", "a", frozenset()),), "S"
    )
    with shallow_recursion():
        structures = list(enumerate_cstructures(g, "a", Budget(max_nodes=200)))
    assert [len(cs.domain) for cs in structures] == list(range(2, 201))
    assert structures[-1].domain.height == 199
    assert validate_cstructure(g, structures[-1]).ok


# Empty-string daughters on both sides of a word, a unit cycle through two
# categories, and a binary rule over the empty string alone
EMPTY_AND_CYCLES = """\
nonterminals S A B E
terminals a b
attributes f
values u
start S
rule S -> A { } B { }
rule S -> S { } S { }
rule A -> B { }
rule B -> A { }
rule A -> E { } A { } E { }
rule E -> E { } E { }
lex A -> a { }
lex B -> b { }
lex E -> _ { }
"""


def _tree_sizes(g, word):
    """has(cat, i, j, size): some tree of that size over word[i:j], found by
    recursion on size, apart from the size chart."""

    @functools.cache
    def has(cat, i, j, size):
        if size == 2 and any(r.mother == cat and word[i:j] == ((r.word,) if r.word else ()) for r in g.lexicon):
            return True
        return any(fits(p.daughters, i, j, size - 1) for p in g.productions if p.mother == cat)

    @functools.cache
    def fits(daughters, i, j, size):
        d, rest = daughters[0], daughters[1:]
        if not rest:
            return size >= 2 and has(d.category, i, j, size)
        return any(
            has(d.category, i, m, s) and fits(rest, m, j, size - s) for m in range(i, j + 1) for s in range(2, size - 1)
        )

    return has


def test_size_chart_is_exact():
    rng = random.Random(20261018)
    grammars = [rand_general_ugi(rng) for _ in range(40)] + [parse_unification_grammar(EMPTY_AND_CYCLES)]
    budget = Budget(max_nodes=9)
    for g in grammars:
        for w in all_words(g.terminals, 3):
            chart = _size_chart(g, w, budget.max_nodes)
            has = _tree_sizes(g, w)
            for cat in g.nonterminals:
                for i in range(len(w) + 1):
                    for j in range(i, len(w) + 1):
                        sizes = chart.get((cat, i, j), 0)
                        assert sizes == sum(1 << s for s in range(2, budget.max_nodes + 1) if has(cat, i, j, s)), (g, w, cat, i, j)
            stats = SearchStats()
            streamed = {len(cs.domain) for cs in enumerate_cstructures(g, w, budget, stats)}
            assert not stats.exhausted
            start = chart.get((g.start, 0, len(w)), 0)
            assert streamed == {s for s in range(budget.max_nodes + 1) if start >> s & 1}, (g, w)


def test_sug_membership_reference_semantics():
    g = agreement_grammar()
    yes = sug_membership(g, "this dog")
    assert yes.member and not yes.exhausted
    assert yes.witness == agreement_cs("this", "dog")
    assert well_defined_check(yes.model).well_defined
    no = sug_membership(g, "these dog")
    assert not no.member and no.witness is None and not no.exhausted


def test_sug_language_field_sweep():
    g = agreement_grammar()
    res = sug_language_upto(g, 2)
    assert set(res.words) == {("this", "dog"), ("these", "dogs")}
    assert not res.exhausted


def test_sug_language_upto_rejects_a_negative_bound():
    with pytest.raises(GrammarError, match="maxlen must be >= 0"):
        sug_language_upto(agreement_grammar(), -1)


def _copy_chain(links: int) -> SimpleUnificationGrammar:
    # S -> a, plus the unit chain M0 -> M1 -> ... -> M(links)
    names = [f"M{i}" for i in range(links + 1)]
    chain = tuple(UProduction(m, (Daughter(t, copy_schema()),)) for m, t in zip(names, names[1:]))
    return SimpleUnificationGrammar(("S", *names), ("a",), (), (), chain, (LexRule("S", "a", frozenset()),), "S")


def test_unit_cycle_test_walks_long_chains_without_recursion():
    with shallow_recursion():
        r = sug_membership(_copy_chain(299), "a")
    assert r.member and not r.exhausted


# --------------------------------------------------------------------------
# The stack-schema subclass and its checks


def test_ugi_check_flags():
    report = ugi_check(agreement_grammar())
    assert not report.is_ugi
    assert any(kind == "lexicon" for kind, _, _ in report.offenders)

    report = ugi_check(counter_grammar())
    assert report.is_ugi and report.is_reduced and not report.has_sink_mapped_root
    assert report.offenders == ()
    assert report.attr_pair == ("next", "idx")


def test_ugi_check_rejects_mixed_attribute_pairs():
    g = SimpleUnificationGrammar(
        ("S", "T"),
        ("a",),
        ("next", "idx", "n", "i"),
        ("f",),
        (
            UProduction("S", (Daughter("T", push_schema("next", "idx", "f")),)),
            UProduction("T", (Daughter("T", push_schema("n", "i", "f")),)),
        ),
        (LexRule("T", "a", frozenset()),),
        "S",
    )
    report = ugi_check(g)
    assert not report.is_ugi
    assert any("attribute pair" in reason for _, _, reason in report.offenders)


def test_ugi_check_reduced_offenders():
    # stack-form but not reduced: a unary copy rule
    g = SimpleUnificationGrammar(
        ("S", "T"),
        ("a",),
        ("next", "idx"),
        ("f",),
        (UProduction("S", (Daughter("T", copy_schema()),)),),
        (LexRule("T", "a", frozenset()),),
        "S",
    )
    report = ugi_check(g)
    assert report.is_ugi and not report.is_reduced
    assert report.offenders and report.offenders[0][0] == "production"


def stack_shapes_grammar(*daughters) -> SimpleUnificationGrammar:
    # a sink-mapped root S -> T^$ followed by T -> daughters
    push = lambda v: push_schema("next", "idx", v)
    return SimpleUnificationGrammar(
        ("S", "T", "U"),
        ("a",),
        ("next", "idx"),
        ("$", "f"),
        (UProduction("S", (Daughter("T", push("$")),)), UProduction("T", daughters)),
        (LexRule("U", "a", frozenset()),),
        "S",
    )


@pytest.mark.parametrize(
    "daughters, reduced",
    [
        ((Daughter("U", push_schema("next", "idx", "f")),), True),
        ((Daughter("U", pop_schema("next", "idx", "f")),), True),
        ((Daughter("U", copy_schema()), Daughter("U", copy_schema())), True),
        ((Daughter("U", copy_schema()),), False),
        ((Daughter("U", push_schema("next", "idx", "f")), Daughter("U", copy_schema())), False),
        ((Daughter("U", copy_schema()), Daughter("U", pop_schema("next", "idx", "f"))), False),
        ((Daughter("U", copy_schema()),) * 3, False),
    ],
    ids=["push", "pop", "copy-copy", "unary-copy", "binary-push", "binary-pop", "ternary-copy"],
)
def test_reduced_form_of_every_stack_shape(daughters, reduced):
    report = ugi_check(stack_shapes_grammar(*daughters))
    assert report.is_ugi and report.has_sink_mapped_root
    assert report.is_reduced is reduced
    expected = () if reduced else (("production", 1, "not a unary push/pop or binary copy-copy rule"),)
    assert report.offenders == expected


def test_sink_mapped_root_ignores_the_lexicon():
    g = stack_shapes_grammar(Daughter("U", copy_schema()), Daughter("U", copy_schema()))
    lex_start = SimpleUnificationGrammar(
        g.nonterminals, g.terminals, g.attributes, g.values, g.productions, g.lexicon + (LexRule("S", "a", frozenset()),), "S"
    )
    assert ugi_check(lex_start).has_sink_mapped_root
    # the marker used again, or the start symbol in a second production, is no sink
    reused = stack_shapes_grammar(Daughter("U", pop_schema("next", "idx", "$")))
    assert not ugi_check(reused).has_sink_mapped_root
    recurs = stack_shapes_grammar(Daughter("S", copy_schema()), Daughter("U", copy_schema()))
    assert not ugi_check(recurs).has_sink_mapped_root


def test_ugi_engines_reject_other_grammars():
    with pytest.raises(PreconditionError):
        ugi_language_upto(agreement_grammar(), 2)
    with pytest.raises(PreconditionError):
        ugi_membership(agreement_grammar(), "this dog")
    with pytest.raises(PreconditionError):
        ugi_normalize(agreement_grammar())
    with pytest.raises(PreconditionError):
        sink_map_root(agreement_grammar())


# --------------------------------------------------------------------------
# Fixpoint language engine


def test_counter_language():
    res = ugi_language_upto(counter_grammar(), 3)
    assert res.words == (("a",),) and not res.exhausted


def test_unmet_demand_runs_past_the_root():
    g = popping_grammar()
    res = ugi_language_upto(g, 2)
    assert res.words == (("a",),) and not res.exhausted
    m = ugi_membership(g, "a")
    assert m.member and m.witness.terminal_symbols == ("a",)
    assert validate_cstructure(g, m.witness).ok
    # the reference semantics agrees: the equations are consistent
    ref = sug_membership(g, "a")
    assert ref.member


def test_empty_word_through_the_fixpoint():
    g = SimpleUnificationGrammar(
        ("X",), (), ("next", "idx"), (), (), (LexRule("X", "", frozenset()),), "X"
    )
    res = ugi_language_upto(g, 0)
    assert res.words == ((),)
    m = ugi_membership(g, "")
    assert m.member and m.witness.terminal_string == ""


def test_fixpoint_membership_rejects_symbols_that_are_not_terminals():
    g = counter_grammar()
    for bad in (("zz",), ("S",), ("a", "x")):
        with pytest.raises(GrammarError):
            ugi_membership(g, bad)
        with pytest.raises(GrammarError):
            sug_membership(g, bad)


def test_lexicon_witnesses_respect_the_node_cap():
    # a lexicon rule alone builds two nodes, more than max_nodes=1 allows
    g = SimpleUnificationGrammar(
        ("X",), ("a",), ("next", "idx"), (), (), (LexRule("X", "a", frozenset()),), "X"
    )
    tiny = Budget(max_nodes=1)
    assert ugi_language_upto(g, 1, tiny).words == ()
    assert not ugi_membership(g, "a", tiny).member
    assert not sug_membership(g, "a", tiny).member
    assert ugi_membership(g, "a").member


def test_fixpoint_witness_is_minimal_and_consistent():
    g = counter_grammar()
    m = ugi_membership(g, "a")
    assert m.member
    # S -> T -> U -> a: four nodes
    assert len(m.witness.domain) == 4
    assert isinstance(generates_check(m.witness), Consistent)
    assert ugi_membership(g, "aa").member is False


def test_fixpoint_agrees_with_the_reference_sweep():
    rng = random.Random(20260819)
    fix_budget = Budget(max_nodes=8, max_stack=10, max_states=2000, max_demand=8)
    ref_budget = Budget(max_nodes=8, max_trees=5_000, max_steps=200_000)
    compared = 0
    for _ in range(60):
        if compared >= 12:
            break
        g = rand_general_ugi(rng)
        res = ugi_language_upto(g, 3, fix_budget)
        if res.exhausted:
            continue
        reference = set()
        exhausted = False
        for n in range(4):
            for combo in itertools.product(g.terminals, repeat=n):
                r = sug_membership(g, combo, ref_budget)
                if r.member:
                    reference.add(combo)
                exhausted = exhausted or r.exhausted
        if exhausted:
            continue
        assert set(res.words) == reference, f"disagreement on {g}"
        compared += 1
    assert compared >= 12


# --------------------------------------------------------------------------
# Normal form


def wide_grammar() -> SimpleUnificationGrammar:
    # one wide rule mixing push, copy, pop, plus a unit copy rule
    return SimpleUnificationGrammar(
        nonterminals=("S", "A", "B"),
        terminals=("a", "b"),
        attributes=("next", "idx"),
        values=("f",),
        productions=(
            UProduction(
                "S",
                (
                    Daughter("A", push_schema("next", "idx", "f")),
                    Daughter("B", copy_schema()),
                    Daughter("A", pop_schema("next", "idx", "f")),
                ),
            ),
            UProduction("A", (Daughter("B", copy_schema()),)),
        ),
        lexicon=(LexRule("A", "a", frozenset()), LexRule("B", "b", frozenset())),
        start="S",
    )


def test_normalize_reaches_reduced_form():
    g = wide_grammar()
    assert not ugi_check(g).is_reduced
    norm = ugi_normalize(g)
    report = ugi_check(norm)
    assert report.is_ugi and report.is_reduced
    assert norm.start == g.start and norm.terminals == g.terminals


def test_normalize_preserves_the_language():
    g = wide_grammar()
    left = sug_language_upto(g, 4, FUZZ_BUDGET)
    right = sug_language_upto(ugi_normalize(g), 4, FUZZ_BUDGET)
    assert not left.exhausted and not right.exhausted
    assert left.words == right.words
    assert left.words  # the comparison is not vacuous


def test_normalize_is_idempotent():
    norm = ugi_normalize(wide_grammar())
    assert ugi_normalize(norm) == norm


UNIT_CYCLE = """nonterminals S A B C D
terminals a c
attributes next idx
values f
start S
rule S -> A { up = dn } B { up = dn }
rule A -> B { up = dn }
rule B -> A { up = dn }
rule B -> C { up = dn }
rule D -> C { up = dn }
rule S -> D { dn next = up ; dn idx = f }
rule C -> C { up next = dn ; up idx = f }
lex C -> c { }
lex A -> a { }
lex B -> a { }
"""


def test_normalize_composes_unit_cycles_and_chains_in_rule_then_nonterminal_order():
    # A and B reach each other and C; D reaches C.  Each non-unit rule of b
    # goes to every nonterminal that reaches b, in declaration order, and a
    # rule composed twice (A -> a through A and through B) is kept once.
    norm = ugi_normalize(parse_unification_grammar(UNIT_CYCLE))
    assert print_unification_grammar(norm) == """nonterminals S A B C D
terminals a c
attributes next idx
values f
start S
rule S -> A { up = dn } B { up = dn }
rule S -> D { dn next = up ; dn idx = f }
rule A -> C { up next = dn ; up idx = f }
rule B -> C { up next = dn ; up idx = f }
rule C -> C { up next = dn ; up idx = f }
rule D -> C { up next = dn ; up idx = f }
lex A -> c { }
lex B -> c { }
lex C -> c { }
lex D -> c { }
lex A -> a { }
lex B -> a { }
"""


# --------------------------------------------------------------------------
# Root wrapping


def test_sink_map_root_establishes_the_shape():
    g = counter_grammar()
    assert not ugi_check(g).has_sink_mapped_root
    wrapped = sink_map_root(g)
    report = ugi_check(wrapped)
    assert report.is_ugi and report.is_reduced and report.has_sink_mapped_root
    assert wrapped.start == "S_0"
    # fresh marker value, distinct from everything the old grammar used
    marker = wrapped.values[-1]
    assert marker not in g.values and marker not in used_values(g)


def test_sink_map_root_preserves_the_language():
    g = counter_grammar()
    left = sug_language_upto(g, 3, FUZZ_BUDGET)
    right = sug_language_upto(sink_map_root(g), 3, FUZZ_BUDGET)
    assert not left.exhausted
    # the spine admits unboundedly deep pushes, so the wrapped search hits
    # the stack cap and honestly says so; the word set is still complete
    # because the left search is, and its minimal witnesses join no
    # subsumed entry: their demands are at most max_demand long, so a spine
    # deeper than max_demand + 1 (the demand and the end marker) feeds none
    assert left.words == right.words == (("a",),)


def test_sink_map_root_defaults_the_attribute_pair():
    # no push or pop anywhere, so the wrapper invents the pair
    g = SimpleUnificationGrammar(
        ("S",), ("a",), (), (), (), (LexRule("S", "a", frozenset()),), "S"
    )
    wrapped = sink_map_root(g)
    assert ("next", "idx") == tuple(wrapped.attributes[-2:])
    assert ugi_check(wrapped).has_sink_mapped_root
    res = sug_language_upto(wrapped, 2, FUZZ_BUDGET)
    assert res.words == (("a",),)


# --------------------------------------------------------------------------
# Canonical models


def test_canonical_fs_on_a_push_chain():
    cs = CStructure(
        domain_of({ROOT, address(1), address(1, 1)}),
        {ROOT: "X", address(1): "X", address(1, 1): "a"},
        {address(1): push_schema("next", "idx", "f"), address(1, 1): frozenset()},
    )
    res = canonical_fs(cs)
    assert isinstance(res, Consistent)
    m = res.model
    assert len(m.nodes) == 4  # two sequences, one isolated leaf, one value
    assert m.node_of(ROOT) != m.node_of(address(1))
    assert delta_path(m, m.node_of(address(1)), ("next",)) == m.node_of(ROOT)
    assert m.alpha[delta_path(m, m.node_of(address(1)), ("idx",))] == "f"
    assert satisfies_set(m, collect_equations(cs))
    assert well_defined_check(m).well_defined


def test_canonical_fs_on_a_deep_push_chain():
    # 2,000 pushes, then a pop per value down to a leaf: each sequence is
    # one node, and the pops read the values back in reverse
    n = 2000
    categories, eqsets, a = {ROOT: "X"}, {}, ROOT
    for k in range(2 * n):
        a = a.child(1)
        categories[a] = "X"
        value = "fg"[k % 2] if k < n else "fg"[(2 * n - 1 - k) % 2]
        eqsets[a] = (push_schema if k < n else pop_schema)("next", "idx", value)
    a = a.child(1)
    categories[a], eqsets[a] = "a", frozenset()
    m = canonical_fs(CStructure(domain_of(categories), categories, eqsets)).model
    # the root's sequence and one per push, the leaf, and the two values
    assert len(m.nodes) == 1 + n + 1 + 2
    top = m.node_of(address(*[1] * n))
    for k in reversed(range(n)):
        assert m.alpha[m.delta[top]["idx"]] == "fg"[k % 2]
        top = m.delta[top]["next"]
    assert top == m.node_of(ROOT) == m.node_of(address(*[1] * (2 * n)))


def test_canonical_fs_detects_demand_clashes():
    cs = CStructure(
        domain_of({ROOT, address(1), address(2), address(1, 1), address(2, 1), address(1, 1, 1), address(2, 1, 1)}),
        {
            ROOT: "X",
            address(1): "X",
            address(2): "X",
            address(1, 1): "X",
            address(2, 1): "X",
            address(1, 1, 1): "a",
            address(2, 1, 1): "a",
        },
        {
            address(1): copy_schema(),
            address(2): copy_schema(),
            address(1, 1): pop_schema("next", "idx", "v0"),
            address(2, 1): pop_schema("next", "idx", "v1"),
            address(1, 1, 1): frozenset(),
            address(2, 1, 1): frozenset(),
        },
    )
    res = canonical_fs(cs)
    assert isinstance(res, Inconsistent)
    assert isinstance(res.diagnosis, ValueClash)
    assert res.diagnosis.term == (address(1), ("idx",))
    assert {res.diagnosis.value_a, res.diagnosis.value_b} == {"v0", "v1"}
    # the least-model route reaches the same verdict
    assert isinstance(generates_check(cs), Inconsistent)


def test_canonical_fs_model_of_a_copy_a_push_a_pop_and_isolated_leaves():
    # sequences are numbered in address order, then the values sorted; the
    # push at 1 and the pop at 11 demand the same sequence, the pop at 3 the root's
    cs = CStructure(
        domain_of({ROOT, address(1), address(1, 1), address(1, 1, 1), address(2), address(2, 1), address(3), address(3, 1)}),
        {
            ROOT: "S",
            address(1): "A",
            address(1, 1): "B",
            address(1, 1, 1): "a",
            address(2): "C",
            address(2, 1): "b",
            address(3): "D",
            address(3, 1): "c",
        },
        {
            address(1): push_schema("next", "idx", "f"),
            address(1, 1): pop_schema("next", "idx", "f"),
            address(1, 1, 1): frozenset(),
            address(2): copy_schema(),
            address(2, 1): frozenset(),
            address(3): pop_schema("next", "idx", "g"),
            address(3, 1): frozenset(),
        },
    )
    m = canonical_fs(cs).model
    assert m.nodes == tuple(range(8))
    assert m.delta == {1: {"next": 0, "idx": 6}, 0: {"next": 4, "idx": 7}}
    assert m.alpha == {6: "f", 7: "g"}
    assert m.names == {
        ROOT: 0,
        address(1): 1,
        address(1, 1): 0,
        address(1, 1, 1): 2,
        address(2): 0,
        address(2, 1): 3,
        address(3): 4,
        address(3, 1): 5,
    }


@pytest.mark.parametrize(
    "schemata, term",
    [
        # pops at 11 and 12 demand their mother's sequence: the term names 1
        (
            {
                (1,): copy_schema(),
                (1, 1): pop_schema("next", "idx", "f"),
                (1, 1, 1): frozenset(),
                (1, 2): pop_schema("next", "idx", "g"),
                (1, 2, 1): frozenset(),
            },
            address(1),
        ),
        # a push demands its own sequence, which the pop below its copy
        # daughter 111 demands again: the term names the pushing 11
        (
            {
                (1,): copy_schema(),
                (1, 1): push_schema("next", "idx", "f"),
                (1, 1, 1): copy_schema(),
                (1, 1, 1, 1): pop_schema("next", "idx", "g"),
                (1, 1, 1, 1, 1): frozenset(),
            },
            address(1, 1),
        ),
    ],
)
def test_canonical_fs_clash_names_where_the_first_demand_was_made(schemata, term):
    eqsets = {address(*x): schema for x, schema in schemata.items()}
    categories = {x: "S" if schema else "a" for x, schema in eqsets.items()}
    cs = CStructure(domain_of({ROOT, *eqsets}), {ROOT: "S", **categories}, eqsets)
    res = canonical_fs(cs)
    assert isinstance(res, Inconsistent)
    assert res.diagnosis == ValueClash((term, ("idx",)), "f", "g")


def test_canonical_fs_preconditions():
    # an internal node with an empty schema cannot be mapped
    cs = CStructure(
        domain_of({ROOT, address(1), address(1, 1)}),
        {ROOT: "X", address(1): "X", address(1, 1): "a"},
        {address(1): frozenset(), address(1, 1): frozenset()},
    )
    with pytest.raises(PreconditionError):
        canonical_fs(cs)
    cs = CStructure(
        domain_of({ROOT, address(1), address(1, 1)}),
        {ROOT: "X", address(1): "X", address(1, 1): "a"},
        {address(1): frozenset({ArrowValEq(UP, ("num",), "sg")}), address(1, 1): frozenset()},
    )
    with pytest.raises(PreconditionError):
        canonical_fs(cs)


def test_canonical_fs_rejects_two_attribute_pairs():
    cs = CStructure(
        domain_of({ROOT, address(1), address(1, 1), address(1, 1, 1)}),
        {ROOT: "X", address(1): "X", address(1, 1): "X", address(1, 1, 1): "a"},
        {
            address(1): push_schema("next", "idx", "f"),
            address(1, 1): pop_schema("rest", "top", "f"),
            address(1, 1, 1): frozenset(),
        },
    )
    with pytest.raises(PreconditionError, match=r"schema at 11 uses attribute pair \('rest', 'top'\), elsewhere \('next', 'idx'\)"):
        canonical_fs(cs)


def test_canonical_fs_agrees_with_the_least_model():
    rng = random.Random(20260819)
    for _ in range(300):
        cs = rand_ugi_cstructure(rng)
        canonical = canonical_fs(cs)
        least = generates_check(cs)
        assert canonical.consistent == least.consistent, f"disagreement on {cs}"
        if canonical.consistent:
            eqs = collect_equations(cs)
            assert satisfies_set(canonical.model, eqs)
            assert satisfies_set(least.model, eqs)
            assert well_defined_check(canonical.model).well_defined


# --------------------------------------------------------------------------
# Fuzzed generator sanity


def test_fuzzed_reduced_grammars_pass_their_own_checks():
    rng = random.Random(11)
    for _ in range(25):
        g = rand_reduced_ugi(rng)
        report = ugi_check(g)
        assert report.is_ugi and report.is_reduced


# --------------------------------------------------------------------------
# Printing

_PRINT_WITNESSES = """
from pathlib import Path
from glab import parse_unification_grammar, sug_membership, ugi_membership

fixtures = Path(%r)
g = parse_unification_grammar((fixtures / "example2_u.ugr").read_text())
print(ugi_membership(g, "dddd").witness)
g = parse_unification_grammar((fixtures / "agreement.ugr").read_text())
print(repr(sug_membership(g, "these dogs").witness.domain))
"""


def test_cstructure_repr_lists_addresses_in_order_and_schemata_sorted():
    a1, a11 = address(1), address(1, 1)
    # dicts filled in reverse address order
    cs = CStructure(
        domain_of({a11, a1, ROOT}),
        {a11: "a", a1: "A", ROOT: "S"},
        {a11: frozenset(), a1: push_schema("next", "idx", "v")},
    )
    root, one, oneone = "TreeAddress(digits=())", "TreeAddress(digits=(1,))", "TreeAddress(digits=(1, 1))"
    push = (
        "ArrowPathEq(left=<Arrow.DOWN: 'dn'>, left_path=('next',), right=<Arrow.UP: 'up'>, right_path=()), "
        "ArrowValEq(side=<Arrow.DOWN: 'dn'>, path=('idx',), value='v')"
    )
    assert repr(cs) == (
        f"CStructure(domain=TreeDomain(addresses=frozenset({{{root}, {one}, {oneone}}})), "
        f"categories={{{root}: 'S', {one}: 'A', {oneone}: 'a'}}, "
        f"eqsets={{{one}: frozenset({{{push}}}), {oneone}: frozenset()}})"
    )


def test_cstructures_print_the_same_under_every_hash_seed():
    src = Path(glab.__file__).resolve().parents[1]
    code = _PRINT_WITNESSES % str(src.parent / "fixtures")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert "TreeAddress(digits=(1, 1, 1, 1, 1, 1, 1, 1))" in outputs[0]
    assert outputs[0] == outputs[1]

"""The rule-by-rule map between the two grammar kinds, its inverse, and the
derivation-tree / c-structure conversions that ride on it."""

import random
from dataclasses import replace

import pytest

from glab import (
    Budget,
    Daughter,
    FeatureStructure,
    GrammarError,
    LexRule,
    NodeLabel,
    PreconditionError,
    ROOT,
    RuleCorrespondence,
    SimpleUnificationGrammar,
    UProduction,
    address,
    canonical_fs,
    collect_equations,
    copy_schema,
    cstructure_from_derivation,
    derivation_from_cstructure,
    end_marker,
    enumerate_derivations,
    generates_check,
    idx_lst,
    idx_lst_dollar,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    marked_index_end_check,
    parse_indexed_grammar,
    pop_schema,
    push_schema,
    reduced_form_check,
    reverse_u,
    satisfies_set,
    sink_map_root,
    sug_membership,
    suffix_chain_structure,
    tree_of,
    u_transform,
    ugi_check,
    ugi_language_upto,
    validate_cstructure,
    validate_derivation_tree,
)

from helpers import FUZZ_BUDGET, all_words, fs_isomorphic, rand_reduced_marked_indexed, rand_reduced_ugi, shallow_recursion
from test_indexed import doubling_grammar, lockstep_grammar


def expected_doubling_image() -> SimpleUnificationGrammar:
    push = lambda v: push_schema("next", "idx", v)
    pop = lambda v: pop_schema("next", "idx", v)
    return SimpleUnificationGrammar(
        nonterminals=("S", "A", "B", "C", "C'", "D"),
        terminals=("d",),
        attributes=("next", "idx"),
        values=("$", "f", "g"),
        productions=(
            UProduction("S", (Daughter("A", push("$")),)),
            UProduction("A", (Daughter("B", push("f")),)),
            UProduction("B", (Daughter("B", push("g")),)),
            UProduction("B", (Daughter("C", copy_schema()), Daughter("C", copy_schema()))),
            UProduction("C", (Daughter("C'", pop("g")),)),
            UProduction("C", (Daughter("D", pop("f")),)),
            UProduction("C'", (Daughter("C", copy_schema()), Daughter("C", copy_schema()))),
        ),
        lexicon=(LexRule("D", "d", frozenset()),),
        start="S",
    )


# --------------------------------------------------------------------------
# Rule correspondences


def test_correspondence_validation():
    with pytest.raises(GrammarError):
        RuleCorrespondence((("production", 0), ("production", 0)))
    with pytest.raises(GrammarError):
        RuleCorrespondence((("rule", 0),))
    corr = RuleCorrespondence((("production", 0), ("lexicon", 0)))
    assert len(corr) == 2
    assert corr.image(1) == ("lexicon", 0)
    assert corr.preimage(("production", 0)) == 0
    with pytest.raises(GrammarError):
        corr.image(2)
    with pytest.raises(GrammarError):
        corr.preimage(("lexicon", 3))


# --------------------------------------------------------------------------
# Forward map


def test_u_transform_of_the_doubling_grammar():
    gu, corr = u_transform(doubling_grammar())
    assert gu == expected_doubling_image()
    assert corr.images == tuple(("production", k) for k in range(7)) + (("lexicon", 0),)


def test_u_transform_preconditions():
    with pytest.raises(PreconditionError):
        u_transform(lockstep_grammar())  # not reduced
    g = doubling_grammar()
    from glab import IndexedGrammar, Plain

    unmarked = IndexedGrammar(g.symbols, g.productions + (Plain("B", ("S", "S")),), g.start)
    assert reduced_form_check(unmarked).is_reduced
    with pytest.raises(PreconditionError):
        u_transform(unmarked)


def test_u_transform_preserves_the_language():
    g = doubling_grammar()
    gu, _ = u_transform(g)
    left = indexed_language_upto(g, 8)
    right = ugi_language_upto(gu, 8)
    assert left.words == right.words == (("d", "d"), ("d",) * 4, ("d",) * 8)
    assert not left.exhausted and not right.exhausted


def test_images_of_the_acceptance_4_corpus_agree_with_the_reference_sweep():
    """Acceptance 4's grammars (same seed) against their images decided word
    by word by sug_membership, the reference c-structure engine, so that a
    fault the stack engine's two compilations share would show.  A grammar
    is compared only where neither side is cut short."""
    rng = random.Random(40426)
    budget = replace(FUZZ_BUDGET, max_trees=5000)
    compared = 0
    for _ in range(100):
        gi = rand_reduced_marked_indexed(rng)
        left = indexed_language_upto(gi, 3, FUZZ_BUDGET)
        gu, _ = u_transform(gi)
        answers = [(w, sug_membership(gu, w, budget)) for w in all_words(gu.terminals, 3)]
        if left.exhausted or any(r.exhausted for _, r in answers):
            continue
        assert set(left.words) == {w for w, r in answers if r.member}, gi
        compared += 1
    assert compared >= 80


# --------------------------------------------------------------------------
# Backward map


def test_reverse_u_round_trips_the_doubling_grammar():
    g = doubling_grammar()
    gu, corr = u_transform(g)
    gi, corr_back = reverse_u(gu)
    assert gi == g
    assert corr_back.images == corr.images
    gu2, corr2 = u_transform(gi)
    assert gu2 == gu and corr2.images == corr.images


def test_reverse_u_preconditions():
    gu, _ = u_transform(doubling_grammar())
    # not stack-form
    from test_unification import agreement_grammar

    with pytest.raises(PreconditionError):
        reverse_u(agreement_grammar())
    # stack-form and reduced, but the start symbol is not isolated
    no_sink = SimpleUnificationGrammar(
        ("S", "T"), ("a",), ("next", "idx"), ("f",),
        (
            UProduction("S", (Daughter("T", push_schema("next", "idx", "f")),)),
            UProduction("T", (Daughter("S", pop_schema("next", "idx", "f")),)),
        ),
        (LexRule("T", "a", frozenset()),),
        "S",
    )
    with pytest.raises(PreconditionError):
        reverse_u(no_sink)
    # value symbols that collide with the vocabulary cannot become indices
    clash = SimpleUnificationGrammar(
        ("S", "T"), ("a",), ("next", "idx"), ("a",),
        (UProduction("S", (Daughter("T", push_schema("next", "idx", "a")),)),),
        (LexRule("T", "a", frozenset()),),
        "S",
    )
    with pytest.raises(PreconditionError):
        reverse_u(clash)
    # the start symbol must stay out of the lexicon
    lex_start = SimpleUnificationGrammar(
        ("S", "T"), ("a",), ("next", "idx"), ("$",),
        (UProduction("S", (Daughter("T", push_schema("next", "idx", "$")),)),),
        (LexRule("T", "a", frozenset()), LexRule("S", "", frozenset())),
        "S",
    )
    with pytest.raises(PreconditionError):
        reverse_u(lex_start)


def test_reverse_u_names_the_lexicon_when_the_start_symbol_has_a_word():
    g = SimpleUnificationGrammar(
        ("S", "T"), ("a",), ("next", "idx"), ("$",),
        (UProduction("S", (Daughter("T", push_schema("next", "idx", "$")),)),),
        (LexRule("T", "a", frozenset()), LexRule("S", "a", frozenset())),
        "S",
    )
    report = ugi_check(g)
    assert report.is_ugi and report.is_reduced and report.has_sink_mapped_root
    with pytest.raises(PreconditionError, match="the start symbol may not occur in the lexicon"):
        reverse_u(g)


def test_reverse_u_names_the_offender_of_a_grammar_that_is_not_reduced():
    # stack-form, but T -> U is a unary copy rule
    g = SimpleUnificationGrammar(
        ("S", "T", "U"), ("a",), ("next", "idx"), ("$",),
        (
            UProduction("S", (Daughter("T", push_schema("next", "idx", "$")),)),
            UProduction("T", (Daughter("U", copy_schema()),)),
        ),
        (LexRule("U", "a", frozenset()),),
        "S",
    )
    assert ugi_check(g).is_ugi and not ugi_check(g).is_reduced
    with pytest.raises(PreconditionError, match="not reduced; offender: production 1: not a unary push/pop or binary copy-copy rule"):
        reverse_u(g)


def test_reverse_then_forward_is_the_identity_on_fuzzed_grammars():
    rng = random.Random(20260819)
    for _ in range(25):
        gu = sink_map_root(rand_reduced_ugi(rng))
        gi, corr = reverse_u(gu)
        assert reduced_form_check(gi).is_reduced
        assert marked_index_end_check(gi)
        gu2, corr2 = u_transform(gi)
        assert gu2 == gu
        assert corr2.images == corr.images


@pytest.mark.parametrize("terminal, value", [("$", "f"), ("a", "S_0")])
def test_sink_map_root_output_reverses_whatever_the_vocabulary(terminal, value):
    # the fresh start, spine, filler and marker must avoid every declared
    # nonterminal, terminal and value, or reverse_u sees a name clash
    g = SimpleUnificationGrammar(
        ("S", "A"),
        (terminal,),
        ("next", "idx"),
        (value,),
        (UProduction("S", (Daughter("A", push_schema("next", "idx", value)),)),),
        (LexRule("A", terminal, frozenset()),),
        "S",
    )
    gi, _ = reverse_u(sink_map_root(g))
    assert indexed_language_upto(gi, 2).words == ((terminal,),)


def test_end_marker():
    assert end_marker(doubling_grammar()) == "$"
    assert end_marker(mark_index_end(lockstep_grammar())) == "$"
    with pytest.raises(PreconditionError):
        end_marker(lockstep_grammar())


# --------------------------------------------------------------------------
# Value strings below a model node


def test_idx_lst_reads_the_value_string():
    m = suffix_chain_structure([("f", "$", "g", "$")], {ROOT: ("f", "$", "g", "$")})
    q = m.node_of(ROOT)
    assert idx_lst(m, q) == ("f", "$", "g", "$")
    assert idx_lst_dollar(m, q, "$") == ("f", "$")
    assert idx_lst_dollar(m, q, "missing") == ()
    # a valued node is its own one-symbol string
    valued = next(n for n, v in m.alpha.items() if v == "g")
    assert idx_lst(m, valued) == ("g",)
    # a node with no edges reads as the empty string
    empty = next(n for n in m.nodes if not m.out_edges(n) and n not in m.alpha)
    assert idx_lst(m, empty) == ()


def test_idx_lst_rejects_cycles_and_unknown_nodes():
    m = FeatureStructure((0, 1), {0: {"next": 0, "idx": 1}}, {1: "f"}, {ROOT: 0})
    with pytest.raises(PreconditionError):
        idx_lst(m, 0)
    with pytest.raises(GrammarError):
        idx_lst(m, 9)


# --------------------------------------------------------------------------
# Tree conversions on the doubling derivation


def doubling_witness():
    res = indexed_membership(doubling_grammar(), "dddd")
    assert res.member
    return res.witness


def test_cstructure_from_derivation_shape():
    g = doubling_grammar()
    t = doubling_witness()
    cs, m = cstructure_from_derivation(g, t)
    assert cs.domain.addresses == t.domain.addresses
    for a in t.domain.sorted_addresses:
        assert cs.categories[a] == t.symbol_at(a)
    gu, _ = u_transform(g)
    assert validate_cstructure(gu, cs).ok
    assert satisfies_set(m, collect_equations(cs))
    # the stacks of the tree are realized as value strings
    assert idx_lst(m, m.node_of(ROOT)) == ()
    assert idx_lst(m, m.node_of(address(1))) == ("$",)
    assert idx_lst(m, m.node_of(address(1, 1))) == ("f", "$")
    assert idx_lst(m, m.node_of(address(1, 1, 1))) == ("g", "f", "$")
    # suffix sharing keeps the structure small: 4 suffixes + 3 symbols
    assert len(m.nodes) == 7


def test_cstructure_from_derivation_rejects_foreign_trees():
    g = doubling_grammar()
    t = doubling_witness()
    labels = dict(t.labels)
    labels[address(1)] = NodeLabel("A", ("f",))
    with pytest.raises(PreconditionError):
        cstructure_from_derivation(g, tree_of(labels))


def test_derivation_round_trips_through_every_model():
    g = doubling_grammar()
    t = doubling_witness()
    cs, chain = cstructure_from_derivation(g, t)
    least = generates_check(cs).model
    canonical = canonical_fs(cs).model
    for m in (chain, least, canonical):
        assert derivation_from_cstructure(g, cs, m) == t


def test_canonical_and_least_models_coincide_here():
    g = doubling_grammar()
    cs, _ = cstructure_from_derivation(g, doubling_witness())
    least = generates_check(cs).model
    canonical = canonical_fs(cs).model
    assert len(least.nodes) == len(canonical.nodes) == 11
    assert fs_isomorphic(least, canonical)


def test_derivation_from_cstructure_rejects_bad_inputs():
    g = doubling_grammar()
    t = doubling_witness()
    cs, m = cstructure_from_derivation(g, t)
    # a c-structure the transformed grammar does not license
    bad_cats = {**dict(cs.categories), address(1): "D"}
    bad_cs = type(cs)(cs.domain, bad_cats, cs.eqsets)
    with pytest.raises(PreconditionError):
        derivation_from_cstructure(g, bad_cs, m)
    # a structure that fails the instantiated equations
    flat = FeatureStructure((0,), {}, {}, {a: 0 for a in cs.domain.addresses})
    with pytest.raises(PreconditionError):
        derivation_from_cstructure(g, cs, flat)


def test_derivation_from_cstructure_rejects_non_generated_models():
    # a structure can satisfy every equation and still not be a generated
    # model: planting a value on an internal class node truncates its value
    # string, so the rebuilt stacks no longer form a derivation
    g = doubling_grammar()
    t = doubling_witness()
    cs, _ = cstructure_from_derivation(g, t)
    least = generates_check(cs).model
    doctored = FeatureStructure(
        least.nodes,
        least.delta,
        {**dict(least.alpha), least.node_of(address(1)): "g"},
        least.names,
    )
    assert satisfies_set(doctored, collect_equations(cs))
    with pytest.raises(GrammarError):
        derivation_from_cstructure(g, cs, doctored)


# --------------------------------------------------------------------------
# Fuzz: conversions round trip on random grammars


def test_tree_conversions_round_trip_on_fuzzed_grammars():
    rng = random.Random(20260819)
    budget = Budget(max_nodes=10, max_trees=5)
    rounds = 0
    for _ in range(25):
        g = rand_reduced_marked_indexed(rng)
        for t in enumerate_derivations(g, budget):
            assert validate_derivation_tree(g, t).ok
            cs, chain = cstructure_from_derivation(g, t)
            assert derivation_from_cstructure(g, cs, chain) == t
            least = generates_check(cs)
            assert least.consistent
            assert derivation_from_cstructure(g, cs, least.model) == t
            rounds += 1
    assert rounds >= 30


# a^n pushes n f's, then pops one per a: stacks n+2 deep, one per tree level
DEEP_STACKS = """\
nonterminals S0 S T P Q E X
terminals a
indices $ f g
start S0
S0 -> S ^$
S -> T ^g
T -> T ^f
T -> P E
P ^f -> Q
Q -> X P
P ^g -> E
E -> _
X -> a
"""


def test_tree_conversions_of_a_deep_witness_do_not_recurse_per_stack_entry():
    g = parse_indexed_grammar(DEEP_STACKS)
    t = indexed_membership(g, "a" * 150).witness
    assert len(t.domain) == 758
    with shallow_recursion():
        assert derivation_from_cstructure(g, *cstructure_from_derivation(g, t)) == t

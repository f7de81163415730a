"""Feature structures, equation solving, and the linked-list string encoding.

The solver's verdicts are cross-checked against an exhaustive oracle that
enumerates set partitions of the term set (helpers.oracle_satisfiable).
"""

import random

import pytest

from glab import (
    AtomicityViolation,
    CycleDetected,
    FeatureStructure,
    GrammarError,
    PathEq,
    PreconditionError,
    ROOT,
    ValEq,
    ValueClash,
    address,
    delta_path,
    satisfies,
    satisfies_set,
    solve,
    suffix_chain_structure,
    well_defined_check,
)
from glab.features import format_path, solve_rooted

from helpers import oracle_satisfiable, rand_equation_set, sample_until, small_term_set

N1, N2 = address(1), address(2)


def chain_model() -> FeatureStructure:
    # 0 -p-> 1 -q-> 2(=u); node 3 is a second entry point at 1
    return FeatureStructure(
        nodes=(0, 1, 2),
        delta={0: {"p": 1}, 1: {"q": 2}},
        alpha={2: "u"},
        names={N1: 0, N2: 1},
    )


# --------------------------------------------------------------------------
# Shape validation and lookups


def test_structure_shape_validation():
    with pytest.raises(GrammarError):
        FeatureStructure((0, 0), {}, {}, {})
    with pytest.raises(GrammarError):
        FeatureStructure((0,), {1: {"p": 0}}, {}, {})
    with pytest.raises(GrammarError):
        FeatureStructure((0,), {0: {"p": 1}}, {}, {})
    with pytest.raises(GrammarError):
        FeatureStructure((0,), {0: {"": 0}}, {}, {})
    with pytest.raises(GrammarError):
        FeatureStructure((0,), {}, {1: "u"}, {})
    with pytest.raises(GrammarError):
        FeatureStructure((0,), {}, {}, {ROOT: 1})


def test_delta_path_and_node_of():
    m = chain_model()
    assert delta_path(m, 0, ()) == 0
    assert delta_path(m, 0, ("p", "q")) == 2
    assert delta_path(m, 0, ("q",)) is None
    assert delta_path(m, 0, ("p", "p")) is None
    assert m.node_of(N2) == 1
    with pytest.raises(PreconditionError):
        m.node_of(address(9))


# --------------------------------------------------------------------------
# Well-definedness: three independent verdicts with deterministic witnesses


def test_well_defined_on_a_clean_model():
    report = well_defined_check(chain_model())
    assert report.well_defined
    assert report.describable and report.atomic and report.acyclic


def test_unreachable_node_breaks_describability():
    m = FeatureStructure((0, 1, 2), {0: {"p": 1}}, {}, {N1: 0})
    report = well_defined_check(m)
    assert not report.describable and report.unreachable == 2
    assert report.atomic and report.acyclic


def test_valued_node_with_an_edge_breaks_atomicity():
    m = FeatureStructure((0, 1), {0: {"p": 1}, 1: {"q": 0}}, {1: "u"}, {N1: 0})
    report = well_defined_check(m)
    assert not report.atomic and report.atom_with_edge == 1


def test_cycle_breaks_acyclicity():
    m = FeatureStructure((0, 1), {0: {"p": 1}, 1: {"q": 0}}, {}, {N1: 0})
    report = well_defined_check(m)
    assert not report.acyclic
    node, path = report.cycle
    assert delta_path(m, node, path) == node and len(path) == 2


# --------------------------------------------------------------------------
# Equations


def test_value_equations_need_a_path():
    with pytest.raises(GrammarError):
        ValEq(N1, (), "u")


def test_equation_rendering():
    assert str(PathEq(N1, ("p",), N2, ())) == "1.p = 2"
    assert str(ValEq(N1, ("p", "q"), "u")) == "1.p.q = u"


def test_satisfaction_requires_definedness():
    m = chain_model()
    assert satisfies(m, PathEq(N1, ("p",), N2, ()))
    assert satisfies(m, ValEq(N2, ("q",), "u"))
    assert satisfies(m, ValEq(N1, ("p", "q"), "u"))
    assert not satisfies(m, ValEq(N1, ("p", "q"), "v"))
    assert not satisfies(m, PathEq(N1, ("z",), N2, ()))  # undefined path
    assert not satisfies(m, PathEq(N1, (), N2, ()))
    assert satisfies_set(m, [PathEq(N1, ("p",), N2, ()), ValEq(N2, ("q",), "u")])
    assert not satisfies_set(m, [PathEq(N1, ("p",), N2, ()), ValEq(N2, ("q",), "v")])


# --------------------------------------------------------------------------
# Solving


def test_solve_builds_the_least_model():
    eqs = [PathEq(N1, ("p",), N2, ()), ValEq(N1, ("p", "q"), "u")]
    res = solve(eqs, [N1, N2])
    assert res.consistent
    m = res.model
    assert len(m.nodes) == 3
    assert satisfies_set(m, eqs)
    assert well_defined_check(m).well_defined
    assert m.node_of(N1) != m.node_of(N2)
    assert delta_path(m, m.node_of(N1), ("p",)) == m.node_of(N2)


def test_solve_merges_names():
    res = solve([PathEq(N1, (), N2, ())], [N1, N2])
    assert res.consistent and res.model.node_of(N1) == res.model.node_of(N2)
    assert len(res.model.nodes) == 1


def test_solve_with_no_equations():
    res = solve([], [N1, N2])
    assert res.consistent and len(res.model.nodes) == 2
    assert res.model.alpha == {} and res.model.delta == {}


def test_solve_reports_value_clash_first():
    eqs = [
        ValEq(N1, ("p",), "u"),
        ValEq(N1, ("p",), "v"),
        PathEq(N1, ("q",), N1, ()),  # also a cycle
    ]
    res = solve(eqs, [N1])
    assert not res.consistent
    assert isinstance(res.diagnosis, ValueClash)
    assert res.diagnosis.term == (N1, ("p",))
    assert (res.diagnosis.value_a, res.diagnosis.value_b) == ("u", "v")


def test_solve_reports_atomicity_before_cycles():
    eqs = [
        ValEq(N1, ("p",), "u"),
        PathEq(N1, ("p", "q"), N1, ("p",)),  # valued node with a self loop
    ]
    res = solve(eqs, [N1])
    assert not res.consistent
    assert isinstance(res.diagnosis, AtomicityViolation)
    assert res.diagnosis.term == (N1, ("p",))


def test_solve_reports_cycles():
    res = solve([PathEq(N1, ("p",), N1, ())], [N1])
    assert not res.consistent
    assert isinstance(res.diagnosis, CycleDetected)
    assert res.diagnosis.term == (N1, ())
    assert res.diagnosis.path == ("p",)


def test_diagnoses_render_their_term_and_path():
    assert str(ValueClash((N1, ("p",)), "u", "v")) == "value clash at 1.p: u vs v"
    assert str(AtomicityViolation((N2, ("p", "q")))) == "atomic node with outgoing attribute at 2.p.q"
    assert str(CycleDetected((ROOT, ()), ("p", "q"))) == "attribute cycle at eps via p.q"
    assert str(solve([PathEq(N1, ("p",), N1, ())], [N1]).diagnosis) == "attribute cycle at 1 via p"
    assert format_path(()) == "eps"

    # each witness names the first term of its class, whichever name reaches it
    cases = [
        # a two-edge cycle reached only from the second name
        ([PathEq(N2, ("a", "b", "c"), N2, ("a",))], CycleDetected((N2, ("a",)), ("b", "c"))),
        # entered from N1.q, but the class's first term is 2.a.b
        (
            [
                ValEq(N1, ("p",), "u"),
                PathEq(N2, ("a", "b", "c"), N2, ("a",)),
                PathEq(N2, ("a", "b"), N1, ("q",)),
            ],
            CycleDetected((N2, ("a", "b")), ("c", "b")),
        ),
        # a valued node with an out-edge on a class after the first
        (
            [PathEq(N1, ("p",), N2, ("q",)), ValEq(N2, ("r",), "u"), PathEq(N2, ("r", "s"), N1, ("p",))],
            AtomicityViolation((N2, ("r",))),
        ),
        # N1 gains its z edge before its a edge, and each leads to a cycle:
        # the one named is the first over attribute-sorted edges, through a
        (
            [PathEq(N1, ("z", "z"), N1, ("z",)), PathEq(N2, ("x",), N1, ("a",)), PathEq(N2, ("x",), N1, ("a", "a"))],
            CycleDetected((N2, ("x",)), ("a",)),
        ),
    ]
    for eqs, diagnosis in cases:
        res = solve(eqs, [N1, N2])
        assert not res.consistent and res.diagnosis == diagnosis


def test_solve_functional_closure_propagates():
    # merging n1 and n2 forces their p-successors together, clashing u vs v
    eqs = [
        ValEq(N1, ("p",), "u"),
        ValEq(N2, ("p",), "v"),
        PathEq(N1, (), N2, ()),
    ]
    res = solve(eqs, [N1, N2])
    assert not res.consistent and isinstance(res.diagnosis, ValueClash)


def test_solve_rejects_foreign_names():
    with pytest.raises(PreconditionError):
        solve([ValEq(N2, ("p",), "u")], [N1])


def test_solve_is_deterministic():
    eqs = [ValEq(N1, ("p",), "u"), PathEq(N1, ("q",), N2, ()), ValEq(N2, ("p", "q"), "v")]
    assert solve(eqs, [N1, N2]) == solve(list(reversed(eqs)), [N2, N1])


def test_solve_agrees_with_the_partition_oracle():
    rng = random.Random(20260819)
    cases = sample_until(lambda: rand_equation_set(rng), small_term_set, 120, 1200)
    for eqs, names in cases:
        res = solve(eqs, names)
        assert res.consistent == oracle_satisfiable(eqs, names), f"disagreement on {eqs}"
        # the reference engine's verdict on the same closure is the same
        assert (solve_rooted(eqs, names[0], ()) is None) == (not res.consistent), f"disagreement on {eqs}"
        if res.consistent:
            m = res.model
            assert satisfies_set(m, eqs)
            assert well_defined_check(m).well_defined
            # least model: never more nodes than distinct terms
            assert len(m.nodes) <= len({t for e in eqs for t in _terms(e)} | {(n, ()) for n in names})


def _terms(e):
    if isinstance(e, PathEq):
        sides = [(e.left_name, e.left_path), (e.right_name, e.right_path)]
    else:
        sides = [(e.name, e.path)]
    return [(n, p[:i]) for n, p in sides for i in range(len(p) + 1)]


# --------------------------------------------------------------------------
# Linked-list encoding of symbol strings


def test_suffix_chain_shape():
    m = suffix_chain_structure([("g", "f", "$")], {ROOT: ("g", "f", "$")})
    assert len(m.nodes) == 7  # four suffixes plus three symbol nodes
    q = m.node_of(ROOT)
    assert m.alpha[delta_path(m, q, ("idx",))] == "g"
    assert m.alpha[delta_path(m, q, ("next", "idx"))] == "f"
    assert m.alpha[delta_path(m, q, ("next", "next", "idx"))] == "$"
    empty = delta_path(m, q, ("next", "next", "next"))
    assert empty is not None and m.out_edges(empty) == {} and empty not in m.alpha
    assert well_defined_check(m).well_defined


def test_suffix_chain_shares_suffixes_and_symbols():
    m = suffix_chain_structure(
        [("f", "f"), ("f",)],
        {address(1): ("f", "f"), address(2): ("f",)},
        next_attr="n",
        idx_attr="i",
    )
    # suffixes ff, f, eps plus the one symbol node
    assert len(m.nodes) == 4
    a, b = m.node_of(address(1)), m.node_of(address(2))
    assert delta_path(m, a, ("n",)) == b
    assert delta_path(m, a, ("i",)) == delta_path(m, b, ("i",))


def test_suffix_chain_rejects_non_suffix_names():
    with pytest.raises(GrammarError):
        suffix_chain_structure([("f", "g")], {ROOT: ("f",)})

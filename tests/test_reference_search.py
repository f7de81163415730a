"""The searches of the reference side: the c-structure enumerator's memo walk
on long unary chains, answers that once took seconds, and the cycle search
of the well-definedness check."""

import random
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

from glab import (
    ROOT,
    FeatureStructure,
    delta_path,
    enumerate_cstructures,
    parse_unification_grammar,
    sug_language_upto,
    sug_membership,
    well_defined_check,
)
from helpers import shallow_recursion, unary_chain

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("empty_entry", [False, True], ids=["plain", "empty-entry"])
def test_reference_engine_walks_long_unary_chains_without_recursion(empty_entry):
    g = unary_chain(150, empty_entry)
    with shallow_recursion():
        r = sug_membership(g, "a")
        structures = list(enumerate_cstructures(g, "a"))
        words = sug_language_upto(g, 1).words
    assert r.member and not r.exhausted
    assert len(structures) == 1 and structures[0].domain.height == 151
    assert words == (("a",),)


def test_ddddd_and_a_chain_of_2000_links_are_answered_under_the_default_budget():
    # B -> B is a unit cycle, so every span admits sizes up to max_nodes;
    # the packed memo keeps no inconsistent subtree, so no root is read
    g = parse_unification_grammar((FIXTURES / "example2_u.ugr").read_text())
    r = sug_membership(g, "ddddd")
    assert not r.member and not r.exhausted and r.reasons == () and r.stats.trees == 0
    # listed mother-first, the chain's size chart is complete in one pass
    r = sug_membership(unary_chain(2000), "a")
    assert r.member and not r.exhausted and r.witness.domain.height == 2001


def _random_structure(rng: random.Random) -> FeatureStructure:
    nodes = tuple(rng.sample(range(30), rng.randint(1, 10)))
    delta = {}
    for q in nodes:
        if rng.random() < 0.6:
            delta[q] = {a: rng.choice(nodes) for a in rng.sample("pqrs", rng.randint(1, 3))}
    return FeatureStructure(nodes, delta, {}, {ROOT: nodes[0]})


def test_cycle_witness_returns_to_its_node_and_none_means_an_order_exists():
    rng = random.Random(20261019)
    found = 0
    for _ in range(2000):
        m = _random_structure(rng)
        cycle = well_defined_check(m).cycle
        if cycle is not None:
            found += 1
            node, path = cycle
            assert path and delta_path(m, node, path) == node, (m, cycle)
        else:
            # prepare raises CycleError when the edges have no order
            TopologicalSorter({q: set(m.out_edges(q).values()) for q in m.nodes}).prepare()
    # both branches are exercised
    assert 0 < found < 2000

"""Rooted structures of the reference engine against solve.

The packed memo of the reference engine keeps, per (category, span, size)
key, one subtree for each rooted structure: the least by rule sequence,
with its structure built from its daughters' structures and its own rule's
schemata.  Against the unpacked memo of the same key, solved tree by tree:
every packed structure must equal the part of solve's model that the
subtree's root reaches, and the packed entries must be exactly the least
subtree of each class of consistent unpacked ones, so that no subtree solve
rejects is kept and no consistent class is lost.  The grammars carry
arbitrary schemata, so the rejections cover attribute cycles, valued nodes
with edges and value clashes, inside parts that the root reaches and inside
parts that it does not.
"""

import random
from collections import Counter
from pathlib import Path

from glab import (
    AtomicityViolation,
    Budget,
    CycleDetected,
    SearchStats,
    ValueClash,
    parse_unification_grammar,
    solve,
    sug_membership,
)
from glab.features import EMPTY_ROOTED, PathEq, solve_rooted
from glab.trees import ROOT, address
from glab.unification import _equations, _node_edges, _SizedCsEnumerator

from helpers import all_words, rand_arbitrary_sug

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _projection(model):
    """The part of a model reachable from the root's node, numbered
    breadth-first over attribute-sorted edges."""
    first = model.names[ROOT]
    number, order, out = {first: 0}, [first], []
    for q in order:
        edges = []
        for a, r in sorted(model.out_edges(q).items()):
            if r not in number:
                number[r] = len(order)
                order.append(r)
            edges.append((a, number[r]))
        out.append((tuple(edges), model.alpha.get(q)))
    return tuple(out)


def _verdict(node):
    categories, edges = _node_edges(node)
    return solve(_equations(edges), categories.keys())


def test_packed_entries_are_the_least_subtree_of_each_consistent_class():
    rng = random.Random(4242)
    budget = Budget(max_nodes=9, max_trees=100)
    verdicts = Counter()
    for _ in range(120):
        g = rand_arbitrary_sug(rng)
        for w in all_words(g.terminals, 3):
            unpacked = _SizedCsEnumerator(g, w, budget, SearchStats())
            for _ in unpacked.nodes():
                pass
            packed = _SizedCsEnumerator(g, w, budget, SearchStats(), packed=True)
            for key, entries in unpacked.memo.items():
                # the least seq of each class of consistent subtrees; entries go by seq
                least = {}
                for n in entries:
                    result = _verdict(n)
                    if result.consistent:
                        verdicts["consistent"] += 1
                        least.setdefault(_projection(result.model), n[0])
                    else:
                        verdicts[type(result.diagnosis).__name__] += 1
                kept = packed.subtrees(*key)
                for n in kept:
                    result = _verdict(n)
                    assert result.consistent and packed.structures[n[3]] == _projection(result.model)
                assert len(kept) == len(least)
                assert {packed.structures[n[3]]: n[0] for n in kept} == least
    # the grammars reach every verdict, and often
    for kind in ("consistent", CycleDetected.__name__, AtomicityViolation.__name__, ValueClash.__name__):
        assert verdicts[kind] >= 100, verdicts


def test_a_cycle_that_the_root_does_not_reach_is_rejected():
    # the daughter's f points back at the daughter, and nothing leads there
    # from the mother
    d = address(1)
    assert solve_rooted([PathEq(d, ("f",), d, ())], ROOT, [(d, EMPTY_ROOTED)]) is None
    part = solve_rooted([PathEq(ROOT, ("f",), d, ())], ROOT, [(d, EMPTY_ROOTED)])
    assert part == (((("f", 1),), None), ((), None))


def test_ddd_is_decided_under_the_default_budget():
    # B -> B is a unit cycle, so the sizes run up to max_nodes; no subtree
    # of an inconsistent class is kept, so no root entry is read
    g = parse_unification_grammar((FIXTURES / "example2_u.ugr").read_text())
    r = sug_membership(g, "ddd")
    assert not r.member and not r.exhausted and r.reasons == () and r.stats.trees == 0

"""Rooted structures of the reference engine against solve.

Every memo entry of the reference engine carries a rooted structure, built
from its daughters' structures and its own rule's schemata.  It must be None
exactly when solve rejects the equations of the entry's whole subtree, and
otherwise equal the part of solve's model that the subtree's root reaches.
The grammars carry arbitrary schemata, so the rejections cover attribute
cycles, valued nodes with edges and value clashes, inside parts that the
root reaches and inside parts that it does not.
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
from glab.unification import _LEAF, _equations, _node_edges, _SizedCsEnumerator

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


def _subtrees(node):
    """Every non-leaf entry of a node tree, each once."""
    seen, todo = {}, [node]
    while todo:
        n = todo.pop()
        if n[0] == _LEAF or id(n) in seen:
            continue
        seen[id(n)] = n
        todo.extend(child for child, _ in n[2])
    return list(seen.values())


def test_rooted_structure_is_none_exactly_when_solve_rejects():
    rng = random.Random(4242)
    budget = Budget(max_nodes=9, max_trees=100)
    verdicts = Counter()
    for _ in range(120):
        g = rand_arbitrary_sug(rng)
        for w in all_words(g.terminals, 3):
            candidates = _SizedCsEnumerator(g, w, budget, SearchStats())
            checked = set()
            for node in candidates.nodes():
                for n in _subtrees(node):
                    if id(n) in checked:
                        continue
                    checked.add(id(n))
                    categories, edges = _node_edges(n)
                    result = solve(_equations(edges), categories.keys())
                    rooted = candidates.rooted(n)
                    if result.consistent:
                        verdicts["consistent"] += 1
                        assert rooted == _projection(result.model)
                    else:
                        verdicts[type(result.diagnosis).__name__] += 1
                        assert rooted is None
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
    # B -> B is a unit cycle, so the sizes run up to max_nodes; every
    # candidate is refuted by its rooted structure without being solved
    g = parse_unification_grammar((FIXTURES / "example2_u.ugr").read_text())
    r = sug_membership(g, "ddd")
    assert not r.member and not r.exhausted and r.reasons == ()

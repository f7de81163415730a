"""Shared generators and independent oracles for the test suite.

Fuzzed instances come from seeded random.Random objects so every run sees the
same cases.  Oracles deliberately use different algorithms than the code
under test: language sets are recomputed by exhaustive tree enumeration,
equation satisfiability by enumerating set partitions of the term set, and
structure isomorphism by canonical relabeling.
"""

from __future__ import annotations

import contextlib
import importlib.util
import random
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

from glab import (
    DOWN,
    UP,
    ArrowPathEq,
    ArrowValEq,
    Budget,
    CStructure,
    Daughter,
    FeatureStructure,
    IndexedGrammar,
    LexRule,
    PathEq,
    Plain,
    Pop,
    Push,
    ROOT,
    SimpleUnificationGrammar,
    SymbolTable,
    TreeAddress,
    UProduction,
    ValEq,
    address,
    copy_schema,
    domain_of,
    enumerate_derivations,
    mark_index_end,
    parse_unification_grammar,
    pop_schema,
    push_schema,
)
from glab.indexed import terminal_symbols
from glab.stackengine import POP

FUZZ_BUDGET = Budget(max_nodes=512, max_stack=16, max_states=4000, max_demand=8)
ROOT_DIR = Path(__file__).resolve().parent.parent


def bench_module(name: str):
    """A module of the benchmark in bench/, such as its corpora, loaded by
    path under the name bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT_DIR / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def shallow_recursion(headroom: int = 100):
    """Run the block with the recursion limit at the current frame depth
    plus headroom, so code that recurses once per tree level fails on deep
    trees instead of passing on a generous default limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def sample_until(make, accept, count, max_tries):
    """Collect `count` accepted instances; fails the test if the generator
    cannot produce enough within max_tries."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        assert tries <= max_tries, f"generator produced only {len(out)} instances in {max_tries} tries"
        inst = make()
        if accept(inst):
            out.append(inst)
    return out


# --------------------------------------------------------------------------
# Random grammars


def rand_reduced_marked_indexed(rng: random.Random) -> IndexedGrammar:
    """Reduced grammar over at most 3 nonterminals, 2 indices and 7 rules,
    wrapped with a dedicated stack-end push (so at most 4/3/8 after)."""
    nts = [f"N{i}" for i in range(rng.randint(1, 3))]
    terms = ["a", "b"][: rng.randint(1, 2)]
    idxs = [f"i{k}" for k in range(rng.randint(1, 2))]
    rules = []
    for _ in range(rng.randint(1, 7)):
        lhs = rng.choice(nts)
        shape = rng.randrange(5)
        if shape == 0:
            rules.append(Push(lhs, rng.choice(nts), rng.choice(idxs)))
        elif shape == 1:
            rules.append(Pop(lhs, rng.choice(idxs), (rng.choice(nts),)))
        elif shape == 2:
            rules.append(Plain(lhs, (rng.choice(nts), rng.choice(nts))))
        elif shape == 3:
            rules.append(Plain(lhs, (rng.choice(terms),)))
        else:
            rules.append(Plain(lhs, ()))
    g = IndexedGrammar(SymbolTable(tuple(nts), tuple(terms), tuple(idxs)), tuple(rules), nts[0])
    return mark_index_end(g)


def rand_reduced_ugi(rng: random.Random) -> SimpleUnificationGrammar:
    """Stack-form grammar in reduced shape (unary push/pop, binary copy-copy)
    with an empty-schema lexicon."""
    nts = [f"U{i}" for i in range(rng.randint(1, 3))]
    terms = ["a", "b"][: rng.randint(1, 2)]
    vals = [f"v{k}" for k in range(rng.randint(1, 2))]
    prods = []
    for _ in range(rng.randint(1, 5)):
        mother = rng.choice(nts)
        shape = rng.randrange(3)
        if shape == 0:
            prods.append(UProduction(mother, (Daughter(rng.choice(nts), push_schema("next", "idx", rng.choice(vals))),)))
        elif shape == 1:
            prods.append(UProduction(mother, (Daughter(rng.choice(nts), pop_schema("next", "idx", rng.choice(vals))),)))
        else:
            prods.append(UProduction(mother, (Daughter(rng.choice(nts), copy_schema()), Daughter(rng.choice(nts), copy_schema()))))
    lex = []
    for nt in nts:
        if rng.random() < 0.8:
            lex.append(LexRule(nt, rng.choice(terms + [""]), frozenset()))
    if not lex:
        lex.append(LexRule(nts[0], terms[0], frozenset()))
    return SimpleUnificationGrammar(
        tuple(nts), tuple(terms), ("next", "idx"), tuple(vals), tuple(prods), tuple(lex), nts[0]
    )


def rand_general_ugi(rng: random.Random) -> SimpleUnificationGrammar:
    """Stack-form grammar that need not be reduced: daughter counts 1-3,
    unit copy rules allowed."""
    nts = [f"U{i}" for i in range(rng.randint(1, 3))]
    terms = ["a", "b"][: rng.randint(1, 2)]
    vals = [f"v{k}" for k in range(rng.randint(1, 2))]

    def schema():
        s = rng.randrange(3)
        if s == 0:
            return copy_schema()
        if s == 1:
            return push_schema("next", "idx", rng.choice(vals))
        return pop_schema("next", "idx", rng.choice(vals))

    prods = []
    for _ in range(rng.randint(1, 5)):
        mother = rng.choice(nts)
        arity = rng.randint(1, 3)
        prods.append(UProduction(mother, tuple(Daughter(rng.choice(nts), schema()) for _ in range(arity))))
    lex = []
    for nt in nts:
        if rng.random() < 0.8:
            lex.append(LexRule(nt, rng.choice(terms + [""]), frozenset()))
    if not lex:
        lex.append(LexRule(nts[0], terms[0], frozenset()))
    return SimpleUnificationGrammar(
        tuple(nts), tuple(terms), ("next", "idx"), tuple(vals), tuple(prods), tuple(lex), nts[0]
    )


def clashing_pops(g: SimpleUnificationGrammar) -> bool:
    """Whether a production of a stack-form grammar has daughters that pop
    different values, so that their demands below the root can clash."""
    return any(len({c.value for c in r.children if c.op == POP}) > 1 for r in g.stack_rules)


def rand_arbitrary_sug(rng: random.Random) -> SimpleUnificationGrammar:
    """Grammar with arbitrary schemata, mostly outside stack form: 1-3
    nonterminals, 1-5 productions of one or two daughters, 0-3 equations
    per daughter over attributes f, g and values u, v.  The equations
    include re-entrant ones that close a cycle (up f = up), values on inner
    paths (up f g = u beside up f = v) that break atomicity, and values
    that clash; the lexicon, with an empty-string entry now and then, puts
    value equations on up."""
    nts = [f"N{i}" for i in range(rng.randint(1, 3))]
    terms = ["a", "b"][: rng.randint(1, 2)]
    attrs, vals = ("f", "g"), ("u", "v")

    def path(shortest: int, longest: int) -> tuple[str, ...]:
        return tuple(rng.choice(attrs) for _ in range(rng.randint(shortest, longest)))

    def equation():
        kind = rng.randrange(4)
        if kind == 0:
            return ArrowValEq(rng.choice((UP, DOWN)), path(1, 2), rng.choice(vals))
        if kind == 1:
            arrow = rng.choice((UP, DOWN))
            return ArrowPathEq(arrow, path(1, 2), arrow, ())
        return ArrowPathEq(rng.choice((UP, DOWN)), path(0, 2), rng.choice((UP, DOWN)), path(0, 2))

    prods = []
    for _ in range(rng.randint(1, 5)):
        daughters = tuple(
            Daughter(rng.choice(nts), frozenset(equation() for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 2))
        )
        prods.append(UProduction(rng.choice(nts), daughters))
    lex = []
    for nt in nts:
        for _ in range(rng.randint(0, 2)):
            schema = frozenset(ArrowValEq(UP, path(1, 2), rng.choice(vals)) for _ in range(rng.randint(0, 2)))
            lex.append(LexRule(nt, rng.choice(terms + terms + [""]), schema))
    if not lex:
        lex.append(LexRule(nts[0], terms[0], frozenset()))
    return SimpleUnificationGrammar(tuple(nts), tuple(terms), attrs, vals, tuple(prods), tuple(lex), nts[0])


# --------------------------------------------------------------------------
# Random c-structures with stack-form schemata


def rand_ugi_cstructure(rng: random.Random) -> CStructure:
    vals = ["v0", "v1"]

    def schema():
        s = rng.randrange(4)
        if s <= 1:
            return copy_schema()
        if s == 2:
            return push_schema("next", "idx", rng.choice(vals))
        return pop_schema("next", "idx", rng.choice(vals))

    categories: dict[TreeAddress, str] = {ROOT: "X"}
    eqsets: dict[TreeAddress, frozenset] = {}

    def grow(a: TreeAddress, depth: int) -> None:
        width = rng.randint(1, 2)
        for i in range(1, width + 1):
            c = a.child(i)
            if depth >= 3 or rng.random() < 0.35:
                categories[c] = rng.choice(["t", ""])
                eqsets[c] = frozenset()  # leaf
            else:
                categories[c] = "X"
                eqsets[c] = schema()
                grow(c, depth + 1)

    grow(ROOT, 0)
    # interior nodes created as leaves by the depth cutoff stay leaves; any
    # non-leaf must carry a stack-form schema, which grow() guarantees
    return CStructure(domain_of(categories.keys()), categories, eqsets)


# --------------------------------------------------------------------------
# Random equation sets (small enough for the partition oracle)

_EQ_NAMES = (address(1), address(2), address(3))
_EQ_ATTRS = ("p", "q")
_EQ_VALUES = ("u", "v")


def rand_equation_set(rng: random.Random):
    """(equations, name_domain) with at most 3 names, 2 attributes, 2 values,
    total path length <= 6 and at most 4 distinct terms."""
    names = list(_EQ_NAMES[: rng.randint(1, 3)])
    eqs = []
    remaining = 6
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            lp = rng.randint(0, min(2, remaining))
            remaining -= lp
            rp = rng.randint(0, min(2, remaining))
            remaining -= rp
            eqs.append(PathEq(
                rng.choice(names), tuple(rng.choice(_EQ_ATTRS) for _ in range(lp)),
                rng.choice(names), tuple(rng.choice(_EQ_ATTRS) for _ in range(rp)),
            ))
        else:
            if remaining < 1:
                break
            vp = rng.randint(1, min(2, remaining))
            remaining -= vp
            eqs.append(ValEq(rng.choice(names), tuple(rng.choice(_EQ_ATTRS) for _ in range(vp)), rng.choice(_EQ_VALUES)))
    return eqs, names


def _terms_of(eqs, names):
    terms = {(n, ()) for n in names}
    for e in eqs:
        sides = []
        if isinstance(e, PathEq):
            sides = [(e.left_name, e.left_path), (e.right_name, e.right_path)]
        else:
            sides = [(e.name, e.path)]
        for n, p in sides:
            for i in range(len(p) + 1):
                terms.add((n, p[:i]))
    return sorted(terms)


def small_term_set(pair) -> bool:
    eqs, names = pair
    return len(_terms_of(eqs, names)) <= 4


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def oracle_satisfiable(eqs, names) -> bool:
    """Exhaustive search for a well-defined structure satisfying the set.

    Every minimal satisfying structure is a quotient of the term set, so it
    suffices to try each set partition of the terms and filter by functional
    congruence, single values, atomicity and acyclicity."""
    terms = _terms_of(eqs, names)
    for part in _partitions(terms):
        cls = {}
        for ci, block in enumerate(part):
            for t in block:
                cls[t] = ci
        edges: dict[tuple[int, str], int] = {}
        ok = True
        for n, p in terms:
            if not p:
                continue
            key = (cls[(n, p[:-1])], p[-1])
            tgt = cls[(n, p)]
            if edges.setdefault(key, tgt) != tgt:
                ok = False
                break
        if not ok:
            continue
        values: dict[int, set[str]] = {}
        for e in eqs:
            if isinstance(e, PathEq):
                if cls[(e.left_name, e.left_path)] != cls[(e.right_name, e.right_path)]:
                    ok = False
                    break
            else:
                values.setdefault(cls[(e.name, e.path)], set()).add(e.value)
        if not ok:
            continue
        if any(len(vs) > 1 for vs in values.values()):
            continue
        if any(ci in values for (ci, _attr) in edges):
            continue
        succ: dict[int, set[int]] = {}
        for (ci, _attr), tgt in edges.items():
            succ.setdefault(ci, set()).add(tgt)
        state: dict[int, int] = {}

        def acyclic(c: int) -> bool:
            if state.get(c) == 2:
                return True
            if state.get(c) == 1:
                return False
            state[c] = 1
            for d in succ.get(c, ()):
                if not acyclic(d):
                    return False
            state[c] = 2
            return True

        if all(acyclic(ci) for ci in range(len(part))):
            return True
    return False


# --------------------------------------------------------------------------
# Structure isomorphism (respecting names)


def fs_canonical(m: FeatureStructure):
    """Relabel nodes by a deterministic traversal from the named nodes; two
    structures are isomorphic over their names iff canonical forms match."""
    order: dict[int, int] = {}
    queue = [m.names[a] for a in sorted(m.names)]
    while queue:
        q = queue.pop(0)
        if q in order:
            continue
        order[q] = len(order)
        for attr in sorted(m.delta.get(q, {})):
            queue.append(m.delta[q][attr])
    unreachable = [q for q in m.nodes if q not in order]
    for q in unreachable:
        order[q] = len(order)
    delta = tuple(
        sorted((order[q], attr, order[r]) for q, row in m.delta.items() for attr, r in row.items())
    )
    alpha = tuple(sorted((order[q], v) for q, v in m.alpha.items()))
    names = tuple(sorted((a, order[q]) for a, q in m.names.items()))
    return (len(m.nodes), len(unreachable), delta, alpha, names)


def fs_isomorphic(m1: FeatureStructure, m2: FeatureStructure) -> bool:
    return fs_canonical(m1) == fs_canonical(m2)


# --------------------------------------------------------------------------
# Language oracles


def indexed_language_by_trees(g: IndexedGrammar, maxlen: int, budget: Budget) -> set:
    """Independent route: enumerate whole derivation trees and collect their
    terminal strings, instead of the per-state fixpoint."""
    words = set()
    for t in enumerate_derivations(g, budget):
        w = terminal_symbols(t)
        if len(w) <= maxlen:
            words.add(w)
    return words


def all_words(terminals, maxlen):
    for n in range(maxlen + 1):
        yield from product(terminals, repeat=n)


def unary_chain(links: int, empty_entry: bool = False) -> SimpleUnificationGrammar:
    """S -> C0, Ci -> Ci+1 up to C(links-1) -> a, all with empty schemata;
    with empty_entry, also an unreachable lex E -> _, so that the size chart
    visits the empty spans too."""
    cats = [f"C{i}" for i in range(links)]
    lines = [f"nonterminals S {' '.join(cats)}{' E' if empty_entry else ''}", "terminals a", "start S"]
    lines += [f"rule {m} -> {d} {{ }}" for m, d in zip(["S"] + cats, cats)]
    lines.append(f"lex {cats[-1]} -> a {{ }}")
    if empty_entry:
        lines.append("lex E -> _ { }")
    return parse_unification_grammar("\n".join(lines) + "\n")


def fixpoint_size_chart(g: SimpleUnificationGrammar, word, max_nodes: int) -> dict:
    """The size chart of a word by chaotic iteration over the whole chart:
    every (category, i, j) with a tree over word[i:j] of at most max_nodes
    nodes, mapped to the bitmask of those sizes.  Each production runs over
    every span, every cut of the span into its daughters' slices included,
    and reruns whenever a mask of one of its daughters' categories grows,
    until none grows; no span order and no rule order is assumed."""
    n = len(word)
    cap = (1 << max_nodes + 1) - 1
    spans = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    chart: dict = {}
    for r in g.lexicon:
        for i, j in spans:
            if word[i:j] == ((r.word,) if r.word else ()):
                chart[(r.mother, i, j)] = chart.get((r.mother, i, j), 0) | 4 & cap
    readers: dict = {}
    for k, p in enumerate(g.productions):
        for d in p.daughters:
            readers.setdefault(d.category, []).append(k)
    todo = list(range(len(g.productions)))
    queued = set(todo)
    while todo:
        k = todo.pop()
        queued.discard(k)
        p = g.productions[k]
        for i, j in spans:
            sizes = 0
            for cuts in combinations_with_replacement(range(i, j + 1), len(p.daughters) - 1):
                bounds = (i, *cuts, j)
                acc = 1  # the sizes of the daughters placed so far, as shifts
                for d, a, b in zip(p.daughters, bounds, bounds[1:]):
                    mask, shifted = chart.get((d.category, a, b), 0), 0
                    while mask:
                        low = mask & -mask
                        shifted |= acc << low.bit_length() - 1
                        mask ^= low
                    acc = shifted & cap
                sizes |= acc << 1 & cap
            have = chart.get((p.mother, i, j), 0)
            if sizes | have != have:
                chart[(p.mother, i, j)] = sizes | have
                for q in readers.get(p.mother, ()):
                    if q not in queued:
                        queued.add(q)
                        todo.append(q)
    return {key: sizes for key, sizes in chart.items() if sizes}

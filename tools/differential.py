"""Differential check of the library's answers between two source trees.

    PYTHONPATH=src python3 tools/differential.py record --out FILE
    python3 tools/differential.py compare A B [--allow FIELD ...]

`record` asks the glab found first on the import path a fixed set of
questions and writes one canonical line per answer, keyed by a question id.
Run it once per source tree (set PYTHONPATH to that tree's `src`), then
`compare` the two files: it prints one line per question whose answer
differs in a field not named by --allow, and per question that only one file
holds, and exits 1 when it printed any.  A summary goes to stderr: the
number of answers that differ, per field, allowed or not, the number of
answers that differ in it, and, when some answer's exhausted flag changed,
how many went from exhausted to complete and how many the other way.

The questions to the reference c-structure engine and the language sweeps
on top of it:
- the reference-sweep corpora of the benchmark for seeds 1-3 (grammars from
  bench/corpora.py, words chosen as bench/workloads.py chooses them):
  sug_language_upto and sug_membership;
- fixtures/agreement.ugr and fixtures/example2_u.ugr, every word up to
  length 3 under four budgets: the enumerate_cstructures stream (its
  structures, trees, steps, exhausted, reasons), sug_membership and
  sug_language_upto;
- grammars with arbitrary schemata from tests/helpers.py, every word up to
  length 3: the stream and sug_membership;
- the unary chain S -> C0 -> ... -> C599 -> a of tests/helpers.py: the
  membership of a, its stream and the language to length 1;
- inputs that the engine once answered only in seconds or at a cap:
  sug_membership of every word up to length 3 on the image of acceptance
  check 4's grammar #67 (0-based) under the fuzz budget, of ddddd on
  fixtures/example2_u.ugr, and of a on the unary chain of 2,000 links.

A membership also records the states, steps and improved of its search when
its result carries stats, and leaves them out when it does not.  A question
that raises is recorded as {"id": ..., "error": <the exception's type>},
and the run goes on.

The questions to the stack engine, where a language records the words,
exhausted, reasons and the search's states, steps and improved, and a
membership the member, witness, model, exhausted and reasons:
- the benchmark's fuzz-equiv pool: the language of both sides of each
  rewrite, as bench/workloads.py runs them;
- the benchmark's deep-stack corpora for seeds 1-3: indexed_membership and
  ugi_membership;
- the corpora of acceptance checks 4 and 7 (tests/test_acceptance.py): the
  language of each grammar and of its rewrite;
- fixtures/example1.ixg, example2.ixg and example2_u.ugr under three
  budgets: languages at several lengths, and the membership of every word
  up to length 6 (example 1) or 20 (example 2); and example 1's languages
  to lengths whose longest words need more nodes than a small node cap
  allows, so that its stack grows past that cap;
- random stack-form grammars from tests/helpers.py under two budgets, the
  membership of every word up to length 3: 40 rand_general_ugi grammars,
  20 more with sibling daughters that pop different values, so that their
  demands below the root clash, and 40 rand_reduced_marked_indexed ones;
- max_steps sweeps: the languages of five acceptance-corpus grammars whose
  searches take tens or hundreds of thousands of steps, again with the step
  cap at every Fibonacci number up to 832040, so that it falls at many
  points of their growing joins.

The questions to the solver: 400 equation sets from rand_equation_set of
tests/helpers.py (the generator of acceptance check 8, with its seed), each
recorded as solve's consistent, diagnosis and model.

The questions to the checkers, each recorded as the report's ok, errors and
license, for every tree of a stream and for three tampered copies of it,
each with one node changed at a place a seeded choice picks:
- validate_derivation_tree on the enumerate_derivations trees of
  fixtures/example1.ixg and example2.ixg and of 120
  rand_reduced_marked_indexed grammars; a copy changes one inner node's
  stack or symbol, or one leaf;
- validate_cstructure on the enumerate_cstructures structures of
  fixtures/agreement.ugr, of 8 grammars of the reference-sweep corpus (the
  words of their templates), and of 30 rand_arbitrary_sug and 30
  rand_general_ugi grammars, every word up to length 3 or 2; a copy changes
  one inner node's category, one leaf, or one non-root node's schema.

The questions to the constructions:
- every rewrite that takes the grammar's kind (mark_index_end and u_transform
  of an indexed grammar; ugi_normalize, sink_map_root and reverse_u of a
  unification grammar), recorded as its printed output with the rule map of
  u_transform and reverse_u, on the benchmark's fuzz-equiv pool, on the
  corpus of acceptance check 5 (each grammar, its sink_map_root and the
  reverse_u of that) and on that of acceptance check 7;
- canonical_fs, recorded as solve is, on the 1,000 c-structures of
  acceptance check 6 and on the ugi_membership witnesses of the members of
  example2_u.ugr in the deep-stack corpora.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
FIXTURES = ROOT_DIR / "fixtures"
# after PYTHONPATH, so that the glab under test is the one it names
sys.path.extend(str(ROOT_DIR / d) for d in ("src", "bench", "tests"))

import glab  # noqa: E402
from glab import Budget, SearchStats, format_schema  # noqa: E402

SWEEP_SEEDS = (1, 2, 3)
FIXTURE_BUDGETS = {
    "nodes12": Budget(max_nodes=12),
    "nodes60": Budget(max_nodes=60),
    "nodes60-trees25": Budget(max_nodes=60, max_trees=25),
    "nodes150-steps500": Budget(max_nodes=150, max_steps=500),
}
ARBITRARY_SEED = 1995
ARBITRARY_GRAMMARS = 150
ARBITRARY_BUDGET = Budget(max_nodes=9, max_trees=200)
CHAIN_LINKS = 600
LONG_CHAIN_LINKS = 2000
ACCEPTANCE4_GRAMMAR = 67
DEEP_SEEDS = (1, 2, 3)
STACK_FIXTURE_BUDGETS = {
    "default": glab.DEFAULT_BUDGET,
    "steps50": Budget(max_steps=50),
    "stack8": Budget(max_stack=8),
}
# (label, length, budget) of example1.ixg's languages under a node cap
NODE_CAP_LANGUAGES = (("nodes30", 120, Budget(max_nodes=30)), ("nodes200", 900, Budget(max_nodes=200)))
RANDOM_STACK_SEED = 1305
RANDOM_STACK_GRAMMARS = 40
STEP_SWEEP = (
    "acceptance4/65/indexed",
    "acceptance4/65/image",
    "acceptance7/mark/41/before",
    "acceptance7/normalize/49/before",
    "acceptance7/normalize/49/after",
)
STEP_SWEEP_LIMIT = 832040
SOLVER_SEED = 80826
SOLVER_SETS = 400
CHECKER_SEED = 2026
CHECKER_GRAMMARS = 30


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _cs_text(cs) -> str:
    """One entry per node in address order: address, category, schema."""
    rows = []
    for a in cs.domain.sorted_addresses:
        schema = "" if a.is_root else " " + format_schema(cs.eqsets[a])
        rows.append(f"{a} {cs.categories[a] or '_'}{schema}")
    return " | ".join(rows)


def _model_text(m) -> str:
    delta = sorted((q, sorted(edges.items())) for q, edges in m.delta.items())
    names = sorted((str(a), q) for a, q in m.names.items())
    return repr((m.nodes, delta, sorted(m.alpha.items()), names))


def _fixture(name: str):
    parse = glab.parse_indexed_grammar if name.endswith(".ixg") else glab.parse_unification_grammar
    return parse((FIXTURES / name).read_text(encoding="utf-8"))


def _word_id(g, word) -> str:
    return g.render_word(tuple(word)) or "_"


def _counts(r) -> dict:
    """The work counters of a membership's search, when its result has
    them."""
    s = getattr(r, "stats", None)
    if s is None:
        return {}
    return {"states": s.states, "steps": s.steps, "improved": s.improved}


def _membership(g, word, budget) -> dict:
    r = glab.sug_membership(g, word, budget)
    return {
        "member": r.member,
        "witness": _cs_text(r.witness) if r.witness is not None else None,
        "model": _model_text(r.model) if r.model is not None else None,
        "exhausted": r.exhausted,
        "reasons": list(r.reasons),
        **_counts(r),
    }


def _stream(g, word, budget) -> dict:
    stats = SearchStats()
    texts = [_cs_text(cs) for cs in glab.enumerate_cstructures(g, word, budget, stats)]
    return {
        "count": len(texts),
        "structures": _digest(texts),
        "trees": stats.trees,
        "steps": stats.steps,
        "exhausted": stats.exhausted,
        "reasons": list(stats.reasons),
    }


def _language(g, maxlen, budget) -> dict:
    r = glab.sug_language_upto(g, maxlen, budget)
    return {"words": [list(w) for w in r.words], "exhausted": r.exhausted, "reasons": list(r.reasons)}


def _sweep_questions(seed: int):
    """(id, function, arguments) for one reference-sweep corpus, words
    chosen as the benchmark chooses them."""
    from corpora import AgreementGrammar, agreement_grammars, fixture_agreement
    from workloads import SWEEP_FIXTURE_MAXLEN, SWEEP_GRAMMARS, SWEEP_LANG_MAXLEN, SWEEP_MAXLEN, SWEEP_WORDS

    rng = random.Random(seed)
    fixture = AgreementGrammar(
        _fixture("agreement.ugr"),
        *fixture_agreement(),
    )
    grammars = [fixture] + agreement_grammars(rng, SWEEP_GRAMMARS, SWEEP_MAXLEN)
    budget = glab.DEFAULT_BUDGET
    for k, ag in enumerate(grammars):
        g = ag.grammar
        maxlen = SWEEP_LANG_MAXLEN if k else SWEEP_FIXTURE_MAXLEN
        yield f"sweep{seed}/g{k}/language/{maxlen}", _language, (g, maxlen, budget)
        terms = g.terminals
        members = sorted(ag.language(SWEEP_MAXLEN) - {()})
        for j in range(SWEEP_WORDS):
            n = 2 + j // 2 % (SWEEP_MAXLEN - 1)
            if j % 2 == 0:
                word = tuple(rng.sample([terms[1:][i % len(terms[1:])] for i in range(n)], n))
                if not ag.generates(word):
                    word = rng.choice([w for w in members if len(w) == n] or members)
            else:
                word = tuple(rng.sample([terms[i % len(terms)] for i in range(n)], n))
            yield f"sweep{seed}/g{k}/member/{j}/{_word_id(g, word)}", _membership, (g, word, budget)


def _fixture_questions():
    for name in ("agreement.ugr", "example2_u.ugr"):
        g = _fixture(name)
        for label, budget in FIXTURE_BUDGETS.items():
            yield f"{name}/{label}/language/3", _language, (g, 3, budget)
            for n in range(4):
                for word in itertools.product(g.terminals, repeat=n):
                    key = f"{name}/{label}/{_word_id(g, word)}"
                    yield f"{key}/stream", _stream, (g, word, budget)
                    yield f"{key}/member", _membership, (g, word, budget)


def _arbitrary_questions():
    from helpers import all_words, rand_arbitrary_sug

    rng = random.Random(ARBITRARY_SEED)
    for k in range(ARBITRARY_GRAMMARS):
        g = rand_arbitrary_sug(rng)
        for word in all_words(g.terminals, 3):
            key = f"arbitrary/{k}/{_word_id(g, word)}"
            yield f"{key}/stream", _stream, (g, word, ARBITRARY_BUDGET)
            yield f"{key}/member", _membership, (g, word, ARBITRARY_BUDGET)


def _chain_questions():
    from helpers import unary_chain

    g = unary_chain(CHAIN_LINKS)
    key = f"chain{CHAIN_LINKS}"
    yield f"{key}/a/member", _membership, (g, "a", glab.DEFAULT_BUDGET)
    yield f"{key}/a/stream", _stream, (g, "a", glab.DEFAULT_BUDGET)
    yield f"{key}/language/1", _language, (g, 1, glab.DEFAULT_BUDGET)


def _reference_target_questions():
    from helpers import FUZZ_BUDGET, all_words, rand_reduced_marked_indexed, unary_chain

    rng = random.Random(40426)  # acceptance check 4's seed
    for _ in range(ACCEPTANCE4_GRAMMAR + 1):
        gi = rand_reduced_marked_indexed(rng)
    g = glab.u_transform(gi)[0]
    for word in all_words(g.terminals, 3):
        key = f"reference/acceptance4/{ACCEPTANCE4_GRAMMAR}/{_word_id(g, word)}"
        yield f"{key}/member", _membership, (g, word, FUZZ_BUDGET)
    yield "reference/example2_u.ugr/ddddd/member", _membership, (_fixture("example2_u.ugr"), "ddddd", glab.DEFAULT_BUDGET)
    yield f"reference/chain{LONG_CHAIN_LINKS}/a/member", _membership, (unary_chain(LONG_CHAIN_LINKS), "a", glab.DEFAULT_BUDGET)


def _tree_text(t) -> str:
    """One entry per node of a derivation tree in address order: address,
    symbol, and the index stack of an inner node."""
    rows = []
    for a in t.domain.sorted_addresses:
        label = t.labels[a]
        stack = f" [{' '.join(label.stack)}]" if isinstance(label, glab.NodeLabel) else ""
        rows.append(f"{a} {label.symbol or '_'}{stack}")
    return " | ".join(rows)


def _stack_membership(g, word, budget) -> dict:
    indexed = isinstance(g, glab.IndexedGrammar)
    r = (glab.indexed_membership if indexed else glab.ugi_membership)(g, word, budget)
    return {
        "member": r.member,
        "witness": None if r.witness is None else (_tree_text if indexed else _cs_text)(r.witness),
        "model": _model_text(r.model) if r.model is not None else None,
        "exhausted": r.exhausted,
        "reasons": list(r.reasons),
        **_counts(r),
    }


def _stack_language(g, maxlen, budget) -> dict:
    """The language from indexed_language_upto or ugi_language_upto, with
    the work counters of its search (LanguageResult.stats)."""
    language = glab.indexed_language_upto if isinstance(g, glab.IndexedGrammar) else glab.ugi_language_upto
    r = language(g, maxlen, budget)
    s = r.stats
    return {
        "words": [list(w) for w in r.words],
        "exhausted": r.exhausted,
        "reasons": list(r.reasons),
        "states": s.states,
        "steps": s.steps,
        "improved": s.improved,
    }


def _fuzz_pool_questions():
    from corpora import FUZZ_BUDGET, FUZZ_MAXLEN, fuzz_corpus
    from workloads import FUZZ_PER_FAMILY, FUZZ_POOL_SEED

    for i, case in enumerate(fuzz_corpus(random.Random(FUZZ_POOL_SEED), FUZZ_PER_FAMILY)):
        g = case.grammar
        if case.family == "u":
            image = glab.u_transform(g)[0]
        elif case.family == "mark":
            image = glab.mark_index_end(g)
        elif case.family == "normalize":
            image = glab.ugi_normalize(g)
        else:
            image = glab.sink_map_root(g)
        for side, grammar in (("left", g), ("right", image)):
            yield f"fuzz/{i}/{case.family}/{side}", _stack_language, (grammar, FUZZ_MAXLEN, FUZZ_BUDGET)


def _deep_questions(seed: int):
    from corpora import deep_corpus
    from workloads import DEEP_D_LENGTHS, DEEP_D_MAX, DEEP_RUNGS, DEEP_STEP

    grammars = {name: _fixture(name) for name in ("example1.ixg", "example2.ixg", "example2_u.ugr")}
    cases = deep_corpus(random.Random(seed), DEEP_RUNGS, DEEP_STEP, DEEP_D_LENGTHS, DEEP_D_MAX)
    for k, case in enumerate(cases):
        yield f"deep{seed}/{k}/{case.fixture}/{len(case.word)}", _stack_membership, (
            grammars[case.fixture],
            case.word,
            glab.DEFAULT_BUDGET,
        )


def _acceptance_questions():
    from helpers import FUZZ_BUDGET, rand_general_ugi, rand_reduced_marked_indexed, rand_reduced_ugi

    rng = random.Random(40426)
    for i in range(100):
        gi = rand_reduced_marked_indexed(rng)
        for side, g in (("indexed", gi), ("image", glab.u_transform(gi)[0])):
            yield f"acceptance4/{i}/{side}", _stack_language, (g, 4, FUZZ_BUDGET)
    rng = random.Random(70726)
    for family, make, rewrite in (
        ("mark", rand_reduced_marked_indexed, glab.mark_index_end),
        ("normalize", rand_general_ugi, glab.ugi_normalize),
        ("sink", rand_reduced_ugi, glab.sink_map_root),
    ):
        for i in range(50):
            g = make(rng)
            for side, grammar in (("before", g), ("after", rewrite(g))):
                yield f"acceptance7/{family}/{i}/{side}", _stack_language, (grammar, 4, FUZZ_BUDGET)


def _stack_fixture_questions():
    from helpers import all_words

    for name, lengths, wordlen in (
        ("example1.ixg", (6, 9, 21, 30), 6),
        ("example2.ixg", (4, 16, 64), 20),
        ("example2_u.ugr", (4, 16, 64), 20),
    ):
        g = _fixture(name)
        terminals = g.symbols.terminals if isinstance(g, glab.IndexedGrammar) else g.terminals
        for label, budget in STACK_FIXTURE_BUDGETS.items():
            for maxlen in lengths:
                yield f"{name}/{label}/language/{maxlen}", _stack_language, (g, maxlen, budget)
            for word in all_words(terminals, wordlen):
                yield f"{name}/{label}/{_word_id(g, word)}/member", _stack_membership, (g, word, budget)
    for label, maxlen, budget in NODE_CAP_LANGUAGES:
        yield f"example1.ixg/{label}/language/{maxlen}", _stack_language, (_fixture("example1.ixg"), maxlen, budget)


def _random_stack_questions():
    from helpers import (
        FUZZ_BUDGET,
        all_words,
        clashing_pops,
        rand_general_ugi,
        rand_reduced_marked_indexed,
        sample_until,
    )

    budgets = {"fuzz": FUZZ_BUDGET, "steps50": Budget(max_steps=50)}
    rng = random.Random(RANDOM_STACK_SEED)
    families = {
        "general": [rand_general_ugi(rng) for _ in range(RANDOM_STACK_GRAMMARS)],
        "clash": sample_until(lambda: rand_general_ugi(rng), clashing_pops, RANDOM_STACK_GRAMMARS // 2, 10_000),
        "marked": [rand_reduced_marked_indexed(rng) for _ in range(RANDOM_STACK_GRAMMARS)],
    }
    for family, grammars in families.items():
        for i, g in enumerate(grammars):
            terminals = g.symbols.terminals if isinstance(g, glab.IndexedGrammar) else g.terminals
            for word in all_words(terminals, 3):
                for label, budget in budgets.items():
                    yield f"random/{family}/{i}/{label}/{_word_id(g, word)}", _stack_membership, (g, word, budget)


def _step_sweep_questions():
    caps = [1, 2]
    while caps[-1] + caps[-2] <= STEP_SWEEP_LIMIT:
        caps.append(caps[-1] + caps[-2])
    for qid, ask, (g, maxlen, budget) in _acceptance_questions():
        if qid in STEP_SWEEP:
            for cap in caps:
                yield f"steps/{qid}/{cap}", ask, (g, maxlen, replace(budget, max_steps=cap))


def _verdict(r) -> dict:
    return {
        "consistent": r.consistent,
        "diagnosis": None if r.consistent else str(r.diagnosis),
        "model": _model_text(r.model) if r.consistent else None,
    }


def _solve(eqs, names) -> dict:
    return _verdict(glab.solve(eqs, names))


def _solver_questions():
    from helpers import rand_equation_set

    rng = random.Random(SOLVER_SEED)
    for k in range(SOLVER_SETS):
        yield f"solve/{k}", _solve, rand_equation_set(rng)


def _report(check, g, tree) -> dict:
    r = check(g, tree)
    return {
        "ok": r.ok,
        "errors": [[str(a), cond, msg] for a, cond, msg in r.errors],
        "license": None if r.license is None else [[str(a), k] for a, k in sorted(r.license.items())],
    }


def _other(rng, current, candidates):
    """A seeded pick among the candidates other than current."""
    return rng.choice(sorted(set(candidates) - {current}))


def _tampered_trees(g, t, rng):
    """Three copies of a derivation tree, each with one node changed: an
    inner node's stack loses its top or gains a value, an inner node gets
    another symbol, a leaf gets another symbol."""
    inner = [a for a in t.domain.sorted_addresses if isinstance(t.labels[a], glab.NodeLabel)]
    leaves = [a for a in t.domain.sorted_addresses if isinstance(t.labels[a], glab.LeafLabel)]
    syms = g.symbols
    a = rng.choice(inner)
    label = t.labels[a]
    stack = label.stack[1:] if label.stack and rng.random() < 0.5 else (rng.choice(syms.indices),) + label.stack
    yield "stack", {**t.labels, a: glab.NodeLabel(label.symbol, stack)}
    a = rng.choice(inner)
    label = t.labels[a]
    symbol = _other(rng, label.symbol, syms.nonterminals + ("?",))
    yield "symbol", {**t.labels, a: glab.NodeLabel(symbol, label.stack)}
    a = rng.choice(leaves)
    yield "leaf", {**t.labels, a: glab.LeafLabel(_other(rng, t.labels[a].symbol, syms.terminals + ("", "?")))}


def _indexed_checker_questions():
    from helpers import rand_reduced_marked_indexed

    rng = random.Random(CHECKER_SEED)
    grammars = [
        ("example1.ixg", _fixture("example1.ixg"), Budget(max_nodes=60)),
        ("example2.ixg", _fixture("example2.ixg"), Budget(max_nodes=60)),
    ]
    budget = Budget(max_nodes=20, max_trees=40)
    grammars += [(str(k), rand_reduced_marked_indexed(rng), budget) for k in range(4 * CHECKER_GRAMMARS)]
    for name, g, budget in grammars:
        for k, t in enumerate(glab.enumerate_derivations(g, budget)):
            key = f"checker/indexed/{name}/{k}"
            yield f"{key}/tree", _report, (glab.validate_derivation_tree, g, t)
            for change, labels in _tampered_trees(g, t, random.Random(key)):
                yield f"{key}/{change}", _report, (glab.validate_derivation_tree, g, glab.tree_of(labels))


def _tampered_structures(g, cs, rng):
    """Three copies of a c-structure, each with one node changed: an inner
    node gets another category, a leaf another category, and a non-root
    node another schema of the grammar's rules (or the empty or copy
    schema)."""
    addresses = cs.domain.sorted_addresses
    inner = [a for a in addresses if cs.domain.out_degree(a)]
    leaves = [a for a in addresses if not cs.domain.out_degree(a)]
    a = rng.choice(inner)
    yield "category", {**cs.categories, a: _other(rng, cs.categories[a], g.nonterminals + ("?",))}, cs.eqsets
    a = rng.choice(leaves)
    yield "leaf", {**cs.categories, a: _other(rng, cs.categories[a], g.terminals + ("", "?"))}, cs.eqsets
    schemata = {r.schema for r in g.lexicon} | {d.schema for p in g.productions for d in p.daughters}
    schemata |= {frozenset(), glab.copy_schema()}
    a = rng.choice(addresses[1:])
    others = sorted(schemata - {cs.eqsets[a]}, key=format_schema)
    yield "schema", cs.categories, {**cs.eqsets, a: rng.choice(others)}


def _cstructure_checker_questions():
    from corpora import agreement_grammars
    from helpers import all_words, rand_arbitrary_sug, rand_general_ugi

    wide, small = Budget(max_nodes=20, max_trees=8), Budget(max_nodes=9, max_trees=8)
    agreement = _fixture("agreement.ugr")
    grammars = [("agreement.ugr", agreement, list(all_words(agreement.terminals, 3)), wide)]
    for k, ag in enumerate(agreement_grammars(random.Random(CHECKER_SEED), 8, 3)):
        words = sorted({w for cats in ag.templates for w in itertools.product(*(ag.words_of[c] for c in cats))})
        grammars.append((f"sweep/{k}", ag.grammar, words, wide))
    rng = random.Random(CHECKER_SEED)
    for k in range(CHECKER_GRAMMARS):
        g = rand_arbitrary_sug(rng)
        grammars.append((f"arbitrary/{k}", g, list(all_words(g.terminals, 3)), small))
    for k in range(CHECKER_GRAMMARS):
        g = rand_general_ugi(rng)
        grammars.append((f"general/{k}", g, list(all_words(g.terminals, 2)), small))
    for name, g, words, budget in grammars:
        for word in words:
            for k, cs in enumerate(glab.enumerate_cstructures(g, word, budget)):
                key = f"checker/cstructure/{name}/{_word_id(g, word)}/{k}"
                yield f"{key}/tree", _report, (glab.validate_cstructure, g, cs)
                for change, categories, eqsets in _tampered_structures(g, cs, random.Random(key)):
                    tampered = glab.CStructure(cs.domain, categories, eqsets)
                    yield f"{key}/{change}", _report, (glab.validate_cstructure, g, tampered)


def _with_map(print_grammar, grammar, corr) -> str:
    return print_grammar(grammar) + glab.render_correspondence(corr)


# the rewrites of each grammar kind, each giving its printed output
INDEXED_REWRITES = {
    "mark_index_end": lambda g: glab.print_indexed_grammar(glab.mark_index_end(g)),
    "u_transform": lambda g: _with_map(glab.print_unification_grammar, *glab.u_transform(g)),
}
UNIFICATION_REWRITES = {
    "ugi_normalize": lambda g: glab.print_unification_grammar(glab.ugi_normalize(g)),
    "sink_map_root": lambda g: glab.print_unification_grammar(glab.sink_map_root(g)),
    "reverse_u": lambda g: _with_map(glab.print_indexed_grammar, *glab.reverse_u(g)),
}


def _rewrite(rewrite, g) -> dict:
    return {"text": rewrite(g)}


def _canonical(cs) -> dict:
    return _verdict(glab.canonical_fs(cs))


def _construction_questions():
    from corpora import deep_corpus, fuzz_corpus
    from helpers import rand_general_ugi, rand_reduced_marked_indexed, rand_reduced_ugi, rand_ugi_cstructure
    from workloads import DEEP_D_LENGTHS, DEEP_D_MAX, DEEP_RUNGS, DEEP_STEP, FUZZ_PER_FAMILY, FUZZ_POOL_SEED

    pool = fuzz_corpus(random.Random(FUZZ_POOL_SEED), FUZZ_PER_FAMILY)
    grammars = [(f"fuzz/{i}/{case.family}", case.grammar) for i, case in enumerate(pool)]
    rng = random.Random(50526)
    for i in range(100):
        g = rand_reduced_ugi(rng)
        sunk = glab.sink_map_root(g)
        grammars += [(f"acceptance5/{i}", g), (f"acceptance5/{i}/sunk", sunk)]
        grammars.append((f"acceptance5/{i}/reversed", glab.reverse_u(sunk)[0]))
    rng = random.Random(70726)
    for family, make in (
        ("mark", rand_reduced_marked_indexed),
        ("normalize", rand_general_ugi),
        ("sink", rand_reduced_ugi),
    ):
        grammars += [(f"acceptance7/{family}/{i}", make(rng)) for i in range(50)]
    for name, g in grammars:
        rewrites = INDEXED_REWRITES if isinstance(g, glab.IndexedGrammar) else UNIFICATION_REWRITES
        for op, rewrite in rewrites.items():
            yield f"construct/{name}/{op}", _rewrite, (rewrite, g)

    rng = random.Random(60626)
    for i in range(1000):
        yield f"canonical/acceptance6/{i}", _canonical, (rand_ugi_cstructure(rng),)
    g = _fixture("example2_u.ugr")
    words = {
        case.word
        for seed in DEEP_SEEDS
        for case in deep_corpus(random.Random(seed), DEEP_RUNGS, DEEP_STEP, DEEP_D_LENGTHS, DEEP_D_MAX)
        if case.fixture == "example2_u.ugr" and case.member
    }
    for word in sorted(words, key=len):
        yield f"canonical/example2_u.ugr/{len(word)}", _canonical, (glab.ugi_membership(g, word).witness,)


def questions():
    for seed in SWEEP_SEEDS:
        yield from _sweep_questions(seed)
    yield from _fixture_questions()
    yield from _arbitrary_questions()
    yield from _chain_questions()
    yield from _reference_target_questions()
    yield from _fuzz_pool_questions()
    for seed in DEEP_SEEDS:
        yield from _deep_questions(seed)
    yield from _acceptance_questions()
    yield from _stack_fixture_questions()
    yield from _random_stack_questions()
    yield from _step_sweep_questions()
    yield from _solver_questions()
    yield from _indexed_checker_questions()
    yield from _cstructure_checker_questions()
    yield from _construction_questions()


def record(out: Path) -> int:
    count = 0
    with open(out, "w", encoding="utf-8") as f:
        for qid, ask, args in questions():
            try:
                answer = ask(*args)
            except Exception as e:
                answer = {"error": type(e).__name__}
            f.write(json.dumps({"id": qid, **answer}, sort_keys=True) + "\n")
            count += 1
    print(f"recorded {count} answers from {Path(glab.__file__).parent}", file=sys.stderr)
    return 0


def _load(path: Path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            out[rec.pop("id")] = rec
    return out


def compare(a: Path, b: Path, allow: set[str]) -> int:
    left, right = _load(a), _load(b)
    differing = 0
    by_field: dict[str, int] = {}
    # answers whose exhausted flag went from true to false, and back
    completed = capped = 0
    for qid in sorted(left.keys() | right.keys()):
        if qid not in right or qid not in left:
            print(f"{qid}: only in {a if qid in left else b}")
            differing += 1
            continue
        fields = sorted(left[qid].keys() | right[qid].keys())
        changed = [f for f in fields if left[qid].get(f) != right[qid].get(f)]
        if "exhausted" in changed:
            completed += left[qid].get("exhausted") is True
            capped += right[qid].get("exhausted") is True
        for f in changed:
            by_field[f] = by_field.get(f, 0) + 1
            if f not in allow:
                print(f"{qid}: {f}: {json.dumps(left[qid].get(f))} != {json.dumps(right[qid].get(f))}")
        differing += any(f not in allow for f in changed)
    print(f"compared {len(left.keys() | right.keys())} answers, {differing} differ", file=sys.stderr)
    for f, n in sorted(by_field.items()):
        print(f"{f}: {n}{' (allowed)' if f in allow else ''}", file=sys.stderr)
    if completed or capped:
        print(f"exhausted to complete: {completed}, complete to exhausted: {capped}", file=sys.stderr)
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="answer the questions and write one line per answer")
    rec.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("compare", help="print the answers that differ between two records")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    cmp_.add_argument("--allow", action="append", default=[], metavar="FIELD", help="ignore this field")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out)
    return compare(args.a, args.b, set(args.allow))


if __name__ == "__main__":
    sys.exit(main())

"""Differential check of the library's answers between two source trees.

    PYTHONPATH=src python3 tools/differential.py record --out FILE
    python3 tools/differential.py compare A B [--allow FIELD ...]

`record` asks the glab found first on the import path a fixed set of
questions and writes one canonical line per answer, keyed by a question id.
Run it once per source tree (set PYTHONPATH to that tree's `src`), then
`compare` the two files: it prints one line per question whose answer
differs in a field not named by --allow, and per question that only one file
holds, and exits 1 when it printed any.  A summary goes to stderr.

The questions, all to the reference c-structure engine and the language
sweeps on top of it:
- the reference-sweep corpora of the benchmark for seeds 1-3 (grammars from
  bench/corpora.py, words chosen as bench/workloads.py chooses them):
  sug_language_upto and sug_membership;
- fixtures/agreement.ugr and fixtures/example2_u.ugr, every word up to
  length 3 under four budgets: the enumerate_cstructures stream (its
  structures, trees, steps, exhausted, reasons), sug_membership and
  sug_language_upto;
- grammars with arbitrary schemata from tests/helpers.py, every word up to
  length 3: the stream and sug_membership.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
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


def _word_id(g, word) -> str:
    return g.render_word(tuple(word)) or "_"


def _membership(g, word, budget) -> dict:
    r = glab.sug_membership(g, word, budget)
    return {
        "member": r.member,
        "witness": _cs_text(r.witness) if r.witness is not None else None,
        "model": _model_text(r.model) if r.model is not None else None,
        "exhausted": r.exhausted,
        "reasons": list(r.reasons),
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
        glab.parse_unification_grammar((FIXTURES / "agreement.ugr").read_text(encoding="utf-8")),
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
        g = glab.parse_unification_grammar((FIXTURES / name).read_text(encoding="utf-8"))
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


def questions():
    for seed in SWEEP_SEEDS:
        yield from _sweep_questions(seed)
    yield from _fixture_questions()
    yield from _arbitrary_questions()


def record(out: Path) -> int:
    count = 0
    with open(out, "w", encoding="utf-8") as f:
        for qid, ask, args in questions():
            f.write(json.dumps({"id": qid, **ask(*args)}, sort_keys=True) + "\n")
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
    for qid in sorted(left.keys() | right.keys()):
        if qid not in right or qid not in left:
            print(f"{qid}: only in {a if qid in left else b}")
            differing += 1
            continue
        fields = sorted((left[qid].keys() | right[qid].keys()) - allow)
        changed = [f for f in fields if left[qid].get(f) != right[qid].get(f)]
        for f in changed:
            print(f"{qid}: {f}: {json.dumps(left[qid].get(f))} != {json.dumps(right[qid].get(f))}")
        differing += bool(changed)
    print(f"compared {len(left.keys() | right.keys())} answers, {differing} differ", file=sys.stderr)
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

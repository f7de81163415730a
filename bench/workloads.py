"""The four workloads: each is a list of operations, and each operation is a
call into glab plus a check of its answer against a reference that does not
come from the engine under test.

An operation's `call` is what the benchmark times.  Its `check` runs after
the clock stops and returns an Outcome.  Counters go through `api.count`,
which records them only in the first pass of a traced run, so that they do
not depend on how many passes fit in the time given.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import glab
from glab import Budget, Consistent, SearchStats

from corpora import (
    CLI_COMMANDS,
    FUZZ_BUDGET,
    FUZZ_MAXLEN,
    AgreementGrammar,
    agreement_grammars,
    deep_corpus,
    fixture_agreement,
    fuzz_corpus,
)
from spans import CAPS

# Corpus sizes, chosen so that one pass takes a few seconds on a 2-core
# machine and every run has at least 100 operations.
FUZZ_POOL_SEED = 0
FUZZ_PER_FAMILY = 25
DEEP_RUNGS = 20
DEEP_STEP = 3
DEEP_D_LENGTHS = 12
DEEP_D_MAX = 64
SWEEP_GRAMMARS = 32
SWEEP_WORDS = 20
SWEEP_MAXLEN = 6
SWEEP_LANG_MAXLEN = 2
SWEEP_FIXTURE_MAXLEN = 4



@dataclass(frozen=True)
class Outcome:
    ok: bool
    exhausted: bool
    note: str = ""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable
    check: Callable


@dataclass
class Workload:
    ops: list[Op]
    # peak RSS comes from this process, or from the CLI children
    children_rss: bool = False


def count_reasons(api, module: str, reasons) -> None:
    for r in reasons:
        api.count(f"{module}.exhausted.{r if r in CAPS[module] else 'other'}")


def word_of_tree(t) -> tuple[str, ...]:
    """Leaf symbols of a derivation tree in address order, empty leaves
    dropped."""
    return tuple(t.labels[a].symbol for a in t.domain.leaves if t.labels[a].symbol)


def rule_count(g) -> int:
    if isinstance(g, glab.IndexedGrammar):
        return len(g.productions)
    return len(g.productions) + len(g.lexicon)


def solve_cstructure(api, cs):
    """generates_check from its public parts: solve the instantiated
    equations over every address of the tree."""
    return api.solve(api.collect_equations(cs), cs.domain.addresses)


# --------------------------------------------------------------------------
# fuzz-equiv

SIDES = {"u": ("indexed", "unification"), "mark": ("indexed", "indexed"),
         "normalize": ("unification", "unification"), "sink": ("unification", "unification")}


def _fuzz_op(label: str, case) -> Op:
    g, B, L = case.grammar, FUZZ_BUDGET, FUZZ_MAXLEN

    def call(api):
        roundtrip = True
        if case.family == "u":
            image, _ = api.u_transform(g)
            return api.indexed_language_upto(g, L, B), api.ugi_language_upto(image, L, B), image, roundtrip
        if case.family == "mark":
            image = api.mark_index_end(g)
            return api.indexed_language_upto(g, L, B), api.indexed_language_upto(image, L, B), image, roundtrip
        if case.family == "normalize":
            image = api.ugi_normalize(g)
        else:
            image = api.sink_map_root(g)
            back, _ = api.reverse_u(image)
            again, _ = api.u_transform(back)
            roundtrip = again == image
        return api.ugi_language_upto(g, L, B), api.ugi_language_upto(image, L, B), image, roundtrip

    def check(api, result):
        left, right, image, roundtrip = result
        api.count("transform.rules_out", rule_count(image))
        for module, side in zip(SIDES[case.family], (left, right)):
            api.count(f"{module}.words_found", len(side.words))
            count_reasons(api, module, side.reasons)
        exhausted = left.exhausted or right.exhausted
        if not roundtrip:
            return Outcome(False, exhausted, "u_transform(reverse_u(g)) != g")
        if set(left.words) != set(right.words):
            if exhausted:
                return Outcome(True, True, "disagree_exhausted")
            return Outcome(False, False, "languages differ")
        return Outcome(True, exhausted)

    return Op(label, call, check)


def fuzz_equiv(seed: int, fixtures: Path) -> Workload:
    """Bounded-language comparison of grammars with their rewrites.

    The cost of one pair is heavy-tailed (about 1 ms at the median, seconds
    for the slowest), so a corpus drawn afresh for every seed would make
    wall_s vary several-fold between seeds.  The grammars therefore come
    from a fixed pool, drawn once from FUZZ_POOL_SEED; --seed sets the order
    in which they run.
    """
    cases = fuzz_corpus(random.Random(FUZZ_POOL_SEED), per_family=FUZZ_PER_FAMILY)
    ops = [_fuzz_op(f"{c.family}#{i}", c) for i, c in enumerate(cases)]
    random.Random(seed).shuffle(ops)
    return Workload(ops)


# --------------------------------------------------------------------------
# deep-stack


def _deep_op(case, g, budget: Budget) -> Op:
    word = tuple(case.word)
    indexed = isinstance(g, glab.IndexedGrammar)
    module = "indexed" if indexed else "unification"
    # witnesses of reduced, end-marked grammars also convert to c-structures
    convertible = indexed and glab.reduced_form_check(g).is_reduced and glab.marked_index_end_check(g)

    def call(api):
        if indexed:
            return api.indexed_membership(g, word, budget)
        return api.ugi_membership(g, word, budget)

    def check(api, r):
        if r.exhausted and api.counting:
            # membership results carry no cap names; the language engine runs
            # the same fixpoint for the same length and reports them
            raw = glab.indexed_language_upto if indexed else glab.ugi_language_upto
            count_reasons(api, module, raw(g, len(word), budget).reasons)
        if r.member != case.member:
            return Outcome(False, r.exhausted, f"member={r.member}, expected {case.member}")
        if not r.member:
            return Outcome(True, r.exhausted)
        w = r.witness
        api.count(f"{module}.witness_nodes", len(w.domain))
        if indexed:
            if not api.validate_derivation_tree(g, w).ok or word_of_tree(w) != word:
                return Outcome(False, r.exhausted, "witness does not derive the word")
            if not convertible:
                return Outcome(True, r.exhausted)
            cs, _ = api.cstructure_from_derivation(g, w)
        else:
            cs = w
            if not api.validate_cstructure(g, cs).ok or cs.terminal_symbols != word:
                return Outcome(False, r.exhausted, "witness does not derive the word")
        solved = solve_cstructure(api, cs)
        built = api.canonical_fs(cs)
        if not (solved.consistent and built.consistent):
            return Outcome(False, r.exhausted, "witness has no model")
        if not indexed and len(solved.model.nodes) != len(r.model.nodes):
            return Outcome(False, r.exhausted, "returned model differs from the least model")
        return Outcome(True, r.exhausted)

    return Op(f"{case.fixture}:{len(word)}", call, check)


def deep_stack(seed: int, fixtures: Path) -> Workload:
    """Single words with deep stacks on the example fixtures."""
    rng = random.Random(seed)
    grammars = {
        name: (glab.parse_indexed_grammar if name.endswith(".ixg") else glab.parse_unification_grammar)(
            (fixtures / name).read_text(encoding="utf-8")
        )
        for name in ("example1.ixg", "example2.ixg", "example2_u.ugr")
    }
    cases = deep_corpus(rng, rungs=DEEP_RUNGS, step=DEEP_STEP, d_lengths=DEEP_D_LENGTHS, d_max=DEEP_D_MAX)
    return Workload([_deep_op(c, grammars[c.fixture], glab.DEFAULT_BUDGET) for c in cases])


# --------------------------------------------------------------------------
# reference-sweep


def _sweep_language_op(ag: AgreementGrammar, maxlen: int, label: str) -> Op:
    g = ag.grammar

    def call(api):
        return api.sug_language_upto(g, maxlen)

    expected = ag.language(maxlen)

    def check(api, r):
        api.count("unification.words_found", len(r.words))
        count_reasons(api, "unification", r.reasons)
        if set(r.words) != expected:
            return Outcome(False, r.exhausted, "language differs")
        return Outcome(True, r.exhausted)

    return Op(label, call, check)


def _sweep_member_op(ag: AgreementGrammar, word: tuple[str, ...], label: str) -> Op:
    g = ag.grammar
    expected = ag.generates(word)

    def call(api):
        return api.sug_membership(g, word)

    def check(api, r):
        if r.member != expected:
            return Outcome(False, r.exhausted, f"member={r.member}, expected {expected}")
        if r.member:
            if not api.validate_cstructure(g, r.witness).ok or r.witness.terminal_symbols != word:
                return Outcome(False, r.exhausted, "witness does not derive the word")
        if api.tracer is not None:
            # replay from public parts to split enumeration from solving
            stats = SearchStats()
            found = False
            for cs in api.enumerate_cstructures(g, word, glab.DEFAULT_BUDGET, stats):
                api.count("unification.cstructures_solved")
                if isinstance(solve_cstructure(api, cs), Consistent):
                    api.count("unification.cstructures_consistent")
                    found = True
                    break
            api.count("unification.cstructures", stats.trees)
            count_reasons(api, "unification", stats.reasons)
            if found != r.member:
                return Outcome(False, r.exhausted, "replay reached another verdict")
        return Outcome(True, r.exhausted)

    return Op(label, call, check)


def _shuffled(rng: random.Random, terms, n: int) -> tuple[str, ...]:
    """n words cycling through terms, in a random order."""
    return tuple(rng.sample([terms[i % len(terms)] for i in range(n)], n))


def reference_sweep(seed: int, fixtures: Path) -> Workload:
    """The reference c-structure engine on grammars outside stack form."""
    rng = random.Random(seed)
    fixture = AgreementGrammar(
        glab.parse_unification_grammar((fixtures / "agreement.ugr").read_text(encoding="utf-8")),
        *fixture_agreement(),
    )
    grammars = [fixture] + agreement_grammars(rng, SWEEP_GRAMMARS, SWEEP_MAXLEN)
    ops = [_sweep_language_op(fixture, SWEEP_FIXTURE_MAXLEN, "agreement.ugr:language")]
    for k, ag in enumerate(grammars):
        if k:
            ops.append(_sweep_language_op(ag, SWEEP_LANG_MAXLEN, f"g{k}:language"))
        terms = ag.grammar.terminals
        members = sorted(ag.language(SWEEP_MAXLEN) - {()})
        for j in range(SWEEP_WORDS):
            # a member and a string of the whole vocabulary for every length
            # 2..maxlen.  Each word occurs equally often, so the lexical
            # ambiguity, and with it the number of c-structures, is the same
            # for every seed; the seed sets the order.
            n = 2 + j // 2 % (SWEEP_MAXLEN - 1)
            if j % 2 == 0:
                word = _shuffled(rng, terms[1:], n)
                if not ag.generates(word):
                    word = rng.choice([w for w in members if len(w) == n] or members)
            else:
                word = _shuffled(rng, terms, n)
            ops.append(_sweep_member_op(ag, word, f"g{k}:member:{len(word)}"))
    rng.shuffle(ops)
    return Workload(ops)


# --------------------------------------------------------------------------
# cli-fixtures

FIXTURE_NAMES = ("example1.ixg", "example2.ixg", "example2_u.ugr", "agreement.ugr")
# how the CLI says that a search was cut short, in text and in JSON
EXHAUSTION_MARKS = ("exhausted: yes", "budget exhausted", 'exhausted": true')


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    files: dict
    maxrss_kb: int


def _run_cli(argv, work: Path, src: Path) -> CliRun:
    """One `python -m glab` process in an empty working directory; its
    resource usage is read from its own exit status."""
    work.mkdir(parents=True)
    out_path, err_path = work.with_suffix(".out"), work.with_suffix(".err")
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "glab", *argv], cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(work.iterdir())}
    run = CliRun(proc.returncode, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
                 files, usage.ru_maxrss)
    shutil.rmtree(work)
    out_path.unlink()
    err_path.unlink()
    return run


def _cli_op(k: int, argv, code: int, lines, fixtures: Path, scratch: Path, src: Path, refs: dict) -> Op:
    full = tuple(str(fixtures / a) if a in FIXTURE_NAMES else a for a in argv)
    sequence = [0]

    def work_dir() -> Path:
        sequence[0] += 1
        return scratch / f"op{k}-{sequence[0]}"

    def call(api):
        with api.span("cli.process"):
            return _run_cli(full, work_dir(), src)

    def check(api, run: CliRun):
        exhausted = any(m in run.stdout or m in run.stderr for m in EXHAUSTION_MARKS)
        if run.code != code:
            return Outcome(False, exhausted, f"exit {run.code}, expected {code}: {run.stderr.strip()}")
        out_lines = run.stdout.splitlines()
        if lines is not None and not all(line in out_lines for line in lines):
            return Outcome(False, exhausted, "expected output lines missing")
        if code == 0 and not run.stdout:
            return Outcome(False, exhausted, "no output")
        if argv[0] == "transform" and code == 0:
            text = run.files.get("out.ugr", run.stdout)
            parse = api.parse_indexed_grammar if argv[3] in ("reverse-u", "mark-end") else api.parse_unification_grammar
            parsed = parse(text)
            want = refs.get((argv[1], argv[3]))
            if want is not None and parsed != want:
                return Outcome(False, exhausted, "transform output differs from the known grammar")
        if argv[0] == "derive" and code == 0:
            dot = run.files.get("out.dot", run.stdout)
            if not dot.startswith("digraph"):
                return Outcome(False, exhausted, "not a DOT graph")
        if api.tracer is not None:
            # the same command in this process must print the same bytes
            inproc = work_dir()
            inproc.mkdir(parents=True)
            buf_out, buf_err = io.StringIO(), io.StringIO()
            here = os.getcwd()
            os.chdir(inproc)
            try:
                with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
                    inproc_code = api.cli_main(list(full))
            finally:
                os.chdir(here)
                shutil.rmtree(inproc)
            if (inproc_code, buf_out.getvalue()) != (run.code, run.stdout):
                return Outcome(False, exhausted, "in-process main printed something else")
        return Outcome(True, exhausted)

    return Op(" ".join(argv), call, check)


def cli_fixtures(seed: int, fixtures: Path, scratch: Path, src: Path) -> Workload:
    """Every subcommand over the fixtures, one fresh interpreter each."""
    rng = random.Random(seed)
    text = {name: (fixtures / name).read_text(encoding="utf-8") for name in ("example2.ixg", "example2_u.ugr")}
    ex2 = glab.parse_indexed_grammar(text["example2.ixg"])
    ex2u = glab.parse_unification_grammar(text["example2_u.ugr"])
    # grammars the transforms must print, known from the fixtures
    refs = {
        ("example2.ixg", "u"): ex2u,
        ("example2_u.ugr", "reverse-u"): ex2,
        ("example2_u.ugr", "ugi-normalize"): ex2u,  # already reduced
    }
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    ops = [_cli_op(k, *CLI_COMMANDS[k], fixtures, scratch, src, refs) for k in order]
    return Workload(ops, children_rss=True)


def cli_import_seconds(src: Path, repeats: int) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of one that imports
    glab.cli, each started fresh `repeats` times."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def median_wall(code: str) -> float:
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    return median_wall("pass"), median_wall("import glab.cli")

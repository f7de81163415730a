"""Acceptance gate: nine checks, one PASS/FAIL verdict line each.

Each test prints its verdict outside pytest's capture, so the lines show up
in any run mode.  Fuzzed checks use fixed seeds; the suite is deterministic.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from glab import (
    Budget,
    canonical_fs,
    generates_check,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    parse_indexed_grammar,
    parse_unification_grammar,
    reverse_u,
    sink_map_root,
    solve,
    sug_language_upto,
    u_transform,
    ugi_membership,
    ugi_normalize,
    validate_derivation_tree,
)
from glab.cli import main as cli_main
from helpers import (
    FUZZ_BUDGET,
    fs_isomorphic,
    oracle_satisfiable,
    rand_equation_set,
    rand_general_ugi,
    rand_reduced_marked_indexed,
    rand_reduced_ugi,
    sample_until,
    small_term_set,
)

ROOT_DIR = Path(__file__).resolve().parent.parent
FIXTURES = ROOT_DIR / "fixtures"
EX1 = str(FIXTURES / "example1.ixg")
EX2 = str(FIXTURES / "example2.ixg")
EX2U = str(FIXTURES / "example2_u.ugr")
AGR = str(FIXTURES / "agreement.ugr")


def _verdict(capsys, n: int, thunk) -> None:
    try:
        thunk()
        ok, msg = True, ""
    except Exception as e:
        ok, msg = False, f"{type(e).__name__}: {e}"
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        pytest.fail(f"criterion {n}: {msg}")


def test_criterion_1_lockstep_enumeration(capsys):
    def go():
        t0 = time.perf_counter()
        code = cli_main(["enum", EX1, "--max-len", "9", "--json"])
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - t0
        assert code == 0
        data = json.loads(out)
        assert set(data["words"]) == {"abc", "aabbcc", "aaabbbccc"}
        assert data["exhausted"] is False
        assert elapsed < 5.0, f"{elapsed:.1f}s"

    _verdict(capsys, 1, go)


def test_criterion_2_doubling_language_survives_the_u_transform(capsys, tmp_path):
    def go():
        t0 = time.perf_counter()
        image = tmp_path / "image.ugr"
        assert cli_main(["transform", EX2, "--op", "u", "-o", str(image)]) == 0
        capsys.readouterr()
        code = cli_main(["equiv", EX2, str(image), "--max-len", "8", "--json"])
        data = json.loads(capsys.readouterr().out)
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert data["agree"] is True
        assert data["common"] == ["dd", "dddd", "dddddddd"]
        assert data["left_exhausted"] is False
        assert data["right_exhausted"] is False
        assert elapsed < 60.0, f"{elapsed:.1f}s"

    _verdict(capsys, 2, go)


def test_criterion_3_witnesses_validate_and_models_match(capsys):
    def go():
        g1 = parse_indexed_grammar(Path(EX1).read_text())
        r1 = indexed_membership(g1, "aabbcc")
        assert r1.member and r1.witness is not None
        assert validate_derivation_tree(g1, r1.witness).ok

        gu = parse_unification_grammar(Path(EX2U).read_text())
        r2 = ugi_membership(gu, "dddd")
        assert r2.member and r2.witness is not None and r2.model is not None
        check = generates_check(r2.witness)
        assert check.consistent
        built = canonical_fs(r2.witness)
        assert built.consistent
        assert fs_isomorphic(r2.model, built.model)
        assert fs_isomorphic(check.model, built.model)

    _verdict(capsys, 3, go)


def test_criterion_4_random_grammars_agree_with_their_images(capsys):
    def go():
        t0 = time.perf_counter()
        rng = random.Random(40426)
        for i in range(100):
            gi = rand_reduced_marked_indexed(rng)
            gu, _ = u_transform(gi)
            left = indexed_language_upto(gi, 4, FUZZ_BUDGET)
            right = sug_language_upto(gu, 4, FUZZ_BUDGET)
            assert set(left.words) == set(right.words), f"instance {i}: {gi}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"{elapsed:.1f}s"

    _verdict(capsys, 4, go)


def test_criterion_5_reverse_then_forward_is_the_identity(capsys):
    def go():
        rng = random.Random(50526)
        for i in range(100):
            gu = sink_map_root(rand_reduced_ugi(rng))
            gi, _ = reverse_u(gu)
            gu2, _ = u_transform(gi)
            assert gu2 == gu, f"instance {i}"

    _verdict(capsys, 5, go)


def test_criterion_6_two_consistency_routes_agree(capsys):
    from helpers import rand_ugi_cstructure

    def go():
        rng = random.Random(60626)
        for i in range(1000):
            cs = rand_ugi_cstructure(rng)
            assert generates_check(cs).consistent == canonical_fs(cs).consistent, f"instance {i}"

    _verdict(capsys, 6, go)


def test_criterion_7_rewrites_preserve_the_bounded_language(capsys):
    def go():
        rng = random.Random(70726)
        for i in range(50):
            gi = rand_reduced_marked_indexed(rng)
            before = indexed_language_upto(gi, 4, FUZZ_BUDGET)
            after = indexed_language_upto(mark_index_end(gi), 4, FUZZ_BUDGET)
            assert set(before.words) == set(after.words), f"mark instance {i}"
        for i in range(50):
            gu = rand_general_ugi(rng)
            before = sug_language_upto(gu, 4, FUZZ_BUDGET)
            after = sug_language_upto(ugi_normalize(gu), 4, FUZZ_BUDGET)
            assert set(before.words) == set(after.words), f"normalize instance {i}"
        for i in range(50):
            gr = rand_reduced_ugi(rng)
            before = sug_language_upto(gr, 4, FUZZ_BUDGET)
            # the sink-mapped spine admits arbitrarily deep pushes, so its
            # search may honestly report a stack cap; the word sets still
            # agree because a minimal witness joins no subsumed entry, so a
            # word found before has one whose demand is at most max_demand
            # long, and its spine after needs at most max_demand + 1 pushes
            # (the demand and the end marker), which max_stack allows
            after = sug_language_upto(sink_map_root(gr), 4, FUZZ_BUDGET)
            assert set(before.words) == set(after.words), f"sink instance {i}"

    _verdict(capsys, 7, go)


def test_criterion_8_solver_agrees_with_exhaustive_search(capsys):
    def go():
        rng = random.Random(80826)
        cases = sample_until(lambda: rand_equation_set(rng), small_term_set, 200, 4000)
        assert len(cases) >= 200
        for eqs, names in cases:
            got = solve(eqs, names).consistent
            want = oracle_satisfiable(eqs, names)
            assert got == want, f"{eqs} over {names}"

    _verdict(capsys, 8, go)


# every subcommand over the whole fixture corpus, success and failure paths
_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("check", EX1),
    ("check", EX2),
    ("check", EX2U),
    ("check", AGR),
    ("check", EX1, "--json"),
    ("check", EX2, "--json"),
    ("check", EX2U, "--json"),
    ("check", AGR, "--json"),
    ("member", EX1, "aabbcc"),
    ("member", EX2, "dddd"),
    ("member", EX2U, "dddd"),
    ("member", AGR, "this dog"),
    ("member", AGR, "this dogs"),
    ("enum", EX1, "--max-len", "6"),
    ("enum", EX2, "--max-len", "4", "--json"),
    ("enum", EX2U, "--max-len", "4"),
    ("enum", AGR, "--max-len", "2", "--json"),
    ("transform", EX1, "--op", "mark-end"),
    ("transform", EX2, "--op", "u"),
    ("transform", EX2U, "--op", "reverse-u"),
    ("transform", EX2U, "--op", "ugi-normalize"),
    ("transform", EX2U, "--op", "sink-map"),
    ("transform", AGR, "--op", "ugi-normalize"),
    ("equiv", EX2, EX2U, "--max-len", "4", "--json"),
    ("equiv", EX1, EX2, "--max-len", "3"),
    ("derive", EX1, "abc"),
    ("derive", EX2U, "dddd"),
    ("derive", AGR, "this dog"),
    ("transform", EX2, "--op", "u", "-o", "out.ugr"),
    ("derive", EX2, "dd", "--dot", "out.dot"),
)


def _run_once(argv: tuple[str, ...], cwd: Path):
    """Run the CLI in a fresh interpreter (fresh hash seed) and collect every
    observable byte: exit code, both streams, and any file the command wrote."""
    cwd.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "glab", *argv],
        capture_output=True,
        cwd=cwd,
    )
    files = tuple(
        (p.name, p.read_bytes()) for p in sorted(cwd.iterdir()) if p.is_file()
    )
    return proc.returncode, proc.stdout, proc.stderr, files


def test_criterion_9_every_command_is_deterministic(capsys, tmp_path):
    def go():
        for argv in _COMMANDS:
            first = _run_once(argv, tmp_path / "first")
            second = _run_once(argv, tmp_path / "second")
            assert first == second, f"output drifted: {' '.join(argv)}"
            for p in (tmp_path / "first").iterdir():
                p.unlink()
            for p in (tmp_path / "second").iterdir():
                p.unlink()

    _verdict(capsys, 9, go)

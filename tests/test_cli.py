"""Command-line behaviour: output shapes, exit codes, file side effects."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from glab import (
    mark_index_end,
    parse_indexed_grammar,
    parse_unification_grammar,
    print_indexed_grammar,
    print_unification_grammar,
    sink_map_root,
    ugi_check,
    ugi_normalize,
)
from glab.cli import main
from test_indexed import doubling_grammar
from test_unification import wide_grammar

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EX1 = str(FIXTURES / "example1.ixg")
EX2 = str(FIXTURES / "example2.ixg")
EX2U = str(FIXTURES / "example2_u.ugr")
AGR = str(FIXTURES / "agreement.ugr")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --------------------------------------------------------------------------
# check


def test_check_reports_indexed_rule_shape(capsys):
    code, out, _ = run(capsys, "check", EX1)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "format: indexed"
    assert "rules: 9" in lines
    assert "reduced-form: no" in lines
    assert "marked-index-end: no" in lines
    # every offender line names a rule the reduced form forbids
    assert sum("offender rule" in l for l in lines) == 7


def test_check_json_on_a_marked_reduced_grammar(capsys):
    code, out, _ = run(capsys, "check", EX2, "--json")
    assert code == 0
    assert json.loads(out) == {
        "format": "indexed",
        "rules": 8,
        "reduced_form": True,
        "reduced_offenders": [],
        "marked_index_end": True,
    }


def test_check_json_on_unification_grammars(capsys):
    code, out, _ = run(capsys, "check", EX2U, "--json")
    assert code == 0
    assert json.loads(out) == {
        "format": "unification",
        "rules": 7,
        "lexicon": 1,
        "ugi": True,
        "reduced_form": True,
        "sink_mapped_root": True,
        "offenders": [],
    }
    code, out, _ = run(capsys, "check", AGR, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["format"] == "unification"
    assert (rep["rules"], rep["lexicon"]) == (1, 4)
    assert rep["ugi"] is False and rep["sink_mapped_root"] is False
    assert len(rep["offenders"]) == 4


def test_check_text_on_unification_grammars(capsys):
    code, out, _ = run(capsys, "check", EX2U)
    assert code == 0
    assert out.splitlines() == [
        "format: unification",
        "rules: 7",
        "lexicon: 1",
        "ugi: yes",
        "reduced-form: yes",
        "sink-mapped-root: yes",
    ]
    code, out, _ = run(capsys, "check", AGR)
    lines = out.splitlines()
    assert code == 0
    assert lines[3:6] == ["ugi: no", "reduced-form: no", "sink-mapped-root: no"]
    assert lines[6:] == [f"  offender lexicon {k}: lexicon schemata must be empty" for k in range(4)]


# --------------------------------------------------------------------------
# member


def test_member_prints_a_witness_tree(capsys):
    code, out, _ = run(capsys, "member", EX1, "aabbcc")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "member: yes"
    assert lines[1] == "S []"
    # six terminal leaves, shown without stacks
    assert [l.strip() for l in lines if l.strip() in "abc"].count("a") == 2


def test_member_shows_the_feature_model_for_unification_grammars(capsys):
    code, out, _ = run(capsys, "member", EX2U, "dddd")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "member: yes"
    assert lines[1] == "S"
    assert lines[-1] == "model: 11 nodes"


def test_member_agreement_pairs(capsys):
    code, out, _ = run(capsys, "member", AGR, "these dogs")
    assert code == 0 and out.startswith("member: yes")
    code, out, _ = run(capsys, "member", AGR, "this dogs")
    assert code == 2 and out.splitlines()[0] == "member: no"


def test_member_says_no_on_non_members(capsys):
    code, out, _ = run(capsys, "member", EX1, "aabbc")
    assert code == 2
    assert out.splitlines() == ["member: no"]


def test_member_within_a_tiny_budget_is_a_clean_no(capsys):
    # the word is in the language but no witness fits four nodes
    code, out, _ = run(capsys, "member", EX1, "abc", "--budget", "4")
    assert code == 2
    assert out.splitlines()[0] == "member: no"


def test_member_underscore_is_the_empty_word(tmp_path, capsys):
    p = tmp_path / "eps.ixg"
    p.write_text("nonterminals S\nstart S\nS -> _\n")
    code, out, _ = run(capsys, "member", str(p), "_")
    assert code == 0
    assert out.splitlines()[0] == "member: yes"


def test_member_rejects_foreign_letters(capsys):
    code, _, err = run(capsys, "member", EX1, "abx")
    assert code == 1
    assert err.startswith("error:")


# --------------------------------------------------------------------------
# enum


def test_enum_lists_words_shortest_first(capsys):
    code, out, _ = run(capsys, "enum", EX1, "--max-len", "6")
    assert code == 0
    assert out.splitlines() == ["abc", "aabbcc"]


def test_enum_json_shape(capsys):
    code, out, _ = run(capsys, "enum", EX2, "--max-len", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"maxlen": 4, "words": ["dd", "dddd"], "exhausted": False}


def test_enum_renders_multichar_words_with_spaces(capsys):
    code, out, _ = run(capsys, "enum", AGR, "--max-len", "2")
    assert code == 0
    assert out.splitlines() == ["these dogs", "this dog"]


def test_enum_prints_underscore_for_the_empty_word(tmp_path, capsys):
    p = tmp_path / "eps.ixg"
    p.write_text("nonterminals S\nstart S\nS -> _\n")
    code, out, _ = run(capsys, "enum", str(p), "--max-len", "1")
    assert code == 0
    assert out.splitlines() == ["_"]


def test_every_command_names_a_real_stack_cap(tmp_path, capsys):
    # S pushes f and reads it back at every depth, so its stack grows until
    # max_stack cuts it while every state still fits the length bound
    p = tmp_path / "deep.ixg"
    p.write_text("nonterminals S T\nterminals a\nindices f\nstart S\nS -> T ^f\nT -> S\nS ^f -> a\n")
    code, out, err = run(capsys, "enum", str(p), "--max-len", "2")
    assert code == 0 and out.splitlines() == ["a"]
    assert err == "warning: budget exhausted (max_stack)\n"
    for command in ("member", "derive"):
        code, out, _ = run(capsys, command, str(p), "aa")
        assert code == 2 and out.splitlines() == ["member: no", "budget-exhausted: yes"]


def test_member_stack_cap_is_raised_from_the_command_line(capsys):
    # a real max_stack cut at the default 256; a deeper cap decides the word
    word = "a" * 300 + "b" * 300 + "c" * 300
    code, out, _ = run(capsys, "member", EX1, word)
    assert code == 2 and out.splitlines() == ["member: no", "budget-exhausted: yes"]
    code, out, _ = run(capsys, "member", EX1, word, "--max-stack", "1024")
    assert code == 0 and out.splitlines()[0] == "member: yes"


@pytest.mark.parametrize("flag, cap", [("--max-steps", "max_steps"), ("--max-states", "max_states")])
def test_enum_names_the_cap_its_flag_set(capsys, flag, cap):
    code, _, err = run(capsys, "enum", EX1, "--max-len", "9", flag, "3")
    assert code == 0
    assert err == f"warning: budget exhausted ({cap})\n"


@pytest.mark.parametrize("argv", [
    ("member", EX1, "abc"),
    ("enum", EX1, "--max-len", "3"),
    ("equiv", EX1, EX2, "--max-len", "3"),
    ("derive", EX1, "abc"),
])
def test_every_search_command_takes_every_cap(capsys, argv):
    # each flag reaches Budget, whose check names the field it fills
    for flag in ("--budget", "--max-stack", "--max-states", "--max-steps", "--max-demand", "--max-trees"):
        field = "max_nodes" if flag == "--budget" else flag[2:].replace("-", "_")
        code, _, err = run(capsys, *argv, flag, "0")
        assert code == 1 and err == f"error: budget field {field} must be positive\n", (argv, flag)


# --------------------------------------------------------------------------
# transform


def test_transform_mark_end_matches_the_library(capsys):
    code, out, _ = run(capsys, "transform", EX1, "--op", "mark-end")
    assert code == 0
    g = parse_indexed_grammar(Path(EX1).read_text())
    assert out == print_indexed_grammar(mark_index_end(g))


def test_transform_u_writes_the_shipped_image(tmp_path, capsys):
    dest = tmp_path / "image.ugr"
    code, out, _ = run(capsys, "transform", EX2, "--op", "u", "-o", str(dest))
    assert code == 0
    assert out == f"wrote {dest}\n"
    assert dest.read_text() == Path(EX2U).read_text()


def test_transform_reverse_u_recovers_the_indexed_grammar(tmp_path, capsys):
    dest = tmp_path / "back.ixg"
    code, _, _ = run(capsys, "transform", EX2U, "--op", "reverse-u", "-o", str(dest))
    assert code == 0
    assert parse_indexed_grammar(dest.read_text()) == doubling_grammar()
    assert "# rule-map:" in dest.read_text()


def test_transform_normalize_and_sink_map_match_the_library(tmp_path, capsys):
    wide = tmp_path / "wide.ugr"
    wide.write_text(print_unification_grammar(wide_grammar()))
    code, out, _ = run(capsys, "transform", str(wide), "--op", "ugi-normalize")
    assert code == 0
    assert out == print_unification_grammar(ugi_normalize(wide_grammar()))
    assert ugi_check(parse_unification_grammar(out)).is_reduced

    code, out, _ = run(capsys, "transform", EX2U, "--op", "sink-map")
    assert code == 0
    gu2 = parse_unification_grammar(Path(EX2U).read_text())
    assert out == print_unification_grammar(sink_map_root(gu2))
    assert ugi_check(parse_unification_grammar(out)).has_sink_mapped_root


def test_transform_normalize_refuses_non_stack_schemata(capsys):
    code, _, err = run(capsys, "transform", AGR, "--op", "ugi-normalize")
    assert code == 1
    assert err.startswith("error:") and "stack-form" in err


@pytest.mark.parametrize(
    "path, op",
    [(EX1, "sink-map"), (EX1, "reverse-u"), (EX1, "ugi-normalize"), (AGR, "u"), (AGR, "mark-end")],
)
def test_transform_ops_are_gated_by_grammar_kind(capsys, path, op):
    code, _, err = run(capsys, "transform", path, "--op", op)
    assert code == 1
    assert err.startswith("error:") and op in err


# --------------------------------------------------------------------------
# equiv


def test_equiv_agreeing_grammars_exit_zero(capsys):
    code, out, _ = run(capsys, "equiv", EX2, EX2U, "--max-len", "4", "--json")
    assert code == 0
    assert json.loads(out) == {
        "maxlen": 4,
        "agree": True,
        "common": ["dd", "dddd"],
        "left_only": [],
        "right_only": [],
        "left_exhausted": False,
        "right_exhausted": False,
    }


def test_equiv_agreeing_grammars_in_text_list_the_common_words(capsys):
    code, out, _ = run(capsys, "equiv", EX2, EX2U, "--max-len", "4")
    assert code == 0
    assert out.splitlines() == [
        "max-len: 4",
        "agree: yes",
        "left-exhausted: no",
        "right-exhausted: no",
        "common dd",
        "common dddd",
    ]


def test_equiv_disagreeing_grammars_exit_two(capsys):
    code, out, _ = run(capsys, "equiv", EX1, EX2, "--max-len", "3")
    lines = out.splitlines()
    assert code == 2
    assert "agree: no" in lines
    assert "left-only abc" in lines
    assert "right-only dd" in lines
    assert not any(l.startswith("common") for l in lines)


# --------------------------------------------------------------------------
# derive


def test_derive_streams_dot_to_stdout(capsys):
    code, out, _ = run(capsys, "derive", EX1, "abc")
    assert code == 0
    assert out.startswith("digraph derivation {")
    code, out, _ = run(capsys, "derive", AGR, "this dog")
    assert code == 0
    assert out.startswith("digraph derive {")
    assert 'label="feature structure"' in out


def test_derive_writes_a_dot_file(tmp_path, capsys):
    dest = tmp_path / "tree.dot"
    code, out, _ = run(capsys, "derive", EX2, "dd", "--dot", str(dest))
    assert code == 0
    assert out.splitlines() == ["member: yes", f"wrote {dest}"]
    assert dest.read_text().startswith("digraph derivation {")


def test_derive_names_every_node_of_a_wide_tree_apart(tmp_path, capsys):
    # the root's 12th daughter and the 2nd daughter of its 1st both render
    # alone as "12" unless a lone digit above 9 is set off by a dot
    wide = tmp_path / "wide.ixg"
    wide.write_text("nonterminals S A\nterminals a b\nstart S\nS -> A" + " b" * 11 + "\nA -> a a\n")
    code, out, _ = run(capsys, "derive", str(wide), "aa" + "b" * 11)
    assert code == 0
    nodes = [l.split('"')[1] for l in out.splitlines() if "[label=" in l]
    edges = [l for l in out.splitlines() if " -> " in l]
    assert len(nodes) == len(set(nodes)) == 15
    assert '  "eps" -> ".12";' in edges and '  "1" -> "12";' in edges
    assert len(edges) == 14


def test_derive_on_a_non_member_writes_no_file(tmp_path, capsys):
    dest = tmp_path / "none.dot"
    code, out, _ = run(capsys, "derive", EX1, "ab", "--dot", str(dest))
    assert code == 2
    assert out.splitlines()[0] == "member: no"
    assert not dest.exists()


# --------------------------------------------------------------------------
# wiring and failure exits


def test_usage_errors_exit_one(tmp_path, capsys):
    odd = tmp_path / "g.txt"
    odd.write_text("nonterminals S\nstart S\n")
    bad = tmp_path / "bad.ixg"
    bad.write_text("nonterminals S\n")
    binary = tmp_path / "binary.ixg"
    binary.write_bytes(b"\xff\xfe")
    for argv in (
        ["check", str(odd)],                      # unknown extension
        ["check", str(tmp_path / "missing.ixg")],  # unreadable file
        ["check", str(bad)],                      # parse error
        ["check", str(binary)],                   # not UTF-8
        ["enum", EX1],                            # missing --max-len
        ["transform", EX1, "--op", "bogus"],      # unknown op
        [],                                       # no subcommand
    ):
        assert main(argv) == 1, argv
        assert "error: " in capsys.readouterr().err, argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: glab ")
    assert "{check,member,enum,transform,equiv,derive}" in out.splitlines()[0]


# The wrapper pip writes for a [project.scripts] entry "name = module:attr".
_SCRIPT_TEMPLATE = """\
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_and_module_agree(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((FIXTURES.parent / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["glab"].split(":")
    wrapper = tmp_path / "glab"
    wrapper.write_text(_SCRIPT_TEMPLATE.format(module=module, import_name=func.split(".")[0], func=func))
    routes = [[sys.executable, str(wrapper)]]
    installed = shutil.which("glab")
    if installed is not None:
        routes.append([installed])

    argv = ["check", EX2, "--json"]
    module_run = subprocess.run([sys.executable, "-m", "glab", *argv], capture_output=True)
    assert module_run.returncode == 0, module_run.stderr
    for route in routes:
        script = subprocess.run([*route, *argv], capture_output=True)
        assert script.returncode == 0, (route, script.stderr)
        assert script.stdout == module_run.stdout

"""The compare step of tools/differential.py on small records."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def _write(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return path


def test_compare_reports_changed_fields_and_missing_answers(tmp_path, capsys):
    a = _write(tmp_path / "a", [{"id": "q1", "member": True, "steps": 3}, {"id": "q2", "member": False}])
    b = _write(tmp_path / "b", [{"id": "q1", "member": True, "steps": 4}, {"id": "q3", "member": False}])
    assert differential.compare(a, a, set()) == 0
    assert capsys.readouterr().out == ""
    assert differential.compare(a, b, set()) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "q1: steps: 3 != 4",
        f"q2: only in {a}",
        f"q3: only in {b}",
    ]
    assert err.splitlines() == ["compared 3 answers, 3 differ", "steps: 1"]
    # an allowed field is not printed, but the summary still counts it
    c = _write(tmp_path / "c", [{"id": "q1", "member": True, "steps": 4}, {"id": "q2", "member": False}])
    assert differential.compare(a, c, {"steps"}) == 0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["compared 2 answers, 0 differ", "steps: 1 (allowed)"]
    # answers whose exhausted flag changed are counted by direction
    d = _write(
        tmp_path / "d",
        [
            {"id": "q1", "exhausted": True, "reasons": ["max_stack"]},
            {"id": "q2", "exhausted": True, "reasons": ["max_states"]},
            {"id": "q3", "exhausted": False, "reasons": []},
            {"id": "q4", "exhausted": True, "reasons": ["max_states"]},
        ],
    )
    e = _write(
        tmp_path / "e",
        [
            {"id": "q1", "exhausted": False, "reasons": []},
            {"id": "q2", "exhausted": False, "reasons": []},
            {"id": "q3", "exhausted": True, "reasons": ["max_steps"]},
            {"id": "q4", "exhausted": True, "reasons": ["max_stack"]},
        ],
    )
    assert differential.compare(d, e, {"exhausted", "reasons"}) == 0
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "compared 4 answers, 0 differ",
        "exhausted: 3 (allowed)",
        "reasons: 4 (allowed)",
        "exhausted to complete: 2, complete to exhausted: 1",
    ]


def test_questions_cover_both_engines_once_each():
    ids = [qid for qid, _, _ in differential.questions()]
    assert len(ids) == len(set(ids))
    corpora = {qid.split("/")[0] for qid in ids}
    for name in ("sweep1", "arbitrary", "fuzz", "deep1", "deep2", "deep3", "acceptance4", "acceptance7", "random", "steps"):
        assert name in corpora
    assert {qid.split("/")[1] for qid in ids if qid.startswith("random/")} == {"general", "clash", "marked"}
    assert sum(qid.startswith("acceptance7/") for qid in ids) == 300
    assert sum(qid.startswith("fuzz/") for qid in ids) == 200
    assert sum(qid.startswith("steps/") for qid in ids) == 5 * 29


def test_stack_engine_answers_carry_the_search_counters():
    ex1 = differential._fixture("example1.ixg")
    lang = differential._stack_language(ex1, 9, differential.STACK_FIXTURE_BUDGETS["default"])
    assert lang["words"] == [list("abc"), list("aabbcc"), list("aaabbbccc")]
    assert not lang["exhausted"] and lang["states"] > 0 and lang["steps"] > 0
    member = differential._stack_membership(ex1, "abc", differential.STACK_FIXTURE_BUDGETS["default"])
    assert member["member"] and member["model"] is None
    assert member["witness"] == "eps S [] | 1 S' [f] | 11 A [f] | 111 a | 12 B [f] | 121 b | 13 C [f] | 131 c"
    ex2u = differential._fixture("example2_u.ugr")
    member = differential._stack_membership(ex2u, "dd", differential.STACK_FIXTURE_BUDGETS["default"])
    assert member["member"] and member["model"] is not None and member["reasons"] == []
    # a membership records the counters of its search
    assert member["states"] > 0 and member["improved"] > 0 and "steps" in member
    member = differential._membership(ex2u, "dd", differential.STACK_FIXTURE_BUDGETS["default"])
    assert member["member"] and member["steps"] > 0


def test_node_capped_languages_of_example1_are_complete():
    ids = {qid for qid, _, _ in differential.questions()}
    ex1 = differential._fixture("example1.ixg")
    # a^n b^n c^n up to the largest n whose minimal witness fits the node cap
    for (label, maxlen, budget), count in zip(differential.NODE_CAP_LANGUAGES, (4, 28)):
        assert f"example1.ixg/{label}/language/{maxlen}" in ids
        lang = differential._stack_language(ex1, maxlen, budget)
        assert not lang["exhausted"] and lang["reasons"] == [] and len(lang["words"]) == count


def test_record_writes_a_raising_question_as_its_error_and_goes_on(tmp_path, monkeypatch, capsys):
    def deep(n):
        return deep(n + 1)

    def questions():
        yield "q1", deep, (0,)
        yield "q2", lambda k: {"member": k > 0}, (1,)

    monkeypatch.setattr(differential, "questions", questions)
    out = tmp_path / "rec"
    assert differential.record(out) == 0
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"id": "q1", "error": "RecursionError"},
        {"id": "q2", "member": True},
    ]
    assert capsys.readouterr().err.startswith("recorded 2 answers")
    # an answer that raised on one side differs in its error field
    answered = _write(tmp_path / "answered", [{"id": "q1", "member": True}, {"id": "q2", "member": True}])
    assert differential.compare(out, answered, set()) == 1
    out_lines, err = capsys.readouterr()
    assert out_lines.splitlines() == ['q1: error: "RecursionError" != null', "q1: member: null != true"]
    assert err.splitlines() == ["compared 2 answers, 1 differ", "error: 1", "member: 1"]


def test_questions_include_the_long_unary_chain():
    ids = [qid for qid, _, _ in differential.questions()]
    assert [qid for qid in ids if qid.startswith("chain")] == ["chain600/a/member", "chain600/a/stream", "chain600/language/1"]


def test_questions_include_the_reference_targets():
    ids = [qid for qid, _, _ in differential._reference_target_questions()]
    # #67's 15 words up to length 3, ddddd and the long chain
    assert len(ids) == 17 and "reference/acceptance4/67/aaa/member" in ids
    assert ids[-2:] == ["reference/example2_u.ugr/ddddd/member", "reference/chain2000/a/member"]


def test_construction_questions_ask_each_rewrite_of_each_grammar_kind():
    ids = [qid for qid, _, _ in differential._construction_questions()]
    rewrites = {}
    for qid in ids:
        if qid.startswith("construct/"):
            op = qid.rsplit("/", 1)[1]
            rewrites[op] = rewrites.get(op, 0) + 1
    # 200 indexed grammars (fuzz 50, acceptance 5's reversals 100, acceptance
    # 7's marked 50) and 350 unification ones (fuzz 50, acceptance 5's 200,
    # acceptance 7's 100)
    assert rewrites == dict.fromkeys(("mark_index_end", "u_transform"), 200) | dict.fromkeys(
        ("ugi_normalize", "sink_map_root", "reverse_u"), 350
    )
    canonical = [qid for qid in ids if qid.startswith("canonical/")]
    assert len(canonical) == 1000 + 6  # acceptance 6, and d^2 ... d^64
    assert canonical[-1] == "canonical/example2_u.ugr/64"
    u = differential._rewrite(differential.INDEXED_REWRITES["u_transform"], differential._fixture("example2.ixg"))
    assert u["text"].endswith("# rule-map: 7 -> lexicon 0\n")
    answer = differential._canonical(differential.glab.ugi_membership(differential._fixture("example2_u.ugr"), "dd").witness)
    assert answer["consistent"] and answer["diagnosis"] is None and answer["model"]

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
    assert capsys.readouterr().out.splitlines() == [
        "q1: steps: 3 != 4",
        f"q2: only in {a}",
        f"q3: only in {b}",
    ]
    c = _write(tmp_path / "c", [{"id": "q1", "member": True, "steps": 4}, {"id": "q2", "member": False}])
    assert differential.compare(a, c, {"steps"}) == 0

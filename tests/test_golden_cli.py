"""Golden CLI output: the exact bytes of every witness- and language-printing
command over the fixture corpus.

The expected stdout, stderr, exit code and written files live in
golden_cli.json beside this file.  They pin minimal witnesses (node count,
then rule sequence), word order and exhaustion warnings, so an engine change
that alters any of them fails here.  Fixture paths in the recorded argv are
bare file names under fixtures/.
"""

import json
from pathlib import Path

import pytest

from glab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CASES = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text(encoding="utf-8"))


def _argv(recorded: list[str]) -> list[str]:
    return [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in recorded]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(_argv(case["argv"]))
    cap = capsys.readouterr()
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(tmp_path.iterdir())}
    assert code == case["exit"]
    assert cap.out == case["stdout"]
    assert cap.err == case["stderr"]
    assert files == case["files"]

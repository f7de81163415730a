"""Self-checks of the benchmark: it reaches glab only through public names,
and the counters of a traced pass repeat exactly.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import glab  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Api, Tracer  # noqa: E402

# names outside glab.__all__ that the benchmark may use
ALLOWED_EXTRA = {"cli"}


def _glab_names(tree: ast.AST) -> set[str]:
    """Every name the module takes from glab: `from glab import x`,
    `glab.x` and `import glab.x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "glab":
            assert node.module == "glab", f"imports from the submodule {node.module}"
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "glab" and len(parts) > 1:
                    names.add(parts[1])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "glab":
            if not node.attr.startswith("__"):  # module attributes such as __file__
                names.add(node.attr)
    return names


def test_benchmark_uses_only_public_names():
    used = set(LAYERS)
    for path in BENCH.glob("*.py"):
        if path.name != Path(__file__).name:
            used |= _glab_names(ast.parse(path.read_text(encoding="utf-8")))
    assert used - set(glab.__all__) <= ALLOWED_EXTRA, sorted(used - set(glab.__all__) - ALLOWED_EXTRA)


def test_cli_entry_point_is_main():
    import glab.cli

    assert Api(None).cli_main is glab.cli.main


def _first_pass_counts(workload: str, seed: int):
    w = run.build(workload, seed)
    tracer = Tracer()
    api = Api(tracer)
    api.counting = True
    for op in w.ops:
        outcome = op.check(api, op.call(api))
        assert outcome.ok, f"{op.label}: {outcome.note}"
    return tracer.counts


# words found, exhausted counts by cap, witness nodes and c-structures
DETERMINISTIC = {
    "fuzz-equiv": ("indexed.words_found", "unification.words_found", "transform.rules_out"),
    "deep-stack": ("indexed.witness_nodes", "unification.witness_nodes", "indexed.exhausted.max_stack"),
    "reference-sweep": ("unification.words_found", "unification.cstructures", "unification.cstructures_consistent"),
    "cli-fixtures": (),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _first_pass_counts(workload, seed=11)
    second = _first_pass_counts(workload, seed=11)
    assert first == second
    for key in DETERMINISTIC[workload]:
        assert first[key] > 0, key


def test_span_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    seconds, calls = tracer.self_times(passes=1)
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert seconds["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert calls == {"outer": 1, "inner": 1}


def test_same_seed_same_corpus():
    for workload in run.WORKLOADS:
        a, b = run.build(workload, 5), run.build(workload, 5)
        assert [op.label for op in a.ops] == [op.label for op in b.ops]

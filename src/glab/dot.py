"""Graphviz DOT export for trees, c-structures and feature structures.

Output is deterministic: nodes and edges are emitted in tree-address order
(models in node-number order), so identical inputs give byte-identical text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .features import FeatureStructure
    from .indexed import DerivationTree
    from .unification import CStructure


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _stack_text(stack: tuple[str, ...]) -> str:
    sep = "" if all(len(i) == 1 for i in stack) else " "
    return sep.join(stack)


def _tree_lines(t: DerivationTree, prefix: str) -> list[str]:
    lines = []
    for a in t.domain.sorted_addresses:
        if t.domain.out_degree(a) > 0 or a.is_root:
            sym = t.symbol_at(a)
            stack = t.stack_at(a)
            label = f"{sym} {_stack_text(stack)}" if stack else sym
            lines.append(f'  "{prefix}{a}" [label="{_esc(label)}"];')
        else:
            sym = t.symbol_at(a) or "_"
            lines.append(f'  "{prefix}{a}" [label="{_esc(sym)}" shape=plaintext];')
    for a in t.domain.sorted_addresses:
        for c in t.domain.children(a):
            lines.append(f'  "{prefix}{a}" -> "{prefix}{c}";')
    return lines


def derivation_dot(t: DerivationTree) -> str:
    lines = ["digraph derivation {", "  ordering=out;"]
    lines.extend(_tree_lines(t, ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cstructure_lines(cs: CStructure, prefix: str) -> list[str]:
    from .unification import format_schema

    lines = []
    for a in cs.domain.sorted_addresses:
        cat = cs.categories[a] or "_"
        shape = "" if cs.domain.out_degree(a) > 0 or a.is_root else " shape=plaintext"
        lines.append(f'  "{prefix}{a}" [label="{_esc(cat)}"{shape}];')
    for a in cs.domain.sorted_addresses:
        for c in cs.domain.children(a):
            schema = format_schema(cs.eqsets[c])
            lines.append(f'  "{prefix}{a}" -> "{prefix}{c}" [label="{_esc(schema)}"];')
    return lines


def _model_lines(m: FeatureStructure, prefix: str) -> list[str]:
    lines = []
    for q in m.nodes:
        value = m.alpha.get(q)
        if value is not None:
            lines.append(f'  "{prefix}q{q}" [label="{_esc(value)}" shape=plaintext];')
        else:
            lines.append(f'  "{prefix}q{q}" [label="{q}" shape=circle];')
    for q in m.nodes:
        for attr in sorted(m.delta.get(q, {})):
            r = m.delta[q][attr]
            lines.append(f'  "{prefix}q{q}" -> "{prefix}q{r}" [label="{_esc(attr)}"];')
    for a in sorted(m.names):
        q = m.names[a]
        lines.append(f'  "{prefix}n{a}" [label="{_esc(str(a))}" shape=box];')
        lines.append(f'  "{prefix}n{a}" -> "{prefix}q{q}" [style=dashed];')
    return lines


def cstructure_with_model_dot(cs: CStructure, m: FeatureStructure) -> str:
    """One graph, two clusters: the tree and the model of its equations."""
    lines = ["digraph derive {", '  subgraph cluster_tree {', '    label="c-structure";', "    ordering=out;"]
    lines.extend("  " + s for s in _cstructure_lines(cs, "t"))
    lines.append("  }")
    lines.append('  subgraph cluster_model {')
    lines.append('    label="feature structure";')
    lines.extend("  " + s for s in _model_lines(m, "m"))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Grammar-to-grammar transformations and the matching tree conversions.

An indexed grammar in reduced form whose index stacks end in a dedicated
marker maps rule by rule onto a simple unification grammar over the attribute
pair (next, idx): pushes become push schemata, pops become pop schemata,
two-nonterminal rules become copy-copy productions and terminal rules become
the lexicon.  The map is reversible, and derivation trees convert to
c-structures (and back) on the same tree domain, with index stacks realized
as value strings hanging off the model's nodes.  Both directions and the
tree conversion read the compiled rules (stack_rules), not the productions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import GrammarError, PreconditionError
from .features import (
    STACK_ATTRS,
    FeatureStructure,
    satisfies_set,
    suffix_chain_structure,
)
from .indexed import (
    DerivationTree,
    IndexedGrammar,
    LeafLabel,
    NodeLabel,
    Plain,
    Pop,
    Push,
    SymbolTable,
    marked_index_end_check,
    reduced_form_check,
    tree_of,
    validate_derivation_tree,
)
from . import stackengine
from .stackengine import COPY, POP, PUSH, Rule
from .trees import TreeAddress
from .unification import (
    CStructure,
    Daughter,
    LexRule,
    Schema,
    SimpleUnificationGrammar,
    UProduction,
    collect_equations,
    copy_schema,
    pop_schema,
    push_schema,
    ugi_check,
    validate_cstructure,
)

RuleRef = tuple[str, int]  # ("production" | "lexicon", position)


@dataclass(frozen=True)
class RuleCorrespondence:
    """Bijection between an indexed grammar's rules and a unification
    grammar's rules; images[k] is the production or lexicon slot that indexed
    rule k maps to."""

    images: tuple[RuleRef, ...]

    def __post_init__(self) -> None:
        for ref in self.images:
            kind, j = ref
            if kind not in ("production", "lexicon") or j < 0:
                raise GrammarError(f"bad rule reference {ref}")
        if len(set(self.images)) != len(self.images):
            raise GrammarError("rule correspondence is not injective")

    def image(self, k: int) -> RuleRef:
        if not 0 <= k < len(self.images):
            raise GrammarError(f"no indexed rule {k} in this correspondence")
        return self.images[k]

    @cached_property
    def _backward(self) -> Mapping[RuleRef, int]:
        return {ref: k for k, ref in enumerate(self.images)}

    def preimage(self, ref: RuleRef) -> int:
        if ref not in self._backward:
            raise GrammarError(f"no rule maps to {ref}")
        return self._backward[ref]

    def __len__(self) -> int:
        return len(self.images)


def _require_reduced_marked(g: IndexedGrammar, what: str) -> None:
    rep = reduced_form_check(g)
    if not rep.is_reduced:
        k = rep.offenders[0]
        raise PreconditionError(f"{what} needs reduced form; rule {k} is not: {g.productions[k]}")
    if not marked_index_end_check(g):
        raise PreconditionError(
            f"{what} needs a marked index end: the start symbol must occur in exactly one "
            "rule, a push of an index used nowhere else"
        )


def _schemata(rule: Rule) -> tuple[Schema, ...]:
    """The schema of each child of a compiled reduced indexed rule: a guard
    gives a pop schema over its one COPY child, a PUSH child a push schema,
    a COPY child a copy schema, and a leaf no equations."""
    if rule.guard is not None:
        return (pop_schema(*STACK_ATTRS, rule.guard),)
    return tuple(
        push_schema(*STACK_ATTRS, c.value) if c.op == PUSH else copy_schema() if c.op == COPY else frozenset()
        for c in rule.children
    )


def u_transform(g: IndexedGrammar) -> tuple[SimpleUnificationGrammar, RuleCorrespondence]:
    """Map a reduced, marked indexed grammar to its unification counterpart.

    Rule for rule (_schemata): A -> B^f gives a push schema, A^f -> B a pop
    schema, A -> BC two copy schemata, A -> t (or the empty string) a lexicon
    entry with no equations.  Attributes are (next, idx) and the value
    symbols are the index symbols.
    """
    _require_reduced_marked(g, "the transformation")
    prods: list[UProduction] = []
    lex: list[LexRule] = []
    images: list[RuleRef] = []
    # in reduced form a leaf is the one child of its rule
    for rule in g.stack_rules:
        schemata = _schemata(rule)
        first = rule.children[0]
        if first.op is None:
            images.append(("lexicon", len(lex)))
            lex.append(LexRule(rule.mother, first.symbol, schemata[0]))
        else:
            images.append(("production", len(prods)))
            daughters = tuple(Daughter(c.symbol, s) for c, s in zip(rule.children, schemata))
            prods.append(UProduction(rule.mother, daughters))
    gu = SimpleUnificationGrammar(
        g.symbols.nonterminals,
        g.symbols.terminals,
        STACK_ATTRS,
        g.symbols.indices,
        tuple(prods),
        tuple(lex),
        g.start,
    )
    return gu, RuleCorrespondence(tuple(images))


def reverse_u(g: SimpleUnificationGrammar) -> tuple[IndexedGrammar, RuleCorrespondence]:
    """Invert the transformation on a reduced, sink-mapped stack-form grammar.

    The declared value table becomes the index set; push/pop/copy-copy rules
    and the lexicon turn back into the four reduced production shapes.  The
    returned correspondence is keyed by the indexed rules of the output.
    """
    rep = ugi_check(g)
    if not rep.is_ugi:
        first = rep.offenders[0]
        raise PreconditionError(f"schemata are not stack-form; offender: {first[0]} {first[1]}: {first[2]}")
    if not rep.is_reduced:
        first = rep.offenders[0]
        raise PreconditionError(f"grammar is not reduced; offender: {first[0]} {first[1]}: {first[2]}")
    if not rep.has_sink_mapped_root:
        raise PreconditionError(
            "the start symbol must occur in exactly one production, a unary push of a value used nowhere else"
        )
    clash = set(g.values) & (set(g.nonterminals) | set(g.terminals))
    if clash:
        raise PreconditionError(f"value symbols {sorted(clash)} collide with the vocabulary; cannot serve as indices")
    if any(r.mother == g.start for r in g.lexicon):
        raise PreconditionError("the start symbol may not occur in the lexicon")

    prods: list = []
    images: list[RuleRef] = []
    n = len(g.productions)
    # in reduced form push and pop daughters occur only in unary rules; the
    # empty-string leaf of a lexicon rule becomes an empty right-hand side
    for j, rule in enumerate(g.stack_rules):
        first = rule.children[0]
        if first.op == PUSH:
            prods.append(Push(rule.mother, first.symbol, first.value))
        elif first.op == POP:
            prods.append(Pop(rule.mother, first.value, (first.symbol,)))
        else:
            prods.append(Plain(rule.mother, tuple(c.symbol for c in rule.children if c.symbol)))
        images.append(("production", j) if j < n else ("lexicon", j - n))
    symbols = SymbolTable(g.nonterminals, g.terminals, g.values)
    gi = IndexedGrammar(symbols, tuple(prods), g.start)
    return gi, RuleCorrespondence(tuple(images))


def end_marker(g: IndexedGrammar) -> str:
    """The dedicated stack-end index of a marked grammar (pre: marked)."""
    marker = stackengine.end_marker(g.stack_rules, g.start)
    if marker is None:
        raise PreconditionError("the grammar does not mark the end of its index stacks")
    return marker


def cstructure_from_derivation(
    g: IndexedGrammar, t: DerivationTree
) -> tuple[CStructure, FeatureStructure]:
    """Convert a derivation tree to a c-structure of the transformed grammar,
    plus the structure realizing every index stack of the tree as a value
    string.

    Same tree domain and node symbols; every non-root slot carries the schema
    of its licensing rule (_schemata).  The structure's nodes are the suffix
    strings of the stacks occurring in the tree (next drops the first value,
    idx names it) and each node address is mapped to its own stack, so all
    instantiated equations of the c-structure hold.
    """
    _require_reduced_marked(g, "the transformation")
    rep = validate_derivation_tree(g, t)
    if not rep.ok:
        a, cond, msg = rep.errors[0]
        raise PreconditionError(f"not a derivation tree of the grammar: {a} [{cond}] {msg}")
    assert rep.license is not None

    schemata = [_schemata(rule) for rule in g.stack_rules]
    eqsets: dict[TreeAddress, Schema] = {}
    for a, k in rep.license.items():
        eqsets.update(zip(t.domain.children(a), schemata[k]))
    cs = CStructure(t.domain, {a: t.symbol_at(a) for a in t.domain.sorted_addresses}, eqsets)

    names = {a: t.stack_at(a) for a in t.domain.internal}
    m = suffix_chain_structure(set(names.values()), names)
    if not satisfies_set(m, collect_equations(cs)):  # pragma: no cover - conversion invariant
        raise GrammarError("internal error: stack structure violates the converted tree's equations")
    return cs, m


def _value_strings(m: FeatureStructure, next_attr: str, idx_attr: str):
    """A reader of nodes' value strings (see idx_lst) that shares one memo
    across calls and walks with an explicit stack, not one frame per entry."""
    memo: dict[int, tuple[str, ...]] = {}

    def read(q: int) -> tuple[str, ...]:
        todo, open_ = [q], set()
        while todo:
            node = todo.pop()
            if node in memo:
                continue
            a, edges = m.alpha.get(node), m.delta.get(node, {})
            if a is not None or idx_attr not in edges or next_attr not in edges:
                memo[node] = (a,) if a is not None else ()
            elif node in open_:  # both of its strings are read
                open_.discard(node)
                memo[node] = memo[edges[idx_attr]] + memo[edges[next_attr]]
            else:
                open_.add(node)
                if edges[idx_attr] in open_ or edges[next_attr] in open_:
                    raise PreconditionError("idx/next edges form a cycle; the string is undefined")
                todo += (node, edges[next_attr], edges[idx_attr])
        return memo[q]

    return read


def idx_lst(
    m: FeatureStructure, q: int, next_attr: str = STACK_ATTRS[0], idx_attr: str = STACK_ATTRS[1]
) -> tuple[str, ...]:
    """Read the value string below a node: its own value if atomic, else the
    idx string followed by the next string when both edges are present, else
    the empty string.  The structure must be acyclic along these attributes."""
    if q not in set(m.nodes):
        raise GrammarError(f"no node {q} in this structure")
    return _value_strings(m, next_attr, idx_attr)(q)


def _through_marker(s: tuple[str, ...], dollar: str) -> tuple[str, ...]:
    """The smallest prefix of s ending in the marker, or () without one."""
    return s[: s.index(dollar) + 1] if dollar in s else ()


def idx_lst_dollar(
    m: FeatureStructure,
    q: int,
    dollar: str,
    next_attr: str = STACK_ATTRS[0],
    idx_attr: str = STACK_ATTRS[1],
) -> tuple[str, ...]:
    """Smallest prefix of the node's value string ending in the marker, or
    the empty string when the marker never shows up."""
    return _through_marker(idx_lst(m, q, next_attr, idx_attr), dollar)


def derivation_from_cstructure(
    g: IndexedGrammar, cs: CStructure, m: FeatureStructure
) -> DerivationTree:
    """Rebuild a derivation tree from a consistent c-structure of the
    transformed grammar and a model of its equations.

    Symbols carry over unchanged; the root gets the empty stack and every
    other internal node the marker-terminated prefix of its model node's
    value string.  The result is validated against the grammar, which fails
    only when the given structure is not a generated model of the tree."""
    gu, _ = u_transform(g)
    marker = end_marker(g)
    vrep = validate_cstructure(gu, cs)
    if not vrep.ok:
        a, cond, msg = vrep.errors[0]
        raise PreconditionError(f"not a c-structure of the transformed grammar: {a} [{cond}] {msg}")
    if not satisfies_set(m, collect_equations(cs)):
        raise PreconditionError("the structure does not satisfy the tree's instantiated equations")

    read = _value_strings(m, *STACK_ATTRS)
    labels: dict[TreeAddress, object] = {}
    for a in cs.domain.sorted_addresses:
        if cs.domain.out_degree(a) == 0 and not a.is_root:
            labels[a] = LeafLabel(cs.categories[a])
        elif a.is_root:
            labels[a] = NodeLabel(cs.categories[a], ())
        else:
            labels[a] = NodeLabel(cs.categories[a], _through_marker(read(m.node_of(a)), marker))
    t = tree_of(labels)
    rep = validate_derivation_tree(g, t)
    if not rep.ok:
        a, cond, msg = rep.errors[0]
        raise GrammarError(
            f"the structure does not reconstruct a derivation (is it a generated model?): {a} [{cond}] {msg}"
        )
    return t

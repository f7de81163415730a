"""Indexed grammars and their derivation trees.

An indexed grammar is a context-free skeleton whose nonterminals carry a stack
of index symbols.  Stacks are tuples with the front at position 0, so a push
puts the new index at position 0 and a pop removes it.  Three production
shapes exist:

    push   A -> B^f        one nonterminal daughter, f pushed onto its stack
    pop    A^f -> alpha    applicable when f is on top; daughters get the rest
    plain  A -> alpha      daughters copy the mother's stack unchanged

Terminal daughters always carry no stack.  A production with an empty right
hand side produces a single empty-string leaf, so internal nodes always have
at least one child and a derivation tree has at least two nodes.

Two language engines serve indexed grammars and deliberately stay separate
so they can be checked against each other:

* ``enumerate_derivations`` streams every derivation tree within a node budget
  in a fixed order (ascending node count, ties by the production-index
  sequence read in address order).  It is the reference semantics and the
  brute-force oracle.
* ``indexed_language_upto`` / ``indexed_membership`` run ``glab.stackengine``,
  the fixpoint engine shared with stack-form unification grammars, and map
  its witness back to a derivation tree.

Both read the productions as the engine does, from their compiled rules
(``IndexedGrammar.stack_rules``), and so does ``validate_derivation_tree``;
only the compile, the grammar's own checks and text I/O read the three
production shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Union

from .budget import Budget, DEFAULT_BUDGET, LanguageResult, MembershipResult, SearchStats
from .errors import GrammarError
from .stackengine import COPY, PUSH, Child, Fixpoint, Machine, Rule, Stack, Word, end_marker, reduced, terminal_word
from .trees import ROOT, TreeAddress, TreeDomain, domain_of


def _check_symbol(sym: str, role: str) -> None:
    if not sym or any(c.isspace() for c in sym):
        raise GrammarError(f"{role} symbol must be a non-empty token without whitespace: {sym!r}")


@dataclass(frozen=True)
class SymbolTable:
    """Declared nonterminals, terminals and indices, in declaration order.

    The three sets must be pairwise disjoint; order is preserved so that
    printing a grammar reproduces its source.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    indices: tuple[str, ...]

    def __post_init__(self) -> None:
        for group, role in ((self.nonterminals, "nonterminal"), (self.terminals, "terminal"), (self.indices, "index")):
            for s in group:
                _check_symbol(s, role)
            if len(set(group)) != len(group):
                raise GrammarError(f"duplicate {role} declaration")
        n, t, i = set(self.nonterminals), set(self.terminals), set(self.indices)
        overlap = (n & t) | (n & i) | (t & i)
        if overlap:
            raise GrammarError(f"symbol classes must be disjoint, shared: {sorted(overlap)}")

    @cached_property
    def nonterminal_set(self) -> frozenset[str]:
        return frozenset(self.nonterminals)

    @cached_property
    def terminal_set(self) -> frozenset[str]:
        return frozenset(self.terminals)

    @cached_property
    def index_set(self) -> frozenset[str]:
        return frozenset(self.indices)


@dataclass(frozen=True)
class Push:
    """A -> B^f : push f onto the stack of the single daughter B."""

    lhs: str
    rhs: str
    index: str

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs} ^{self.index}"


@dataclass(frozen=True)
class Pop:
    """A^f -> alpha : applicable when f is on top; daughters get the popped stack."""

    lhs: str
    index: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else "_"
        return f"{self.lhs} ^{self.index} -> {rhs}"


@dataclass(frozen=True)
class Plain:
    """A -> alpha : daughters copy the mother's stack."""

    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else "_"
        return f"{self.lhs} -> {rhs}"


IndexedProduction = Union[Push, Pop, Plain]


@dataclass(frozen=True)
class IndexedGrammar:
    symbols: SymbolTable
    productions: tuple[IndexedProduction, ...]
    start: str

    def __post_init__(self) -> None:
        syms = self.symbols
        if self.start not in syms.nonterminal_set:
            raise GrammarError(f"start symbol {self.start!r} is not a declared nonterminal")
        for k, p in enumerate(self.productions):
            if p.lhs not in syms.nonterminal_set:
                raise GrammarError(f"rule {k}: left-hand side {p.lhs!r} is not a nonterminal")
            if isinstance(p, Push):
                if p.rhs not in syms.nonterminal_set:
                    raise GrammarError(f"rule {k}: push target {p.rhs!r} is not a nonterminal")
                if p.index not in syms.index_set:
                    raise GrammarError(f"rule {k}: {p.index!r} is not a declared index")
            else:
                if isinstance(p, Pop) and p.index not in syms.index_set:
                    raise GrammarError(f"rule {k}: {p.index!r} is not a declared index")
                for s in p.rhs:
                    if s not in syms.nonterminal_set and s not in syms.terminal_set:
                        raise GrammarError(f"rule {k}: {s!r} is neither nonterminal nor terminal")

    @cached_property
    def single_char_terminals(self) -> bool:
        return all(len(t) == 1 for t in self.symbols.terminals)

    def render_word(self, word: Word) -> str:
        sep = "" if self.single_char_terminals else " "
        return sep.join(word)

    def parse_word(self, text: str) -> Word:
        """Split surface text into terminal symbols and validate them."""
        return terminal_word(text, self.symbols.terminal_set, self.single_char_terminals)

    @cached_property
    def stack_rules(self) -> Machine:
        """The productions as stack-engine rules, numbered as here: a push
        pushes onto its one child, a pop is a guard over copying children,
        and a plain rule copies.  Terminals become leaves, an empty
        right-hand side one empty-string leaf.  Cached, so every search of
        this grammar shares the Machine's tables."""
        nts = self.symbols.nonterminal_set
        rules = []
        for p in self.productions:
            if isinstance(p, Push):
                rules.append(Rule(p.lhs, None, (Child(p.rhs, PUSH, p.index),)))
                continue
            children = tuple(Child(s, COPY) if s in nts else Child(s) for s in p.rhs) or (Child(""),)
            rules.append(Rule(p.lhs, p.index if isinstance(p, Pop) else None, children))
        return Machine(rules)


# --------------------------------------------------------------------------
# Derivation trees


@dataclass(frozen=True)
class NodeLabel:
    """Label of an internal node: a nonterminal with its index stack (front = top)."""

    symbol: str
    stack: Stack = ()


@dataclass(frozen=True)
class LeafLabel:
    """Label of a leaf: a terminal symbol, or "" for the empty string."""

    symbol: str


Label = Union[NodeLabel, LeafLabel]


@dataclass(frozen=True, eq=False)
class DerivationTree:
    """A labeled tree domain.

    Internal addresses carry NodeLabel, leaves carry LeafLabel; this shape
    constraint is definitional and enforced at construction.  Whether the tree
    is licensed by a particular grammar is a separate question answered by
    validate_derivation_tree.
    """

    domain: TreeDomain
    labels: Mapping[TreeAddress, Label]

    def __post_init__(self) -> None:
        if set(self.labels) != self.domain.addresses:
            raise GrammarError("labels must cover exactly the tree domain")
        d = self.domain
        for a, kids, lab in zip(d.sorted_addresses, d.daughter_positions, d.in_order(self.labels)):
            if kids:
                if not isinstance(lab, NodeLabel):
                    raise GrammarError(f"internal node {a} must carry a nonterminal label")
            elif not isinstance(lab, LeafLabel):
                raise GrammarError(f"leaf {a} must carry a terminal or empty label")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DerivationTree)
            and self.domain.addresses == other.domain.addresses
            and dict(self.labels) == dict(other.labels)
        )

    def symbol_at(self, a: TreeAddress) -> str:
        return self.labels[a].symbol

    def stack_at(self, a: TreeAddress) -> Stack:
        lab = self.labels[a]
        return lab.stack if isinstance(lab, NodeLabel) else ()


def tree_of(labels: Mapping[TreeAddress, Label]) -> DerivationTree:
    """The tree of labels, its domain read in their order (domain_of)."""
    labels = dict(labels)
    return DerivationTree(domain_of(labels), labels)


def terminal_symbols(t: DerivationTree) -> Word:
    """Leaf symbols in address order, empty-string leaves dropped."""
    out = []
    for a in t.domain.leaves:
        s = t.labels[a].symbol
        if s:
            out.append(s)
    return tuple(out)


def terminal_string(t: DerivationTree) -> str:
    """The terminal string: leaf symbols concatenated in address order."""
    return "".join(terminal_symbols(t))


# --------------------------------------------------------------------------
# Structural checks and the end-marker transformation


@dataclass(frozen=True)
class ReducedFormReport:
    is_reduced: bool
    offenders: tuple[int, ...]  # production indices


def reduced_form_check(g: IndexedGrammar) -> ReducedFormReport:
    """Reduced form (stackengine.reduced): every production is a push
    A -> B^f, a pop A^f -> B, or a plain A -> B C, A -> t or A -> _."""
    offenders = tuple(k for k, rule in enumerate(g.stack_rules) if not reduced(rule))
    return ReducedFormReport(not offenders, offenders)


def marked_index_end_check(g: IndexedGrammar) -> bool:
    """True iff the start symbol occurs in exactly one production, that
    production is a push S -> A^e, and its index e occurs in no other rule."""
    return end_marker(g.stack_rules, g.start) is not None


def fresh_symbol(base: str, taken) -> str:
    """base if unused, else base_1, base_2, ..."""
    if base not in taken:
        return base
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def mark_index_end(g: IndexedGrammar) -> IndexedGrammar:
    """Wrap the grammar so every index stack ends in a fresh marker index.

    Adds a fresh start symbol S0 and a fresh index $ with the single rule
    S0 -> S^$.  The language is unchanged and reduced form is preserved.
    """
    taken = set(g.symbols.nonterminals) | set(g.symbols.terminals) | set(g.symbols.indices)
    s0 = fresh_symbol(g.start + "_0", taken)
    taken.add(s0)
    marker = fresh_symbol("$", taken)
    symbols = SymbolTable(
        g.symbols.nonterminals + (s0,),
        g.symbols.terminals,
        g.symbols.indices + (marker,),
    )
    productions = g.productions + (Push(s0, g.start, marker),)
    return IndexedGrammar(symbols, productions, s0)


# --------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationReport:
    """The verdict of validate_derivation_tree and validate_cstructure;
    license maps each internal address to the number of its licensing rule."""

    ok: bool
    errors: tuple[tuple[TreeAddress, str, str], ...]  # (address, condition, message)
    license: Mapping[TreeAddress, int] | None

    @property
    def first_error(self) -> tuple[TreeAddress, str, str] | None:
        return self.errors[0] if self.errors else None


def _child_specs(rule: Rule, stack: Stack) -> list[Label] | None:
    """The labels a node's children must carry when licensed by rule, or
    None when its guard does not hold on this (symbol-independent) stack."""
    if rule.guard is not None:
        if not stack or stack[0] != rule.guard:
            return None
        stack = stack[1:]
    return [
        LeafLabel(c.symbol) if c.op is None else NodeLabel(c.symbol, stack if c.op == COPY else (c.value,) + stack)
        for c in rule.children
    ]


def _licenses(rule: Rule, stack: Stack, actual: list[Label]) -> bool:
    """Whether rule licenses a node with this stack and these children's
    labels: the labels _child_specs gives, compared without building them."""
    if len(rule.children) != len(actual):
        return False
    if rule.guard is not None:
        if not stack or stack[0] != rule.guard:
            return False
        stack = stack[1:]
    for c, lab in zip(rule.children, actual):
        if c.op is None:
            if type(lab) is not LeafLabel or lab.symbol != c.symbol:
                return False
        elif (
            type(lab) is not NodeLabel
            or lab.symbol != c.symbol
            or lab.stack != (stack if c.op == COPY else (c.value,) + stack)
        ):
            return False
    return True


def validate_derivation_tree(g: IndexedGrammar, t: DerivationTree) -> ValidationReport:
    """Check the tree against the grammar and return the licensing map.

    Conditions: the root carries the start symbol with an empty stack and is
    internal; every internal node's children match exactly one production
    (the first matching production, in rule order, becomes its license);
    leaves carry declared terminals or the empty string.  A node's
    candidates are its symbol's rules, from the grammar's index by mother
    (Machine.by_mother), which keeps rule order.
    """
    errors: list[tuple[TreeAddress, str, str]] = []
    license: dict[TreeAddress, int] = {}
    rules = g.stack_rules
    by_mother = rules.by_mother
    terminals, indices = g.symbols.terminal_set, g.symbols.index_set
    root_label = t.labels[ROOT]
    if not isinstance(root_label, NodeLabel) or root_label.symbol != g.start or root_label.stack:
        errors.append((ROOT, "root", f"root must be the start symbol {g.start!r} with an empty stack"))
    labels = t.domain.in_order(t.labels)
    # a licensed node's children carry its stack, popped or pushed by a
    # declared index, so a stack is scanned only where no licence vouches
    vouched = [False] * len(labels)
    for i, a, kids, lab in zip(itertools.count(), t.domain.sorted_addresses, t.domain.daughter_positions, labels):
        if isinstance(lab, LeafLabel):
            if lab.symbol and lab.symbol not in terminals:
                errors.append((a, "leaf", f"{lab.symbol!r} is not a terminal of the grammar"))
            continue
        candidates = by_mother.get(lab.symbol)
        if candidates is None and lab.symbol not in g.symbols.nonterminal_set:
            errors.append((a, "symbol", f"{lab.symbol!r} is not a nonterminal of the grammar"))
            continue
        if not vouched[i] and not indices.issuperset(lab.stack):
            errors.append((a, "stack", f"stack {lab.stack} uses undeclared indices"))
            continue
        actual = [labels[j] for j in kids]
        for k in candidates or ():
            if _licenses(rules[k], lab.stack, actual):
                license[a] = k
                for j in kids:
                    vouched[j] = True
                break
        else:
            errors.append((a, "license", f"no production licenses {lab.symbol!r} with stack {lab.stack} and these children"))
    ok = not errors
    return ValidationReport(ok, tuple(errors), license if ok else None)


# --------------------------------------------------------------------------
# Enumeration stream

_LEAF = "leaf"


def _memo_walk(memo: dict, build, top):
    """The memo entry of top.  A build(*key) generator yields each key whose
    entry it needs, smaller than its own, is sent back that entry and
    returns its own; they run as a trampoline, so that a chain of new keys
    does not recurse per level.  Every entry computed is stored in memo."""
    if top in memo:
        return memo[top]
    keys, gens = [top], [build(*top)]
    sent = None
    while gens:
        try:
            want = gens[-1].send(sent)
        except StopIteration as done:
            memo[keys.pop()] = sent = done.value
            gens.pop()
            continue
        sent = memo.get(want)
        if sent is None:
            keys.append(want)
            gens.append(build(*want))
    return sent


def _capped(groups, budget: Budget, stats: SearchStats) -> Iterator[tuple]:
    """The nodes of each group in turn, within budget.max_trees nodes; the
    stream also stops after a group whose search a cap cut short."""
    for group in groups:
        for node in group:
            if stats.trees >= budget.max_trees:
                stats.mark_exhausted("max_trees")
                return
            stats.trees += 1
            yield node
        if stats.exhausted:
            return


class _SizedEnumerator:
    """Memoized enumeration of subtrees with an exact node count.

    Results per (symbol, stack, size) are tuples of structure nodes sorted by
    their production-index sequence read in preorder, which equals address
    order; a structure node is (seq, label, children) where children mix
    structure nodes and leaf markers ("leaf", symbol).
    """

    def __init__(self, g: IndexedGrammar, budget: Budget, stats: SearchStats):
        self.g = g
        self.budget = budget
        self.stats = stats
        self.memo: dict[tuple[str, Stack, int], tuple] = {}

    def subtrees(self, sym: str, stack: Stack, size: int):
        return _memo_walk(self.memo, self._build, (sym, stack, size))

    def _build(self, sym: str, stack: Stack, size: int):
        """The entry of one key; yields each child key it needs, in order,
        and is sent back that key's entry."""
        out = []
        rules = self.g.stack_rules
        for pi in rules.by_mother.get(sym, ()):
            specs = _child_specs(rules[pi], stack)
            if specs is None:
                continue
            self.stats.steps += 1
            if self.stats.steps > self.budget.max_steps:
                self.stats.mark_exhausted("max_steps")
                break
            free = [i for i, s in enumerate(specs) if isinstance(s, NodeLabel)]
            remaining = size - 1 - (len(specs) - len(free))
            if not free:
                if remaining == 0:
                    children = tuple((_LEAF, s.symbol) for s in specs)
                    out.append(((pi,), NodeLabel(sym, stack), children))
                continue
            # distribute `remaining` nodes over the nonterminal slots, >= 2 each
            for combo in _compositions(remaining, len(free), 2):
                parts = []
                dead = False
                for idx, sz in zip(free, combo):
                    spec = specs[idx]
                    subs = yield (spec.symbol, spec.stack, sz)
                    if not subs:
                        dead = True
                        break
                    parts.append(subs)
                if dead:
                    continue
                for chosen in itertools.product(*parts):
                    children: list = []
                    seq: tuple[int, ...] = (pi,)
                    it = iter(chosen)
                    for s in specs:
                        if isinstance(s, LeafLabel):
                            children.append((_LEAF, s.symbol))
                        else:
                            node = next(it)
                            children.append(node)
                            seq = seq + node[0]
                    out.append((seq, NodeLabel(sym, stack), tuple(children)))
        out.sort(key=lambda n: n[0])
        return tuple(out)


def _compositions(total: int, parts: int, minimum: int):
    """All ways to write total as an ordered sum of `parts` integers >= minimum."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _materialize(node) -> DerivationTree:
    labels: dict[TreeAddress, Label] = {}
    todo = [(node, ROOT)]
    while todo:
        n, addr = todo.pop()
        if n[0] == _LEAF:
            labels[addr] = LeafLabel(n[1])
            continue
        _, lab, children = n
        labels[addr] = lab
        todo.extend((children[i - 1], addr.child(i)) for i in range(len(children), 0, -1))
    return tree_of(labels)


def enumerate_derivations(
    g: IndexedGrammar,
    budget: Budget = DEFAULT_BUDGET,
    stats: SearchStats | None = None,
) -> Iterator[DerivationTree]:
    """Stream every derivation tree with at most budget.max_nodes nodes.

    Order: ascending node count; within one node count, lexicographic by the
    sequence of production indices applied, read in address order.  The stream
    stops early when budget.max_trees trees have been yielded or the step cap
    is hit; `stats` (when given) records whether that happened.
    """
    stats = stats if stats is not None else SearchStats()
    enum = _SizedEnumerator(g, budget, stats)
    by_size = (enum.subtrees(g.start, (), size) for size in range(2, budget.max_nodes + 1))
    for node in _capped(by_size, budget, stats):
        yield _materialize(node)


# --------------------------------------------------------------------------
# Fixpoint language engine


def indexed_language_upto(g: IndexedGrammar, maxlen: int, budget: Budget = DEFAULT_BUDGET) -> LanguageResult:
    """All terminal strings of length <= maxlen with a derivation within budget.

    Sorted by length, then lexicographically.  When `exhausted` is False the
    result is complete for every string whose minimal derivation fits in
    budget.max_nodes nodes.
    """
    return Fixpoint(g.stack_rules, g.start, maxlen, budget).run().language()


def indexed_membership(g: IndexedGrammar, w: Word | str, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Decide whether w has a derivation within budget; on success return a
    minimal-node witness tree (ties broken by production-index sequence)."""
    word = terminal_word(w, g.symbols.terminal_set, g.single_char_terminals)
    fp = Fixpoint(g.stack_rules, g.start, len(word), budget, word).run()
    walk = fp.witness(word)
    if walk is None:
        return MembershipResult(False, None, fp.stats.exhausted, reasons=tuple(fp.stats.reasons), stats=fp.stats)
    witness = tree_of({a: LeafLabel(item) if isinstance(item, str) else NodeLabel(*item) for a, _, item in walk})
    report = validate_derivation_tree(g, witness)
    if not report.ok:  # pragma: no cover - engine invariant
        raise GrammarError(f"internal error: witness failed validation: {report.first_error}")
    return MembershipResult(True, witness, fp.stats.exhausted, reasons=tuple(fp.stats.reasons), stats=fp.stats)

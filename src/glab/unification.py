"""Simple unification grammars and their constituent structures.

A simple unification grammar pairs a context-free skeleton with equation
schemata: every daughter slot of a production carries a finite set of
equations over the two arrows (up = the mother's address, down = the
daughter's), and every lexicon rule carries value equations over up only.
A c-structure is a categorized tree whose non-root nodes carry the schema of
their rule slot; the string it derives is grammatical when the instantiated
equations of the whole tree have a well-defined model.

The restricted subclass for stack-like behavior ("UGI" in the names below)
limits production schemata to three forms over one global attribute pair
(next, idx):

    copy    {up = dn}
    push    {dn next = up, dn idx = f}
    pop     {up next = dn, up idx = f}

and requires empty lexicon schemata.  For this subclass the module offers a
reduced form, a sink-mapped root wrapper, a canonical model construction and
fixpoint membership: the rules compile to those of ``glab.stackengine``, the
engine shared with indexed grammars, which tracks per subtree the string of
values it demands below the free root node of the model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping, Union

from .budget import Budget, DEFAULT_BUDGET, LanguageResult, MembershipResult, SearchStats
from .errors import GrammarError, PreconditionError
from .features import (
    EMPTY_ROOTED,
    STACK_ATTRS,
    Consistent,
    Equation,
    FeatureStructure,
    Inconsistent,
    PathEq,
    Rooted,
    SolveResult,
    ValEq,
    ValueClash,
    solve,
    solve_rooted,
)
from .indexed import _LEAF, ValidationReport, _capped, _check_symbol, _memo_walk, fresh_symbol
from .stackengine import Child, Fixpoint, Machine, Rule, Word, end_marker, reduced, terminal_word
from .trees import ROOT, TreeAddress, TreeDomain, domain_of

Path = tuple[str, ...]


class Arrow(Enum):
    UP = "up"
    DOWN = "dn"

    @property
    def rank(self) -> int:
        return 0 if self is Arrow.UP else 1

    def __str__(self) -> str:
        return self.value


UP = Arrow.UP
DOWN = Arrow.DOWN


def _check_path(path: Path) -> None:
    for a in path:
        if not a or any(c.isspace() for c in a):
            raise GrammarError(f"attribute must be a non-empty token: {a!r}")


@dataclass(frozen=True)
class ArrowPathEq:
    """Two arrow-relative paths reach the same node.

    Stored in a canonical orientation (longer path first, up before down on
    ties) so that schema sets compare and print deterministically.
    """

    left: Arrow
    left_path: Path
    right: Arrow
    right_path: Path

    def __post_init__(self) -> None:
        _check_path(self.left_path)
        _check_path(self.right_path)
        flip = (len(self.left_path), -self.left.rank) < (len(self.right_path), -self.right.rank)
        if flip:
            left, lp = self.right, self.right_path
            right, rp = self.left, self.left_path
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "left_path", lp)
            object.__setattr__(self, "right", right)
            object.__setattr__(self, "right_path", rp)

    def __str__(self) -> str:
        lhs = " ".join((str(self.left),) + self.left_path)
        rhs = " ".join((str(self.right),) + self.right_path)
        return f"{lhs} = {rhs}"


@dataclass(frozen=True)
class ArrowValEq:
    """An arrow-relative non-empty path carries an atomic value."""

    side: Arrow
    path: Path
    value: str

    def __post_init__(self) -> None:
        _check_path(self.path)
        if not self.path:
            raise GrammarError("value equations require a non-empty path")

    def __str__(self) -> str:
        return " ".join((str(self.side),) + self.path) + f" = {self.value}"


EqSchema = Union[ArrowPathEq, ArrowValEq]
Schema = frozenset


def _schema_key(e: EqSchema):
    if isinstance(e, ArrowPathEq):
        return (0, e.left.rank, e.left_path, e.right.rank, e.right_path, "")
    return (1, e.side.rank, e.path, 0, (), e.value)


def sorted_schema(schema: Schema) -> tuple[EqSchema, ...]:
    return tuple(sorted(schema, key=_schema_key))


def format_schema(schema: Schema) -> str:
    body = " ; ".join(str(e) for e in sorted_schema(schema))
    return "{ " + body + " }" if body else "{ }"


def copy_schema() -> Schema:
    return frozenset({ArrowPathEq(UP, (), DOWN, ())})


def push_schema(next_attr: str, idx_attr: str, value: str) -> Schema:
    return frozenset({ArrowPathEq(DOWN, (next_attr,), UP, ()), ArrowValEq(DOWN, (idx_attr,), value)})


def pop_schema(next_attr: str, idx_attr: str, value: str) -> Schema:
    return frozenset({ArrowPathEq(UP, (next_attr,), DOWN, ()), ArrowValEq(UP, (idx_attr,), value)})


def classify_schema(schema: Schema) -> tuple[str, str | None, tuple[str, str] | None] | None:
    """(kind, value, (next, idx)) for the three stack schema forms, else None."""
    eqs = list(schema)
    if len(eqs) == 1 and isinstance(eqs[0], ArrowPathEq):
        e = eqs[0]
        if e.left is UP and not e.left_path and e.right is DOWN and not e.right_path:
            return ("copy", None, None)
        return None
    if len(eqs) == 2:
        paths = [e for e in eqs if isinstance(e, ArrowPathEq)]
        vals = [e for e in eqs if isinstance(e, ArrowValEq)]
        if len(paths) == 1 and len(vals) == 1:
            pe, ve = paths[0], vals[0]
            if (
                len(pe.left_path) == 1
                and not pe.right_path
                and len(ve.path) == 1
                and pe.left is ve.side
                and pe.right is not ve.side
                and pe.left_path[0] != ve.path[0]
            ):
                pair = (pe.left_path[0], ve.path[0])
                return ("push" if pe.left is DOWN else "pop", ve.value, pair)
    return None


# --------------------------------------------------------------------------
# Grammars


@dataclass(frozen=True)
class Daughter:
    category: str
    schema: Schema

    def __post_init__(self) -> None:
        for e in self.schema:
            if not isinstance(e, (ArrowPathEq, ArrowValEq)):
                raise GrammarError("schema entries must be arrow equations")


@dataclass(frozen=True)
class UProduction:
    mother: str
    daughters: tuple[Daughter, ...]

    def __post_init__(self) -> None:
        if not self.daughters:
            raise GrammarError(f"production for {self.mother!r} needs at least one daughter")

    def __str__(self) -> str:
        parts = [f"{d.category} {format_schema(d.schema)}" for d in self.daughters]
        return f"{self.mother} -> " + " ".join(parts)


@dataclass(frozen=True)
class LexRule:
    mother: str
    word: str  # "" for the empty string
    schema: Schema

    def __post_init__(self) -> None:
        for e in self.schema:
            if not isinstance(e, ArrowValEq):
                raise GrammarError("lexicon schemata may contain value equations only")

    def __str__(self) -> str:
        w = self.word if self.word else "_"
        return f"{self.mother} -> {w} {format_schema(self.schema)}"


URule = Union[UProduction, LexRule]


@dataclass(frozen=True)
class SimpleUnificationGrammar:
    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    attributes: tuple[str, ...]
    values: tuple[str, ...]
    productions: tuple[UProduction, ...]
    lexicon: tuple[LexRule, ...]
    start: str

    def __post_init__(self) -> None:
        for group, role in (
            (self.nonterminals, "nonterminal"),
            (self.terminals, "terminal"),
            (self.attributes, "attribute"),
            (self.values, "value"),
        ):
            for s in group:
                _check_symbol(s, role)
            if len(set(group)) != len(group):
                raise GrammarError(f"duplicate {role} declaration")
        nts, ts = set(self.nonterminals), set(self.terminals)
        if nts & ts:
            raise GrammarError(f"nonterminals and terminals must be disjoint: {sorted(nts & ts)}")
        if self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not a declared nonterminal")
        attrs, vals = set(self.attributes), set(self.values)

        def check_schema(schema: Schema, where: str) -> None:
            for e in schema:
                if isinstance(e, ArrowPathEq):
                    used_attrs = set(e.left_path) | set(e.right_path)
                    used_vals: set[str] = set()
                else:
                    used_attrs = set(e.path)
                    used_vals = {e.value}
                if used_attrs - attrs:
                    raise GrammarError(f"{where}: undeclared attribute {sorted(used_attrs - attrs)}")
                if used_vals - vals:
                    raise GrammarError(f"{where}: undeclared value {sorted(used_vals - vals)}")

        for k, p in enumerate(self.productions):
            if p.mother not in nts:
                raise GrammarError(f"rule {k}: mother {p.mother!r} is not a nonterminal")
            for d in p.daughters:
                if d.category not in nts:
                    raise GrammarError(f"rule {k}: daughter {d.category!r} is not a nonterminal")
                check_schema(d.schema, f"rule {k}")
        for k, r in enumerate(self.lexicon):
            if r.mother not in nts:
                raise GrammarError(f"lexicon rule {k}: mother {r.mother!r} is not a nonterminal")
            if r.word and r.word not in ts:
                raise GrammarError(f"lexicon rule {k}: word {r.word!r} is not a terminal")
            check_schema(r.schema, f"lexicon rule {k}")

    @cached_property
    def combined_rules(self) -> tuple[URule, ...]:
        """Productions followed by lexicon rules; indices into this tuple are
        the rule references used by licensing and enumeration order."""
        return self.productions + self.lexicon

    @cached_property
    def _stack_form(self) -> tuple[UgiReport, Machine | None]:
        """ugi_check's report and the stack-engine rules, from one pass over
        the schemata per grammar (see _classify)."""
        return _classify(self)

    @property
    def stack_rules(self) -> Machine:
        """The combined rules as stack-engine rules, numbered as in
        combined_rules (see _classify); requires stack-form schemata.
        Cached, so every search of this grammar shares the Machine's
        tables."""
        _require_ugi(self, "the fixpoint language engine")
        return self._stack_form[1]

    @cached_property
    def _rooted_rules(self) -> tuple[tuple[tuple[frozenset[Equation], tuple[TreeAddress, ...]], ...], tuple]:
        """What the reference engine's rooted structures need of the rules:
        per production its schemata instantiated with up as ROOT and the
        k-th daughter as ROOT.child(k), with the daughters' addresses; per
        lexicon rule, whose one daughter is a leaf, its rooted structure or
        None."""
        productions = []
        for p in self.productions:
            names = tuple(ROOT.child(k) for k in range(1, len(p.daughters) + 1))
            productions.append((_equations((d.schema, ROOT, a) for d, a in zip(p.daughters, names)), names))
        leaf = ROOT.child(1)
        lexicon = tuple(
            solve_rooted(_equations(((r.schema, ROOT, leaf),)), ROOT, ((leaf, EMPTY_ROOTED),)) for r in self.lexicon
        )
        return tuple(productions), lexicon

    @cached_property
    def _chart_order(self) -> tuple[UProduction, ...] | None:
        """The productions in an order that completes a span of the size
        chart in one pass: those with two or more daughters in rule order,
        then the unary ones, each mother's after those of every category it
        reads.  None when the lexicon has an empty-word entry or the unary
        productions close a cycle, where a span can feed itself."""
        from graphlib import CycleError, TopologicalSorter  # loaded by the reference engine alone

        if any(not r.word for r in self.lexicon):
            return None
        wide = [p for p in self.productions if len(p.daughters) > 1]
        unary: dict[str, list[UProduction]] = {}
        for p in self.productions:
            if len(p.daughters) == 1:
                unary.setdefault(p.mother, []).append(p)
        reads = {m: {p.daughters[0].category for p in ps} for m, ps in unary.items()}
        try:
            order = tuple(TopologicalSorter(reads).static_order())
        except CycleError:
            return None
        return tuple(wide) + tuple(p for c in order for p in unary.get(c, ()))

    @cached_property
    def _licences(self) -> dict[tuple[str, tuple[tuple[str, Schema], ...]], int]:
        """validate_cstructure's licence table: the number of the first
        combined rule with each mother and daughters' (category, schema)
        pairs, where a lexicon rule's one daughter is (word, schema).  The
        daughters of a production are nonterminals and that of a lexicon
        rule is a terminal or "", so the two kinds of key never meet."""
        table = {}
        for k, r in enumerate(self.combined_rules):
            if isinstance(r, LexRule):
                daughters = ((r.word, r.schema),)
            else:
                daughters = tuple((d.category, d.schema) for d in r.daughters)
            table.setdefault((r.mother, daughters), k)
        return table

    @cached_property
    def single_char_terminals(self) -> bool:
        return all(len(t) == 1 for t in self.terminals)

    def render_word(self, word: Word) -> str:
        sep = "" if self.single_char_terminals else " "
        return sep.join(word)

    def parse_word(self, text: str) -> Word:
        return terminal_word(text, self.terminals, self.single_char_terminals)


def used_values(g: SimpleUnificationGrammar) -> tuple[str, ...]:
    """Value symbols occurring in any rule, in declaration order."""
    seen: set[str] = set()
    for p in g.productions:
        for d in p.daughters:
            for e in d.schema:
                if isinstance(e, ArrowValEq):
                    seen.add(e.value)
    for r in g.lexicon:
        for e in r.schema:
            seen.add(e.value)
    return tuple(v for v in g.values if v in seen)


# --------------------------------------------------------------------------
# Constituent structures


@dataclass(frozen=True, eq=False)
class CStructure:
    """A categorized tree whose non-root nodes carry their rule-slot schema.

    categories maps every address to a nonterminal, terminal, or "" for the
    empty string; eqsets maps every non-root address to its schema.  Whether
    the structure is licensed by a grammar is checked by validate_cstructure.
    """

    domain: TreeDomain
    categories: Mapping[TreeAddress, str]
    eqsets: Mapping[TreeAddress, Schema]

    def __post_init__(self) -> None:
        if set(self.categories) != self.domain.addresses:
            raise GrammarError("categories must cover exactly the tree domain")
        if set(self.eqsets) != self.domain.addresses - {ROOT}:
            raise GrammarError("eqsets must cover exactly the non-root addresses")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CStructure)
            and self.domain.addresses == other.domain.addresses
            and dict(self.categories) == dict(other.categories)
            and dict(self.eqsets) == dict(other.eqsets)
        )

    def __repr__(self) -> str:
        # addresses in order and schemata in sorted_schema order, so that the
        # text does not depend on the hash seed
        def schema(a: TreeAddress) -> str:
            body = ", ".join(map(repr, sorted_schema(self.eqsets[a])))
            return f"frozenset({{{body}}})" if body else "frozenset()"

        addresses = self.domain.sorted_addresses
        categories = ", ".join(f"{a!r}: {self.categories[a]!r}" for a in addresses)
        eqsets = ", ".join(f"{a!r}: {schema(a)}" for a in addresses if not a.is_root)
        return f"CStructure(domain={self.domain!r}, categories={{{categories}}}, eqsets={{{eqsets}}})"

    @property
    def terminal_symbols(self) -> Word:
        out = []
        for a in self.domain.leaves:
            c = self.categories[a]
            if c:
                out.append(c)
        return tuple(out)

    @property
    def terminal_string(self) -> str:
        return "".join(self.terminal_symbols)


def validate_cstructure(g: SimpleUnificationGrammar, cs: CStructure) -> ValidationReport:
    """Check the tree against the grammar, licensing each internal node by the
    first combined rule (productions, then lexicon) matching its children's
    categories and schemata; the license maps to combined rule indices."""
    errors: list[tuple[TreeAddress, str, str]] = []
    license: dict[TreeAddress, int] = {}
    nts = set(g.nonterminals)
    ts = set(g.terminals)
    d = cs.domain
    positions = d.daughter_positions
    categories = d.in_order(cs.categories)
    schemata = [None, *d.in_order(cs.eqsets, 1)]
    if categories[0] != g.start:
        errors.append((ROOT, "root", f"root must carry the start symbol {g.start!r}"))
    if not positions[0]:
        errors.append((ROOT, "root", "the root must be licensed by a rule"))
    for a, kids, cat in zip(d.sorted_addresses, positions, categories):
        if not kids:
            if a != ROOT and cat and cat not in ts:
                errors.append((a, "leaf", f"{cat!r} is not a terminal of the grammar"))
            continue
        if cat not in nts:
            errors.append((a, "symbol", f"{cat!r} is not a nonterminal of the grammar"))
            continue
        found = g._licences.get((cat, tuple((categories[j], schemata[j]) for j in kids)))
        if found is not None and found >= len(g.productions) and positions[kids[0]]:
            found = None  # a lexicon rule licenses only a leaf daughter
        if found is None:
            errors.append((a, "license", f"no rule licenses {cat!r} with these children"))
        else:
            license[a] = found
    ok = not errors
    return ValidationReport(ok, tuple(errors), license if ok else None)


def _equations(edges) -> frozenset[Equation]:
    """The schemata of (schema, mother, daughter) edges, with up read as the
    mother's address and down as the daughter's."""
    out: set[Equation] = set()
    for schema, mother, daughter in edges:
        for e in schema:
            if isinstance(e, ArrowPathEq):
                left = mother if e.left is UP else daughter
                right = mother if e.right is UP else daughter
                out.add(PathEq(left, e.left_path, right, e.right_path))
            else:
                out.add(ValEq(mother if e.side is UP else daughter, e.path, e.value))
    return frozenset(out)


def instantiate(schema: Schema, mother: TreeAddress, daughter: TreeAddress) -> frozenset[Equation]:
    """Substitute up by the mother's address and down by the daughter's."""
    if daughter.is_root or daughter.parent != mother:
        raise PreconditionError(f"{daughter} is not a daughter of {mother}")
    return _equations(((schema, mother, daughter),))


def collect_equations(cs: CStructure) -> frozenset[Equation]:
    """Union of the instantiated schemata of all non-root nodes."""
    d = cs.domain
    order, schemata = d.sorted_addresses, d.in_order(cs.eqsets, 1)
    return _equations((schemata[j - 1], a, order[j]) for a, kids in zip(order, d.daughter_positions) for j in kids)


def generates_check(cs: CStructure) -> SolveResult:
    """Least-model consistency of the instantiated equations; the name domain
    is every address of the tree."""
    return solve(collect_equations(cs), cs.domain.addresses)


# --------------------------------------------------------------------------
# C-structure enumeration (reference engine)


def _sizes(mask: int) -> Iterator[int]:
    """The sizes in a size bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sumset(a: int, b: int, cap: int) -> int:
    """Every sum of a size in a and a size in b, as a bitmask within cap."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for s in _sizes(a):
        out |= b << s
    return out & cap


def _size_chart(g: SimpleUnificationGrammar, word: Word, max_nodes: int) -> dict[tuple[str, int, int], int]:
    """The context-free backbone of a word: for each (category, i, j), the
    bitmask of the sizes up to max_nodes of the trees that the productions
    and the lexicon build over word[i:j], schemata aside.

    Spans go by length.  Without an empty-string lexicon entry no tree
    spans an empty slice, so empty spans are not visited, and a production
    with two or more daughters reads only shorter spans, whose masks are
    final.  Those run first, then the unary ones in the grammar's
    _chart_order, a daughter's before its mother's, so one pass completes
    the span.  An empty-string entry or a unit cycle can feed a category
    back into its own span; then the productions rerun until no mask grows,
    which ends, as masks are bounded by max_nodes.
    """
    n = len(word)
    cap = (1 << (max_nodes + 1)) - 1
    lex = 4 & cap  # a lexicon rule builds a tree of two nodes
    chart: dict[tuple[str, int, int], int] = {}
    one_pass = g._chart_order
    productions = g.productions if one_pass is None else one_pass

    def production(daughters, i: int, j: int) -> int:
        if len(daughters) == 1:
            return chart.get((daughters[0].category, i, j), 0) << 1 & cap
        # ends maps where the daughters placed so far end to their sizes
        ends = {i: 1}
        last = len(daughters) - 1
        for k, d in enumerate(daughters):
            nxt: dict[int, int] = {}
            for m, acc in ends.items():
                for e in range(j if k == last else m, j + 1):
                    sizes = chart.get((d.category, m, e))
                    if sizes:
                        nxt[e] = nxt.get(e, 0) | _sumset(acc, sizes, cap)
            if not nxt:
                return 0
            ends = nxt
        return ends.get(j, 0) << 1 & cap

    for length in range(0 if any(not r.word for r in g.lexicon) else 1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            if length <= 1:
                span = word[i] if length else ""
                for r in g.lexicon:
                    if r.word == span:
                        chart[(r.mother, i, j)] = chart.get((r.mother, i, j), 0) | lex
            grew = True
            while grew:
                grew = False
                for p in productions:
                    key = (p.mother, i, j)
                    have = chart.get(key, 0)
                    sizes = have | production(p.daughters, i, j)
                    if sizes != have:
                        chart[key] = sizes
                        grew = one_pass is None
    return chart


class _SizedCsEnumerator:
    """Exact-size enumeration of c-structure subtrees spanning a word slice.

    Memoized per (category, start, end, size); entries are (seq, category,
    children) sorted by the combined-rule-index sequence in preorder, and a
    node's seq starts with the index of its rule.  The word's size chart
    rules out the keys that hold no tree: they are never tried, so no step
    is spent on them.  Entries are shared between the trees that contain
    them.

    A packed enumerator keeps, per key, one entry for each rooted structure
    (the least model of the subtree's equations, restricted to what its
    root reaches): the least by seq, with the id of its structure in
    `structures` as a fourth field.  It keeps no entry whose structure is
    None, that is, whose equations solve rejects.  This loses no least
    tree.  A mother's structure is a function of her rule and her
    daughters' structures (features.solve_rooted), and seqs are prefix-free,
    since a rule fixes its number of daughters; so a daughter can be traded
    for the least of her class without changing the mother's structure, and
    the least tree of a class is built from the least trees of its
    daughters' classes.  Each (rule, daughters' structures) is solved once
    per search.
    """

    def __init__(self, g: SimpleUnificationGrammar, word: Word, budget: Budget, stats: SearchStats, packed: bool = False):
        self.g = g
        self.word = word
        self.budget = budget
        self.stats = stats
        self.chart = _size_chart(g, word, budget.max_nodes)
        self.memo: dict[tuple[str, int, int, int], tuple] = {}
        self.packed = packed
        # packed: the rooted structures met, by id, and the ids by
        # structure; the id -1 stands for None, an inconsistent subtree
        self.structures: list[Rooted] = []
        self._ids: dict[Rooted, int] = {}
        # packed: (rule, daughters' structure ids) -> the mother's id
        self._composed: dict[tuple[int, ...], int] = {}

    def subtrees(self, cat: str, i: int, j: int, size: int):
        return _memo_walk(self.memo, self._build, (cat, i, j, size))

    def _intern(self, rooted: Rooted | None) -> int:
        """The id of a rooted structure in this search; -1 for None."""
        if rooted is None:
            return -1
        sid = self._ids.get(rooted)
        if sid is None:
            sid = self._ids[rooted] = len(self.structures)
            self.structures.append(rooted)
        return sid

    def _compose(self, key: tuple[int, ...]) -> int:
        """The structure id of a mother built by rule key[0] over daughters
        whose structure ids are key[1:], solved once per search."""
        equations, names = self.g._rooted_rules[0][key[0]]
        parts = zip(names, [self.structures[s] for s in key[1:]])
        sid = self._composed[key] = self._intern(solve_rooted(equations, ROOT, parts))
        return sid

    def _build(self, cat: str, i: int, j: int, size: int):
        """The entry of a key the size chart admits; a generator for
        _memo_walk, yielding each daughter key it needs."""
        out = []
        packed, composed = self.packed, self._composed
        # packed: a structure id -> (rule and daughters' seqs, daughters,
        # schemata) of the least candidate of that class so far
        least: dict[int, tuple] = {}
        n_prods = len(self.g.productions)
        for pi, p in enumerate(self.g.productions):
            if p.mother != cat:
                continue
            self.stats.steps += 1
            if self.stats.steps > self.budget.max_steps:
                self.stats.mark_exhausted("max_steps")
                break
            schemas = [d.schema for d in p.daughters]
            for combo in (yield from self._arrangements(p.daughters, i, j, size - 1)):
                for chosen in itertools.product(*combo):
                    if packed:
                        key = (pi, *[c[3] for c in chosen])
                        sid = composed.get(key)
                        if sid is None:
                            sid = self._compose(key)
                        if sid >= 0:
                            # prefix-free seqs compare as their concatenation
                            order = (pi, *[c[0] for c in chosen])
                            have = least.get(sid)
                            if have is None or order < have[0]:
                                least[sid] = (order, chosen, schemas)
                        continue
                    seq: tuple[int, ...] = (pi,)
                    for node in chosen:
                        seq = seq + node[0]
                    out.append((seq, cat, tuple(zip(chosen, schemas))))
        if not self.stats.exhausted and size == 2 and j - i <= 1:
            span = self.word[i] if j > i else ""
            for li, r in enumerate(self.g.lexicon):
                if r.mother == cat and r.word == span:
                    leaf = (_LEAF, r.word)
                    if not packed:
                        out.append(((n_prods + li,), cat, ((leaf, r.schema),)))
                        continue
                    sid = self._intern(self.g._rooted_rules[1][li])
                    if sid >= 0:
                        # no production builds two nodes, and lexicon rules come in order
                        least.setdefault(sid, ((n_prods + li,), (leaf,), (r.schema,)))
        for sid, (order, chosen, schemas) in least.items():
            seq = order[:1] + tuple(itertools.chain.from_iterable(order[1:]))
            out.append((seq, cat, tuple(zip(chosen, schemas)), sid))
        out.sort(key=lambda n: n[0])
        return tuple(out)

    def _arrangements(self, daughters, i: int, j: int, nodes_left: int):
        """All ways to give each daughter a contiguous slice and a size that
        the size chart admits, as tuples of the daughters' entries; yields
        each key whose entry is not yet in the memo, in the order of a
        depth-first walk over the daughters.  The last daughter takes the
        rest of the span and of the nodes, and is looked up in place."""
        chart, memo = self.chart, self.memo
        d = daughters[0]
        if len(daughters) == 1:
            if not chart.get((d.category, i, j), 0) >> nodes_left & 1:
                return []
            key = (d.category, i, j, nodes_left)
            subs = memo.get(key)
            if subs is None:
                subs = yield key
            return [(subs,)] if subs else []
        out = []
        # every later daughter takes at least two nodes
        most = nodes_left - 2 * (len(daughters) - 1)
        if most < 2:
            return out
        last = daughters[1].category if len(daughters) == 2 else None
        for mid in range(i, j + 1):
            for sz in _sizes(chart.get((d.category, i, mid), 0) & (1 << most + 1) - 1):
                key = (d.category, i, mid, sz)
                subs = memo.get(key)
                if subs is None:
                    subs = yield key
                if not subs:
                    continue
                if last is None:
                    rest = yield from self._arrangements(daughters[1:], mid, j, nodes_left - sz)
                    out.extend((subs,) + r for r in rest)
                elif chart.get((last, mid, j), 0) >> nodes_left - sz & 1:
                    key = (last, mid, j, nodes_left - sz)
                    rest = memo.get(key)
                    if rest is None:
                        rest = yield key
                    if rest:
                        out.append((subs, rest))
        return out

    def nodes(self) -> Iterator[tuple]:
        """The trees of the start category over the whole word, by size and
        then rule sequence, within budget.max_trees."""
        n = len(self.word)
        sizes = _sizes(self.chart.get((self.g.start, 0, n), 0))
        return _capped((self.subtrees(self.g.start, 0, n, size) for size in sizes), self.budget, self.stats)


def _node_edges(node) -> tuple[dict[TreeAddress, str], list[tuple[Schema, TreeAddress, TreeAddress]]]:
    """The categories of a node's tree by address, and its (schema, mother,
    daughter) edges."""
    categories: dict[TreeAddress, str] = {}
    edges: list[tuple[Schema, TreeAddress, TreeAddress]] = []
    todo = [(node, ROOT)]
    while todo:
        n, addr = todo.pop()
        if n[0] == _LEAF:
            categories[addr] = n[1]
            continue
        cat, children = n[1], n[2]
        categories[addr] = cat
        for k in range(len(children), 0, -1):
            child, schema = children[k - 1]
            caddr = addr.child(k)
            edges.append((schema, addr, caddr))
            todo.append((child, caddr))
    return categories, edges


def _materialize_cs(categories: dict[TreeAddress, str], edges) -> CStructure:
    """The CStructure of a node tree, from _node_edges' result."""
    return CStructure(domain_of(categories), categories, {d: schema for schema, _, d in edges})


def enumerate_cstructures(
    g: SimpleUnificationGrammar,
    word: Word | str,
    budget: Budget = DEFAULT_BUDGET,
    stats: SearchStats | None = None,
) -> Iterator[CStructure]:
    """Stream every c-structure whose terminal string is `word`, up to
    budget.max_nodes nodes, in ascending node count and rule-sequence order.

    The structures are valid for g by construction but not necessarily
    consistent; pair with generates_check to decide grammaticality.  Only
    the sizes that the word's context-free backbone (its size chart) admits
    are searched, so a word outside the backbone yields nothing after its
    chart is built.  sug_membership searches the same memo packed, one least
    subtree per rooted feature structure, with no inconsistent one; this
    stream holds them all.
    """
    w = terminal_word(word, g.terminals, g.single_char_terminals)
    stats = stats if stats is not None else SearchStats()
    for node in _SizedCsEnumerator(g, w, budget, stats).nodes():
        yield _materialize_cs(*_node_edges(node))


def sug_membership(g: SimpleUnificationGrammar, w: Word | str, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Search the c-structures of the word for one that generates a model.

    This is the reference semantics: its witness is the first c-structure
    of the enumerate_cstructures stream whose equations solve finds
    consistent, with solve's model.  It reads the stream's memo packed (see
    _SizedCsEnumerator): per (category, span, size) one least subtree for
    each rooted feature structure, and none whose structure is
    inconsistent.  A tree's structure is None exactly when solve rejects its
    equations (features.solve_rooted), and the least tree of each class
    survives the packing, so the first root entry, in order of size and
    rule sequence, is the stream's first consistent tree.  It is still
    solved from the equations of its node tree, over the name domain
    generates_check would use, and solve's verdict is final: a rejected root
    entry would continue the search.  stats.trees counts the root entries
    read, one per class.  Only the witness is built as a CStructure.
    Exponential in the distinct analyses; meant for desk-scale inputs and
    for cross-checking the fixpoint engine.
    """
    stats = SearchStats()
    word = terminal_word(w, g.terminals, g.single_char_terminals)
    for node in _SizedCsEnumerator(g, word, budget, stats, packed=True).nodes():
        categories, edges = _node_edges(node)
        result = solve(_equations(edges), categories.keys())
        if isinstance(result, Consistent):
            witness = _materialize_cs(categories, edges)
            return MembershipResult(True, witness, stats.exhausted, result.model, reasons=tuple(stats.reasons), stats=stats)
    return MembershipResult(False, None, stats.exhausted, reasons=tuple(stats.reasons), stats=stats)


# --------------------------------------------------------------------------
# The stack-schema subclass


@dataclass(frozen=True)
class UgiReport:
    """Classification of a grammar against the stack-schema subclass.

    offenders carries (kind, index, reason) with kind "production"/"lexicon";
    it lists the subclass violations, or the reduced-form violations when the
    grammar is in the subclass but not reduced.  attr_pair is the global
    (next, idx) pair when one is determined by the rules.
    """

    is_ugi: bool
    is_reduced: bool
    has_sink_mapped_root: bool
    offenders: tuple[tuple[str, int, str], ...]
    attr_pair: tuple[str, str] | None = None


def ugi_check(g: SimpleUnificationGrammar) -> UgiReport:
    return g._stack_form[0]


def _classify(g: SimpleUnificationGrammar) -> tuple[UgiReport, Machine | None]:
    """ugi_check's report, and for a stack-form grammar its combined rules as
    stack-engine rules: one child per daughter with the copy, push or pop of
    its schema (classify_schema's kinds are the engine's op names), and one
    leaf per lexicon rule."""
    offenders: list[tuple[str, int, str]] = []
    pair: tuple[str, str] | None = None
    rules = []
    for k, p in enumerate(g.productions):
        children = []
        for d in p.daughters:
            c = classify_schema(d.schema)
            if c is None:
                offenders.append(("production", k, f"daughter {d.category!r} schema {format_schema(d.schema)} is not copy/push/pop"))
                continue
            kind, value, dpair = c
            if dpair is not None:
                if pair is None:
                    pair = dpair
                elif pair != dpair:
                    offenders.append(("production", k, f"attribute pair {dpair} differs from {pair}"))
            children.append(Child(d.category, kind, value))
        rules.append(Rule(p.mother, None, tuple(children)))
    for k, r in enumerate(g.lexicon):
        if r.schema:
            offenders.append(("lexicon", k, "lexicon schemata must be empty"))
    if offenders:
        return UgiReport(False, False, False, tuple(offenders), pair), None
    # reduced form and the sink are read from the productions alone; a
    # lexicon rule, one leaf, is always reduced
    offenders = [
        ("production", k, "not a unary push/pop or binary copy-copy rule")
        for k, rule in enumerate(rules)
        if not reduced(rule)
    ]
    has_sink = end_marker(rules, g.start) is not None
    rules.extend(Rule(r.mother, None, (Child(r.word),)) for r in g.lexicon)
    return UgiReport(True, not offenders, has_sink, tuple(offenders), pair), Machine(rules)


def _require_ugi(g: SimpleUnificationGrammar, what: str) -> UgiReport:
    report = ugi_check(g)
    if not report.is_ugi:
        first = report.offenders[0] if report.offenders else ("?", -1, "unknown")
        raise PreconditionError(f"{what} needs stack-form schemata; offender: {first[0]} {first[1]}: {first[2]}")
    return report


def ugi_normalize(g: SimpleUnificationGrammar) -> SimpleUnificationGrammar:
    """Rewrite to reduced form: unary push/pop rules and binary copy-copy
    rules only, preserving the language.

    Steps: (i) push/pop daughters of rules with two or more daughters are
    detached through fresh unary nonterminals; (ii) rules with three or more
    (now all-copy) daughters are binarized with fresh nonterminals; (iii)
    unary copy rules are eliminated: each nonterminal's unit-reachable set is
    found in one walk, and every non-unit rule of a nonterminal b is copied
    to each nonterminal that reaches b, in nonterminal order, keeping the
    first of any duplicates.
    Terminals never occur inside productions, so no step moves them.
    """
    _require_ugi(g, "normalization")
    taken = set(g.nonterminals) | set(g.terminals)
    fresh_nts: list[str] = []
    counter = itertools.count(1)
    copy = copy_schema()

    def fresh() -> str:
        name = fresh_symbol(f"X{next(counter)}", taken)
        taken.add(name)
        fresh_nts.append(name)
        return name

    # (i) detach push/pop daughters from wide rules
    stage1: list[UProduction] = []
    detached: list[UProduction] = []
    for p in g.productions:
        if len(p.daughters) == 1:
            stage1.append(p)
            continue
        new_daughters = []
        for d in p.daughters:
            if d.schema == copy:
                new_daughters.append(d)
            else:
                x = fresh()
                detached.append(UProduction(x, (d,)))
                new_daughters.append(Daughter(x, copy))
        stage1.append(UProduction(p.mother, tuple(new_daughters)))
    stage1.extend(detached)

    # (ii) binarize wide copy rules
    stage2: list[UProduction] = []
    for p in stage1:
        if len(p.daughters) <= 2:
            stage2.append(p)
            continue
        mother = p.mother
        rest = list(p.daughters)
        while len(rest) > 2:
            x = fresh()
            stage2.append(UProduction(mother, (rest[0], Daughter(x, copy))))
            mother = x
            rest = rest[1:]
        stage2.append(UProduction(mother, tuple(rest)))

    # (iii) eliminate unary copy rules through unit-pair composition
    def is_unit(p: UProduction) -> bool:
        return len(p.daughters) == 1 and p.daughters[0].schema == copy

    unit_next: dict[str, list[str]] = {}
    for p in stage2:
        if is_unit(p):
            unit_next.setdefault(p.mother, []).append(p.daughters[0].category)
    # mothers[b]: every nonterminal whose unit rules reach b, b included, in order
    nonterminals = g.nonterminals + tuple(fresh_nts)
    mothers: dict[str, list[str]] = {}
    for a in nonterminals:
        reach, todo = {a}, [a]
        while todo:
            for c in unit_next.get(todo.pop(), ()):
                if c not in reach:
                    reach.add(c)
                    todo.append(c)
        for b in reach:
            mothers.setdefault(b, []).append(a)

    # dicts as ordered sets: the first of each composed rule is kept
    productions = dict.fromkeys(UProduction(m, p.daughters) for p in stage2 if not is_unit(p) for m in mothers[p.mother])
    lexicon = dict.fromkeys(LexRule(m, r.word, r.schema) for r in g.lexicon for m in mothers[r.mother])
    return SimpleUnificationGrammar(
        nonterminals,
        g.terminals,
        g.attributes,
        g.values,
        tuple(productions),
        tuple(lexicon),
        g.start,
    )


def sink_map_root(g: SimpleUnificationGrammar) -> SimpleUnificationGrammar:
    """Wrap the grammar so the start symbol occurs in exactly one rule, a
    unary push of a fresh marker value used nowhere else.

    A fresh spine symbol below the new start can push any used value any
    number of times before handing over to the old start next to a silent
    empty-string filler, so strings whose structures reach below the old root
    node of the model stay derivable.  Reduced form is preserved.
    """
    report = _require_ugi(g, "root wrapping")
    pair = report.attr_pair or STACK_ATTRS
    taken = set(g.nonterminals) | set(g.terminals) | set(g.values)
    s0 = fresh_symbol(g.start + "_0", taken)
    taken.add(s0)
    spine = fresh_symbol(g.start + "_p", taken)
    taken.add(spine)
    filler = fresh_symbol(g.start + "_e", taken)
    taken.add(filler)
    marker = fresh_symbol("$", taken)
    next_attr, idx_attr = pair

    new_rules = [
        UProduction(s0, (Daughter(spine, push_schema(next_attr, idx_attr, marker)),)),
        UProduction(spine, (Daughter(g.start, copy_schema()), Daughter(filler, copy_schema()))),
    ]
    for f in used_values(g):
        new_rules.append(UProduction(spine, (Daughter(spine, push_schema(next_attr, idx_attr, f)),)))

    attributes = g.attributes + tuple(a for a in pair if a not in g.attributes)
    return SimpleUnificationGrammar(
        g.nonterminals + (s0, spine, filler),
        g.terminals,
        attributes,
        g.values + (marker,),
        g.productions + tuple(new_rules),
        g.lexicon + (LexRule(filler, "", frozenset()),),
        s0,
    )


# --------------------------------------------------------------------------
# Canonical model of a stack-schema c-structure

def canonical_fs(cs: CStructure) -> SolveResult:
    """Build the canonical model in one pass over the addresses in order.

    The root gets a sequence of height+1 copies of the root address; a copy
    daughter shares its mother's sequence, a pop daughter drops the front
    element, a push daughter prepends its own address.  A pop demands its
    mother's sequence and a push its own: a demanded sequence gets a next
    edge to itself without its front element and an idx edge to the node of
    the demanded value.  Leaves with empty schemata become isolated named
    nodes.  Nodes are numbered by first occurrence in address order, then
    the values in sorted order.  The only possible failure is two nodes with
    equal sequences demanding distinct idx values.

    A sequence is an id, and rest[id] the id of the sequence without its
    front element.  Ids are canonical: the root's sequences are the chain
    of its copies, and each push makes a sequence whose front, the pushing
    node, is in no other, so equal sequences have equal ids and no sequence
    is hashed; the work is linear in the tree.
    """
    d = cs.domain
    order = d.sorted_addresses
    # the root's sequence of height+1 copies: id k is k+1 of them
    height = d.height
    rest: list[int | None] = [None, *range(height)]
    seqs = [height]  # per address in order, its sequence (an isolated leaf: its own id)
    pair: tuple[str, str] | None = None
    demands: dict[int, tuple[str, TreeAddress]] = {}
    mother = [0] * len(order)
    for i, kids in enumerate(d.daughter_positions):
        for j in kids:
            mother[j] = i
    # address order puts a mother before her daughters
    for i, x, schema, kids in zip(range(1, len(order)), order[1:], d.in_order(cs.eqsets, 1), d.daughter_positions[1:]):
        if not schema:
            if kids:
                raise PreconditionError(f"internal node {x} has an empty schema; cannot map its daughters")
            seqs.append(len(rest))
            rest.append(None)
            continue
        c = classify_schema(schema)
        if c is None:
            raise PreconditionError(f"schema at {x} is not copy/push/pop: {format_schema(schema)}")
        kind, value, dpair = c
        if dpair is not None:
            if pair is None:
                pair = dpair
            elif pair != dpair:
                raise PreconditionError(f"schema at {x} uses attribute pair {dpair}, elsewhere {pair}")
        # a mother's sequence is set and has 2 or more entries: her schema is
        # nonempty, and at depth d < height she has seen at most d pops
        m = mother[i]
        mother_seq = seqs[m]
        if kind == "copy":
            seqs.append(mother_seq)
            continue
        if kind == "pop":
            seqs.append(rest[mother_seq])
            demanded, at = mother_seq, order[m]
        else:
            demanded = len(rest)
            rest.append(mother_seq)
            seqs.append(demanded)
            at = x
        have = demands.setdefault(demanded, (value, at))
        if have[0] != value:
            return Inconsistent(ValueClash((have[1], (dpair[1],)), have[0], value))

    number: dict = {}
    names = {x: number.setdefault(s, len(number)) for x, s in zip(order, seqs)}
    alpha = dict(enumerate(sorted({v for v, _ in demands.values()}), len(number)))
    number.update((v, q) for q, v in alpha.items())
    next_attr, idx_attr = pair or STACK_ATTRS
    delta = {number[s]: {next_attr: number[rest[s]], idx_attr: number[v]} for s, (v, _) in demands.items()}
    return Consistent(FeatureStructure(tuple(range(len(number))), delta, alpha, names))


# --------------------------------------------------------------------------
# Fixpoint language engine for stack-schema grammars


def _slot_schema(g: SimpleUnificationGrammar, slot: tuple[int, int]) -> Schema:
    rule = g.combined_rules[slot[0]]
    return rule.daughters[slot[1]].schema if isinstance(rule, UProduction) else rule.schema


def ugi_language_upto(g: SimpleUnificationGrammar, maxlen: int, budget: Budget = DEFAULT_BUDGET) -> LanguageResult:
    """All grammatical strings of length <= maxlen whose best witness fits the
    budget, via the demand-string fixpoint.  Requires stack-form schemata."""
    return Fixpoint(g.stack_rules, g.start, maxlen, budget).run().language()


def ugi_membership(g: SimpleUnificationGrammar, w: Word | str, budget: Budget = DEFAULT_BUDGET) -> MembershipResult:
    """Fixpoint membership with a minimal consistent witness c-structure."""
    rules = g.stack_rules
    word = terminal_word(w, g.terminals, g.single_char_terminals)
    fp = Fixpoint(rules, g.start, len(word), budget, word).run()
    walk = fp.witness(word)
    if walk is None:
        return MembershipResult(False, None, fp.stats.exhausted, reasons=tuple(fp.stats.reasons), stats=fp.stats)
    categories = {a: item if isinstance(item, str) else item[0] for a, _, item in walk}
    eqsets = {a: _slot_schema(g, slot) for a, slot, _ in walk if slot is not None}
    witness = CStructure(domain_of(categories), categories, eqsets)
    report = validate_cstructure(g, witness)
    if not report.ok:  # pragma: no cover - engine invariant
        raise GrammarError(f"internal error: witness failed validation: {report.first_error}")
    result = generates_check(witness)
    if not isinstance(result, Consistent):  # pragma: no cover - engine invariant
        raise GrammarError(f"internal error: witness is inconsistent: {result.diagnosis}")
    return MembershipResult(True, witness, fp.stats.exhausted, result.model, reasons=tuple(fp.stats.reasons), stats=fp.stats)


def sug_language_upto(g: SimpleUnificationGrammar, maxlen: int, budget: Budget = DEFAULT_BUDGET) -> LanguageResult:
    """Grammatical strings of length <= maxlen.

    Stack-form grammars go through the fixpoint engine; anything else falls
    back to a membership sweep over every string up to maxlen, which is
    exponential in maxlen and meant for small alphabets only.  A string
    outside the context-free backbone costs only its size chart.
    """
    if maxlen < 0:
        raise GrammarError("maxlen must be >= 0")
    if ugi_check(g).is_ugi:
        return ugi_language_upto(g, maxlen, budget)
    words: list[Word] = []
    exhausted = False
    reasons: list[str] = []
    for n in range(maxlen + 1):
        for combo in itertools.product(g.terminals, repeat=n):
            r = sug_membership(g, combo, budget)
            if r.member:
                words.append(combo)
            if r.exhausted:
                exhausted = True
                if "membership_budget" not in reasons:
                    reasons.append("membership_budget")
    words.sort(key=lambda w: (len(w), w))
    return LanguageResult(tuple(words), exhausted, tuple(reasons))

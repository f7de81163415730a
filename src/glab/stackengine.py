"""One bounded-search engine over index stacks, shared by both formalisms.

Indexed grammars and stack-form unification grammars are one machine: a
nonterminal carries a stack of index values, and a rule hands each child the
mother's stack unchanged, with a value pushed, or with the top value popped.
Both formalisms compile their rules to the Rule form below, numbered as in
the source grammar, and this module computes, for every reachable state
(nonterminal, readable stack; see below), the yields of bounded length
together with a minimal witness: fewest nodes, ties broken by the
rule-number sequence in preorder.

A rule may carry a guard, the value a pop A^f -> alpha needs on top of the
mother's stack; its children then see the rest of the stack.  A guard on an
empty stack is dead.  A child that pops an empty stack instead records a
demand: the values that pops reaching below the root insist on, position by
position.  Entries are keyed by (yield, demand).  Sibling demands must agree
as prefixes of one another since they constrain the same chain; the root
accepts any demand because the chain below a free node can always be built.
Only stack-form rules pop a child, so indexed searches carry no demand.

A shorter demand is the more general description, so an entry is subsumed
when its state also holds its yield with a proper prefix of its demand at
no larger (cost, rule sequence): answer subsumption in tabling (Swift &
Warren 2010), as in Shieber's (1985) subsumption check in chart parsing.
The shorter demand merges with every sibling demand the longer one merges
with, to a prefix of that result, and prepends to a prefix too; preorder
rule sequences are prefix-free, so swapping it in never makes a tree larger
or later, and no minimal tree uses a subsumed entry.  It is not stored, and
an entry that a later one subsumes stays stored but is joined no more.  So
max_demand names only a demand that no shorter one covers.

A state is keyed by the part of its stack that can still be read.  A PUSH
v to a child B, where no live rule that B reaches guards or pops v
(_unread_pushes), hands B the stack (v,) in the search, not v on top of
the mother's stack: the values below v are dead context that no node of
B's subtree can read (Aho 1968).  The cut is exact.  v is never popped, so
no pop in B's subtree reaches below (v,) and none leaves a demand, and B's
rules apply to (v,) exactly as to the whole stack.  The pop summary of
(B, v) has no exit monomial, so the least-yield bound of (B, (v,)) is that
of the whole stack too.  Witnesses are rebuilt with whole stacks
(Fixpoint.witness), so a derivation tree's labels are the stacks of its
nodes.

The paper's translations are defined on two shapes, and both are read here
from the compiled rules, so indexed and stack-form grammars share one
definition of each: reduced(rule), Aho's (1968) reduced form, and
end_marker(rules, start), the dedicated stack-end value that a start symbol
pushes (a marked index end, or a sink-mapped root).

A rule is run on a state only if the least yield lengths of its children,
computed from pop summaries (_YieldBound), sum to at most the length bound
(Fixpoint._fits), so a state is discovered only if its least yield fits:
keeping only the facts a proof within the bound can use, as deductive
parsers keep only the items of a proof over their input (Shieber, Schabes &
Pereira 1995).  A state deeper than the node cap lies in no tree within it,
since every push is a node on the path to it.  Both exclusions are exact and
no budget event; only then do the stack-length and state-count caps apply,
which set the exhausted flag, so max_stack names only a state that could
still lie in a witness, and caps only the part of its stack that can be
read.

A membership run is given the word and keeps less: the subtrees of a witness
yield factors of the word, so a combination is stored only if its yield is a
factor (a substring of the coded word), and a rule with a leaf the word
lacks is left out, also from the yield bound.  Every key a membership run
keeps has the least (cost, rule sequence) that a language run to the same
length gives it, so answers and witnesses agree, but states, steps and
improved are lower, and a membership that a cap cut short may complete.

Relaxation is semi-naive (Bancilhon & Ramakrishnan 1986): when a rule is
rerun for a state because some child state gained or improved entries, it
joins only the combinations of child entries that hold at least one such
fresh entry.  Every such combination is built, in product order, and then
dropped if its yield is over length, its tree is over the node cap, its
yield is no factor of the word (in a membership run) or its demands clash.
SearchStats.steps, and so Budget.max_steps, counts every combination of each
join, and SearchStats.improved the entries added or improved.

Inside a search each terminal and index value is one character, coded in
rule order: yields, stacks and demands are strings, which hash once and
join, push, pop and find factors in C.  language and witness decode.

The machine depends on the grammar alone, and so does most of a search's
set-up.  A Machine, the compiled rules that each grammar class caches as
stack_rules, keeps it, built once per grammar: the code and the coded
rules, and per live-rule set (all rules for a language run; for a
membership, those whose leaves its word has, which depend on the word's
alphabet alone) the rules per mother, the cut pushes and the least-yield
table.  That table is saturated at the largest length bound asked so far
and read at each search's own: capping at K <= C is a homomorphism of the
(min, +) arithmetic capped at C onto the one capped at K, so the values
read are exactly those of a table built for the search (_YieldBound).  A
search keeps only what is its own: the word, the entries, the jobs, the
least yields of its stacks and the stats.  A witness is replayed on the source rules, in preorder, which
is address order, so its tree is built without a sort (trees.domain_of).
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from functools import cached_property
from typing import Collection, NamedTuple, Sequence

from .budget import Budget, LanguageResult, SearchStats
from .errors import GrammarError
from .trees import ROOT, TreeAddress

Stack = tuple[str, ...]
Word = tuple[str, ...]
State = tuple[str, str]  # a nonterminal and its coded stack (Fixpoint)

COPY, PUSH, POP = "copy", "push", "pop"
_address = tuple.__new__  # a TreeAddress from digits known to be positive


class Child(NamedTuple):
    """A leaf when op is None (symbol is a terminal, or "" for the empty
    string); otherwise a nonterminal whose stack is the mother's, after the
    guard, with op (COPY, PUSH or POP) applied for value."""

    symbol: str
    op: str | None = None
    value: str | None = None


class Rule(NamedTuple):
    mother: str
    guard: str | None
    children: tuple[Child, ...]


def terminal_word(w: Sequence[str] | str, terminals: Collection[str], single_char: bool) -> Word:
    """w as a tuple of terminal symbols.  Text is split into characters when
    every terminal is one character long, else at whitespace."""
    if isinstance(w, str):
        w = w if single_char else w.split()
    for s in w:
        if s not in terminals:
            raise GrammarError(f"{s!r} is not a terminal of this grammar")
    return tuple(w)


def reduced(rule: Rule) -> bool:
    """Reduced form: one PUSH or POP child, a guard over one COPY child, two
    COPY children, or one leaf."""
    ops = tuple(c.op for c in rule.children)
    if rule.guard is not None:
        return ops == (COPY,)
    return ops in ((PUSH,), (POP,), (COPY, COPY), (None,))


def end_marker(rules: Sequence[Rule], start: str) -> str | None:
    """The value pushed by the one rule that mentions start, when that rule
    is a guard-free unary PUSH from start and no other rule pushes, pops or
    guards its value; otherwise None."""
    mentions = [r for r in rules if r.mother == start or any(c.symbol == start for c in r.children)]
    if len(mentions) != 1:
        return None
    (rule,) = mentions
    if rule.mother != start or rule.guard is not None or [c.op for c in rule.children] != [PUSH]:
        return None
    marker = rule.children[0].value
    for r in rules:
        if r is not rule and (r.guard == marker or any(c.value == marker for c in r.children)):
            return None
    return marker


# --------------------------------------------------------------------------
# Exact minimum-yield bound from pop summaries

# A monomial (c, m_0, ..., m_n-1) over the nonterminals N_0 .. N_n-1 stands
# for c + sum m_i * x_i, where x_i is the least yield of N_i on some stack w;
# a polynomial, a list of Pareto-minimal monomials, for the least of them.


def _minimal(monos: list) -> list[tuple[int, ...]]:
    """The Pareto-minimal monomials.  A monomial that dominates another
    precedes it in tuple order, so one pass in sorted order keeps them."""
    if len(monos) < 2:
        return monos
    kept: list[tuple[int, ...]] = []
    for m in sorted(set(monos)):
        if not any(all(map(operator.le, k, m)) for k in kept):
            kept.append(m)
    return kept


def _times(p: list, q: list, cap: int) -> list:
    """The product of two polynomials: every sum of a monomial of each."""
    return _minimal([tuple([s if s < cap else cap for s in map(operator.add, a, b)]) for a in p for b in q])


class _YieldBound:
    """The least yield length from a state (A, stack), capped at maxlen + 1.

    The least yield does not depend on leaf order, so it is a property of
    the alternating pushdown system whose control states are the
    nonterminals and whose stack is the index stack, and it is computed
    exactly, as in pre* saturation over the tropical semiring (Bouajjani,
    Esparza & Maler 1997; Reps, Schwoon, Jha & Melski 2005).  It is Aho's
    (1968) emptiness test with a length budget.

    The pop summary of (A, u) is a polynomial P with least yield of
    (A, u w) = P(x) for every w, where x_B is the least yield of (B, w):
    the part of a derivation above the nodes that first see w alone costs c
    terminals and leaves m_B subderivations from (B, w).  Summaries are
    saturated once by Kleene iteration, with costs and multiplicities capped
    at maxlen + 1.  On u w, a COPY child B reads the summary of (B, u); a
    PUSH t child B reads that of (B, t) with every B' in it replaced by the
    summary of (B', u); a POP v child is the monomial x_B when v = u and dead
    otherwise; a rule guarded by u hands its children w itself.

    On the empty stack a guard is dead and a pop below the root is a demand
    that any value meets, as in Fixpoint.  Fixpoint also makes the demands
    of siblings agree, which the bound does not check: where they clash it
    is a lower bound.  The vector of least yields on the empty stack comes
    from Kleene iteration, and the vector of a stack u w is the summaries
    of u evaluated at the vector of w, memoised by stack and by (value,
    vector).

    A guarded rule may only copy its stack to its children, as every
    compiled grammar's does: indexed rules pop only by a guard, and
    stack-form rules have no guard.  Any other guarded rule is refused.

    The summaries depend on the rules and the cap alone, so one table, held
    per live-rule set by the Machine, serves every search over those rules:
    it is saturated at the largest cap asked so far, limit, and a search
    whose cap K is smaller reads min(x, K) (_Bound).  Capping at K <= C is
    a homomorphism of the arithmetic capped at C onto the one capped at K:
    min(min(a + b, C), K) = min(min(a, K) + min(b, K), K) for a, b >= 0,
    and likewise for min and for multiplying by a count.  Saturation and
    evaluation use only these operations, so the values read are exactly
    those of a table saturated at K, where demands clash too.  The vectors
    by (value, vector) are memoised on the table, at limit; those by stack
    on each search's reading, as the stacks are the search's own.
    """

    def __init__(self, rules: Sequence[Rule], limit: int):
        self.limit = cap = limit
        index: dict[str, int] = {}
        for r in rules:
            index.setdefault(r.mother, len(index))
            for c in r.children:
                if c.op is not None:
                    index.setdefault(c.symbol, len(index))
        self.index = index
        n = len(index)
        zero = (0,) * n
        one = [(0,) + zero]  # the polynomial 0, a unit of the product
        # only pushed values reach a stack
        values = list(dict.fromkeys(c.value for r in rules for c in r.children if c.op == PUSH))
        # the monomial x_b, one subderivation from (b, w)
        exits = [[zero[:b] + (0, 1) + zero[b + 1 :]] for b in range(n)]
        # per summary (mother, top value), the rules that apply: terminal
        # count and, per nonterminal child, the summary it reads or how it
        # reads one; and per summary, the summaries that read it
        uses: dict[tuple[int, str], list] = {}
        readers: dict[tuple[int, str], dict] = {(a, u): {} for a in range(n) for u in values}
        free = []  # the unguarded rules, which apply on the empty stack
        for r in rules:
            terminals = 0
            children = []
            for c in r.children:
                if c.op is not None:
                    children.append((c.op, c.value, index[c.symbol]))
                elif c.symbol:
                    terminals += 1
            const = (min(terminals, cap),) + zero
            a = index[r.mother]
            if r.guard is None:
                free.append((a, const[0], children))
                for u in values:
                    if any(op == POP and value != u for op, value, _ in children):
                        continue
                    key = (a, u)
                    parts = []
                    for op, value, b in children:
                        if op == COPY:
                            parts.append((b, u))
                            readers[b, u][key] = None
                        elif op == PUSH:
                            parts.append((b, value, u))
                            readers[b, value][key] = None
                            for b2 in range(n):
                                readers[b2, u][key] = None
                        else:
                            parts.append(exits[b])
                    uses.setdefault(key, []).append((const, parts))
            elif any(op != COPY for op, _, _ in children):
                raise GrammarError("a guarded rule may only copy its stack to its children")
            elif r.guard in values:
                # the children see the stack below the guard
                uses.setdefault((a, r.guard), []).append((const, [exits[b] for _, _, b in children]))
        summary: dict[tuple[int, str], list] = dict.fromkeys(readers, [])

        def substitute(p: list, u: str) -> list:
            """p with every x_b replaced by the summary of (b, u)."""
            out: list = []
            for mono in p:
                acc = [(mono[0],) + zero]
                for b in range(n):
                    k = mono[b + 1]
                    if k and acc:
                        # k subderivations from one state all do best with
                        # one and the same monomial
                        got = summary[b, u]
                        if k > 1:
                            got = [tuple([k * x if k * x < cap else cap for x in m]) for m in got]
                        acc = _times(acc, got, cap)
                out += acc
            return out

        todo = deque(uses)
        queued = set(uses)
        while todo:
            key = todo.popleft()
            queued.discard(key)
            old = summary[key]
            fresh = []
            for const, parts in uses[key]:
                acc = [const]
                for part in parts:
                    # a summary, a summary to substitute into, or a constant
                    if type(part) is tuple:
                        part = summary[part] if len(part) == 2 else substitute(summary[part[:2]], part[2])
                    if not part:
                        break
                    acc = part if acc == one else _times(acc, part, cap)
                else:
                    fresh += [m for m in acc if not any(all(map(operator.le, k, m)) for k in old)] if old else acc
            if fresh:
                summary[key] = _minimal(old + fresh)
                for reader in readers[key]:
                    if reader not in queued:
                        queued.add(reader)
                        todo.append(reader)
        self.summary = summary

        # least yields on the empty stack
        empty = [cap] * n
        changed = True
        while changed:
            changed = False
            for mother, terminals, children in free:
                total = terminals
                for op, value, b in children:
                    total += self._evaluate(summary[b, value], empty) if op == PUSH else empty[b]
                if total < empty[mother]:
                    empty[mother] = total
                    changed = True
        self.empty = tuple(empty)
        self._by_value: dict[tuple[str, tuple[int, ...]], tuple[int, ...]] = {}

    def _evaluate(self, poly: list, x) -> int:
        """The least value of poly at x, capped at limit."""
        best = self.limit
        for c, *m in poly:
            for k, v in zip(m, x):
                if k:
                    c += k * v
            if c < best:
                best = c
        return best

    def vector(self, stack: str, by_stack: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
        """The least yields of every nonterminal on stack, capped at limit;
        by_stack memoises them per stack and holds the empty stack's."""
        by_value = self._by_value
        vec = by_stack.get(stack)
        if vec is None:
            # down to the longest memoised suffix, by depth, so any stack ends
            depth = next((d for d in range(1, len(stack)) if stack[d:] in by_stack), len(stack))
            vec = by_stack[stack[depth:] if depth < len(stack) else ""]
            for d in reversed(range(depth)):
                key = (stack[d], vec)
                if key not in by_value:
                    by_value[key] = tuple(self._evaluate(self.summary[a, stack[d]], vec) for a in range(len(vec)))
                vec = by_stack[stack[d:]] = by_value[key]
        return vec


class _Bound:
    """A search's reading of a _YieldBound: the least yield from (sym,
    stack), capped at the search's maxlen + 1, which is at most the
    table's limit, with the vectors of the search's stacks memoised."""

    __slots__ = ("table", "cap", "by_stack")

    def __init__(self, table: _YieldBound, cap: int):
        self.table = table
        self.cap = cap
        self.by_stack = {"": table.empty}

    def bound(self, sym: str, stack: str) -> int:
        table, cap = self.table, self.cap
        vec = self.by_stack.get(stack)
        if vec is None:
            vec = table.vector(stack, self.by_stack)
        i = table.index.get(sym)
        if i is None:
            return cap
        v = vec[i]
        return v if v < cap else cap


# --------------------------------------------------------------------------
# Fixpoint over (yield, demand) entries


def _coded(rules: Sequence[Rule], code: dict[str, str]) -> list[Rule]:
    """The rules with every terminal and index value replaced by its
    character in code, which gains the names it lacks in rule order.  A
    child with neither, a COPY child or the empty leaf, is reused."""

    def char(name: str) -> str:
        return code.setdefault(name, chr(len(code)))

    def child(c: Child) -> Child:
        if c.op is None:
            return Child(char(c.symbol)) if c.symbol else c
        return c if c.op == COPY else Child(c.symbol, c.op, char(c.value))

    return [Rule(r.mother, r.guard and char(r.guard), tuple(map(child, r.children))) for r in rules]


def _subsumed(store: dict, key: tuple[str, str], cost_seq: tuple) -> bool:
    """Whether store holds key's yield with a proper prefix of key's demand
    at a (cost, seq) no larger than cost_seq, which subsumes key's entry
    (see the module docstring)."""
    w, d = key
    for j in range(len(d)):
        old = store.get((w, d[:j]))
        if old is not None and old[:2] <= cost_seq:
            return True
    return False


def _merge_demand(a: str, b: str) -> str | None:
    if len(a) <= len(b):
        return b if b.startswith(a) else None
    return a if a.startswith(b) else None


def _child_stack(c: Child, base: str) -> tuple[str, str | None] | None:
    """The stack of nonterminal child c of a rule whose children see base,
    and the value that c's pop below the root demands (else None); None if
    c pops a value that is not on top."""
    if c.op == COPY:
        return base, None
    if c.op == PUSH:
        return c.value + base, None
    if not base:
        return "", c.value
    return (base[1:], None) if base[0] == c.value else None


def _unread_pushes(rules: Sequence[Rule], by_mother: dict[str, list[int]]) -> set[Child]:
    """The PUSH children of the rules in by_mother whose value no rule that
    their symbol reaches guards or pops: no node of the child's subtree can
    pop the value, so none reads it or anything below it."""
    reads: dict[str, set[str]] = {}  # per symbol pushed to, the values its subtrees read
    cuts = set()
    for ris in by_mother.values():
        for ri in ris:
            for c in rules[ri].children:
                if c.op != PUSH:
                    continue
                got = reads.get(c.symbol)
                if got is None:
                    got = reads[c.symbol] = set()
                    seen, todo = {c.symbol}, [c.symbol]
                    while todo:
                        for rj in by_mother.get(todo.pop(), ()):
                            r = rules[rj]
                            if r.guard is not None:
                                got.add(r.guard)
                            for d in r.children:
                                if d.op == POP:
                                    got.add(d.value)
                                if d.op is not None and d.symbol not in seen:
                                    seen.add(d.symbol)
                                    todo.append(d.symbol)
                if c.value not in got:
                    cuts.add(c)
    return cuts


class _Tables:
    """What a search over one live-rule set reads and never changes: the
    live rule numbers per mother in rule order, the PUSH children in cuts
    (_unread_pushes) and the least-yield table (_YieldBound)."""

    __slots__ = ("rules", "by_mother", "cuts", "bound")

    def __init__(self, rules: Sequence[Rule], live: Sequence[int], cap: int):
        self.rules = [rules[ri] for ri in live]
        self.by_mother: dict[str, list[int]] = {}
        for ri in live:
            self.by_mother.setdefault(rules[ri].mother, []).append(ri)
        self.cuts = _unread_pushes(rules, self.by_mother)
        self.bound = _YieldBound(self.rules, cap)


class Machine(tuple):
    """Compiled rules, rule k being the source grammar's rule k, with the
    part of a search that depends on the rules alone, built once.

    Both grammar classes cache one (stack_rules), so a grammar codes its
    rules once and builds each live-rule set's tables once, however many
    searches it serves; Fixpoint builds one from a plain rule sequence.
    Kept here: the code, one character per terminal and index value in
    rule order, with the coded rules (_coding); by_mother, the rule numbers
    per mother in rule order; replay, for witnesses; and per live-rule set,
    its _Tables.  The live rules of a language run are all the rules, and
    those of a membership the rules with no leaf its word lacks, so they
    depend on the word's alphabet alone.  A set's _YieldBound is saturated
    at the largest maxlen + 1 asked so far and read at each search's own
    (_Bound).
    """

    def __init__(self, rules: Sequence[Rule]):
        self._tables: dict[tuple[int, ...], _Tables] = {}  # per live-rule set

    @cached_property
    def _coding(self) -> tuple[tuple[Rule, ...], dict[str, str], dict[str, str]]:
        code = {"": ""}
        coded = tuple(_coded(self, code))
        return coded, code, {c: s for s, c in code.items()}

    @cached_property
    def by_mother(self) -> dict[str, tuple[int, ...]]:
        """The rule numbers of each mother, in rule order."""
        out: dict[str, list[int]] = {}
        for ri, r in enumerate(self):
            out.setdefault(r.mother, []).append(ri)
        return {m: tuple(ris) for m, ris in out.items()}

    @cached_property
    def replay(self) -> tuple[tuple[bool, tuple], ...]:
        """Per rule, what Fixpoint.witness needs to replay it: whether it
        has a guard, and its children last first, each as (digit, slot,
        child): digit is the 1-tuple of its position."""
        return tuple(
            (r.guard is not None, tuple(((i + 1,), (ri, i), c) for i, c in reversed(tuple(enumerate(r.children)))))
            for ri, r in enumerate(self)
        )

    @cached_property
    def _needs(self) -> list[frozenset[str]]:
        """Per coded rule, the leaf codes a word must have for it to live."""
        return [frozenset(c.symbol for c in r.children if c.op is None and c.symbol) for r in self._coding[0]]

    def tables(self, text: str | None, cap: int) -> _Tables:
        """The tables of the rules live for text (all rules when None),
        their least-yield table saturated at cap or more."""
        if text is None:
            live = tuple(range(len(self)))
        else:
            alphabet = set(text)
            live = tuple(ri for ri, need in enumerate(self._needs) if need <= alphabet)
        tables = self._tables.get(live)
        if tables is None:
            tables = self._tables[live] = _Tables(self._coding[0], live, cap)
        elif tables.bound.limit < cap:
            tables.bound = _YieldBound(tables.rules, cap)
        return tables


class Fixpoint:
    """Per-state yields with minimal witnesses, computed to a least fixpoint.

    rules[k] is rule number k of the source grammar.  An entry maps the key
    (yield, demand) to (cost, seq, stamp): cost counts nodes, seq is the
    rule sequence in preorder, which determines the tree, and stamp is the
    change clock, stats.improved, when the entry was added or last improved.

    A job (state, rule number) is queued when the state is found, if the
    rule passes _fits, the one least-yield gate.  Relaxation is semi-naive:
    a job runs again whenever a child state's entries change, and each run
    joins only the combinations that hold a child entry stamped after the
    clock at the start of the job's last complete run.  Every other
    combination was built with the same values then, and the store keeps the
    least (cost, seq), so skipping it changes nothing but the step count.

    Entries are subsumed as the module docstring says (_subsumed): _process
    stores no subsumed combination and reads no subsumed child entry into
    its options, before the max_demand test, so such an entry neither trips
    that cap nor costs a step.

    A state is (nonterminal, readable stack): _fits and _process hand a
    PUSH child in cuts (_unread_pushes, over the live rules) the pushed value
    alone, since nothing below it can be read; the module docstring says why
    that is exact.  witness replays the rules on whole stacks.

    Given word, with maxlen = len(word), the run is a membership run: it
    keeps only entries whose yield is a factor of word.

    What depends on the rules alone is read from the Machine (rules, or one
    built from them) and shared: the code, the coded rules, by_mother, cuts
    and the least-yield table of the live rules, which oracle reads at
    maxlen + 1 (see _YieldBound for why a table saturated at a larger cap
    gives the same values).  A search keeps its own word text, entries,
    jobs, stack memo and stats, so the answers, witnesses and stats of a
    search do not depend on the searches before it.
    """

    def __init__(self, rules: Sequence[Rule], start: str, maxlen: int, budget: Budget, word: Word | None = None):
        if maxlen < 0:
            raise GrammarError("maxlen must be >= 0")
        self.machine = machine = rules if isinstance(rules, Machine) else Machine(rules)
        self.rules, self._code, self._name = machine._coding
        self.maxlen = maxlen
        self.budget = budget
        # a terminal no rule emits gets \0, which no rule's code is: a rule
        # with a leaf the word lacks yields no factor of it
        self.text = None if word is None else "".join([self._code.get(s, "\0") for s in word])
        tables = machine.tables(self.text, maxlen + 1)
        self.by_mother, self.cuts = tables.by_mother, tables.cuts
        self.oracle = _Bound(tables.bound, maxlen + 1)
        self.stats = SearchStats()
        self.entries: dict[State, dict[tuple[str, str], tuple]] = {}
        # jobs (state, rule number) to rerun when a state's entries change,
        # in the order they first read it
        self.deps: dict[State, dict[tuple[State, int], None]] = {}
        # per job, the change clock when its last complete run began
        self._ran: dict[tuple[State, int], int] = {}
        self.root: State = (start, "")
        self._pending: deque[tuple[State, int]] = deque()
        self._pending_set: set[tuple[State, int]] = set()

    def _discover(self, state: State) -> bool:
        if state in self.entries:
            return True
        sym, stack = state
        if len(stack) > self.budget.max_nodes:
            return False  # every push is a node on the path to it: not a budget event
        if len(stack) > self.budget.max_stack:
            self.stats.mark_exhausted("max_stack")
            return False
        if len(self.entries) >= self.budget.max_states:
            self.stats.mark_exhausted("max_states")
            return False
        self.entries[state] = {}
        self.stats.states += 1
        for ri in self.by_mother.get(sym, ()):
            if self._fits(ri, stack):
                self._enqueue((state, ri))
        return True

    def _fits(self, ri: int, stack: str) -> bool:
        """Whether rule ri applies on stack and its children's least yields
        sum to at most maxlen.  A rule that fails yields nothing within the
        bound, so it is not run and its children are not discovered.  A PUSH
        child in cuts is bounded on the pushed value alone, the stack that
        _process keys it by; its pop summary has no exit monomial, so that
        bound is the whole stack's."""
        rule = self.rules[ri]
        if rule.guard is not None:
            if not stack or stack[0] != rule.guard:
                return False
            stack = stack[1:]
        total = 0
        for c in rule.children:
            if c.op is None:
                total += bool(c.symbol)
            else:
                child = _child_stack(c, "" if c in self.cuts else stack)
                if child is None:
                    return False
                total += self.oracle.bound(c.symbol, child[0])
            if total > self.maxlen:
                return False
        return True

    def _enqueue(self, combo: tuple[State, int]) -> None:
        if combo not in self._pending_set:
            self._pending_set.add(combo)
            self._pending.append(combo)

    def run(self) -> Fixpoint:
        if self.oracle.bound(*self.root) <= self.maxlen:
            self._discover(self.root)
        while self._pending:
            if self.stats.steps > self.budget.max_steps:
                self.stats.mark_exhausted("max_steps")
                break
            combo = self._pending.popleft()
            self._pending_set.discard(combo)
            self._process(combo)
        return self

    def _process(self, combo: tuple[State, int]) -> None:
        state, ri = combo
        stack = state[1]
        rule = self.rules[ri]
        base = stack[1:] if rule.guard is not None else stack
        since = self._ran.get(combo, 0)
        clock = self.stats.improved
        # per child position, the options this job has joined before and the
        # fresh ones, stamped after its last complete run; a leaf is never fresh
        seen: list[list] = []
        fresh: list[list] = []
        counted = False  # a rule with only leaf children costs no step
        demands = False
        for c in rule.children:
            if c.op is None:
                seen.append([(c.symbol, "", 1, ())])
                fresh.append([])
                continue
            counted = True
            # _fits passed, so the child's pop matches
            cstack, prepend = _child_stack(c, "" if c in self.cuts else base)
            cstate = (c.symbol, cstack)
            if not self._discover(cstate):
                return
            self.deps.setdefault(cstate, {})[combo] = None
            opts_seen: list = []
            opts_fresh: list = []
            centries = self.entries[cstate]
            for key, (cost, seq, stamp) in centries.items():
                demand = key[1]
                if demand and _subsumed(centries, key, (cost, seq)):
                    continue  # it may have been joined, but need not be again
                if prepend is not None:
                    demand = prepend + demand
                    if len(demand) > self.budget.max_demand:
                        self.stats.mark_exhausted("max_demand")
                        continue
                demands = demands or bool(demand)
                (opts_fresh if stamp > since else opts_seen).append((key[0], demand, cost, seq))
            if not opts_seen and not opts_fresh:
                return
            seen.append(opts_seen)
            fresh.append(opts_fresh)
        # every combination holding a fresh entry, once: by its first fresh
        # position i, joined with seen options before i and all options after
        every = list(map(operator.add, seen, fresh))
        joins = [seen[:i] + [n] + every[i + 1 :] for i, n in enumerate(fresh) if n] if counted else [seen]
        store = self.entries[state]
        stats, max_steps = self.stats, self.budget.max_steps
        maxlen, max_nodes, text = self.maxlen, self.budget.max_nodes, self.text
        changed = False
        for opts in joins:
            for chosen in itertools.product(*opts):
                if counted:
                    stats.steps += 1
                    if stats.steps > max_steps:
                        stats.mark_exhausted("max_steps")
                        return
                word = ""
                cost = 1
                for c in chosen:
                    word += c[0]
                    cost += c[2]
                if len(word) > maxlen or cost > max_nodes or (text is not None and word not in text):
                    continue
                demand: str | None = ""
                if demands:
                    for c in chosen:
                        demand = _merge_demand(demand, c[1])
                        if demand is None:
                            break
                    if demand is None:
                        continue
                seq = (ri,)
                for c in chosen:
                    seq += c[3]
                key = (word, demand)
                old = store.get(key)
                if old is None or (cost, seq) < old[:2]:
                    if demand and _subsumed(store, key, (cost, seq)):
                        continue
                    stats.improved += 1
                    store[key] = (cost, seq, stats.improved)
                    changed = True
        self._ran[combo] = clock
        if changed:
            for parent_combo in self.deps.get(state, ()):
                self._enqueue(parent_combo)

    def encode(self, names: Sequence[str]) -> str | None:
        """Terminals or index values in this search's code, None if one has none."""
        return "".join([self._code[s] for s in names]) if self._code.keys() >= set(names) else None

    def language(self) -> LanguageResult:
        words = {tuple(map(self._name.__getitem__, w)) for (w, _) in self.entries.get(self.root, {})}
        ordered = tuple(sorted(words, key=lambda w: (len(w), w)))
        return LanguageResult(ordered, self.stats.exhausted, tuple(self.stats.reasons), self.stats)

    def witness(self, word: Word) -> list[tuple[TreeAddress, tuple[int, int] | None, tuple[str, Stack] | str]] | None:
        """The minimal witness of word at the root, in preorder, as triples
        (address, slot, item): slot is (rule number, child position) in the
        mother's rule, None at the root; item is a state, or a leaf symbol.
        The root entry's rule sequence is replayed from the root on the
        source rules, and each node's stack built from its mother's by its
        rule, whole: no PUSH child is cut here, so each node carries the
        stack of its tree."""
        store = self.entries.get(self.root, {})
        coded = self.encode(word)
        keys = [k for k in store if k[0] == coded]
        if not keys:
            return None
        seq = iter(store[min(keys, key=lambda k: store[k][:2] + (k,))][1])
        replay = self.machine.replay
        out: list = []
        todo: list = [(ROOT, None, self.root[0], ())]
        emit, pop, push = out.append, todo.pop, todo.append
        while todo:
            addr, slot, sym, stack = pop()
            if stack is None:
                emit((addr, slot, sym))
                continue
            emit((addr, slot, (sym, stack)))
            guard, children = replay[next(seq)]
            if guard:
                stack = stack[1:]
            for digit, cslot, c in children:
                if c.op is None:
                    cstack = None
                elif c.op == COPY:
                    cstack = stack
                elif c.op == PUSH:
                    cstack = (c.value,) + stack
                else:
                    cstack = stack[1:]
                push((_address(TreeAddress, addr + digit), cslot, c.symbol, cstack))
        return out

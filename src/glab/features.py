"""Feature structures and a least-model solver for path equations.

A feature structure is a finite node set with a partial attribute-transition
map delta, a partial atomic-value labeling alpha, and a total naming of the
nodes from a finite name domain of tree addresses.  It is well defined when
it is describable (every node reachable from a named node), atomic (valued
nodes have no outgoing edges) and acyclic.

Equations come in exactly two shapes: a path equation equating the nodes
reached from two named nodes, and a value equation fixing the atomic value at
the end of a non-empty path.  ``solve`` decides whether a set of equations
has any well-defined model by building the least one with congruence closure
and judging its classes once, for a value clash, a valued class with an
out-edge or a cycle; rejection is sound because the least model maps
homomorphically into every model.  ``well_defined_check`` judges a structure
the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import GrammarError, PreconditionError
from .trees import TreeAddress

Path = tuple[str, ...]
Node = int
Term = tuple[TreeAddress, Path]

# The attribute pair that encodes a stack as a linked list: its tail, its top value.
STACK_ATTRS = ("next", "idx")


def format_path(path: Path) -> str:
    return ".".join(path) if path else "eps"


def format_term(term: Term) -> str:
    name, path = term
    return f"{name}" if not path else f"{name}.{'.'.join(path)}"


@dataclass(frozen=True)
class FeatureStructure:
    """Nodes with attribute edges, atomic values, and named entry points.

    delta maps node -> attribute -> node, alpha maps node -> value symbol,
    names maps every tree address of the name domain to a node.  Shape is
    validated here; well-definedness is a separate check so that defective
    structures can be built and examined.
    """

    nodes: tuple[Node, ...]
    delta: Mapping[Node, Mapping[str, Node]]
    alpha: Mapping[Node, str]
    names: Mapping[TreeAddress, Node]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise GrammarError("duplicate node identities")
        for q, edges in self.delta.items():
            if q not in known:
                raise GrammarError(f"delta source {q!r} is not a node")
            for a, r in edges.items():
                if not a:
                    raise GrammarError("empty attribute name")
                if r not in known:
                    raise GrammarError(f"delta target {r!r} is not a node")
        for q in self.alpha:
            if q not in known:
                raise GrammarError(f"alpha source {q!r} is not a node")
        for x, q in self.names.items():
            if q not in known:
                raise GrammarError(f"name {x} maps to unknown node {q!r}")

    def out_edges(self, q: Node) -> Mapping[str, Node]:
        return self.delta.get(q, {})

    def node_of(self, name: TreeAddress) -> Node:
        if name not in self.names:
            raise PreconditionError(f"unknown name {name}")
        return self.names[name]


def delta_path(m: FeatureStructure, q: Node, path: Path) -> Node | None:
    """Follow `path` from q; None as soon as any step is undefined."""
    cur: Node | None = q
    for a in path:
        if cur is None:
            return None
        cur = m.out_edges(cur).get(a)
    return cur


def _first_cycle(starts: Iterable[Node], succ) -> tuple[Node, Path] | None:
    """The first cycle that a depth-first search meets, as the node it
    returns to and the attributes that lead from there back to it; None when
    no node reaches itself.

    succ[q] maps each attribute of node q to its target.  The search starts
    from each of starts in turn, skipping nodes an earlier start reached,
    and follows a node's attributes in the order of succ[q].  It keeps an
    explicit stack, so long chains need no recursion.
    """
    state: dict[Node, int] = {}  # 1 = on the current path, 2 = done
    for start in starts:
        if start in state:
            continue
        state[start] = 1
        # (node, attribute into it, its edges not yet followed) per step of the path
        path = [(start, None, iter(succ[start].items()))]
        while path:
            q, _, todo = path[-1]
            for a, r in todo:
                seen = state.get(r)
                if seen == 1:
                    k = next(k for k, step in enumerate(path) if step[0] == r)
                    return r, tuple(step[1] for step in path[k + 1 :]) + (a,)
                if seen is None:
                    state[r] = 1
                    path.append((r, a, iter(succ[r].items())))
                    break
            else:
                path.pop()
                state[q] = 2
    return None


@dataclass(frozen=True)
class WellDefinedReport:
    describable: bool
    atomic: bool
    acyclic: bool
    unreachable: Node | None = None
    atom_with_edge: Node | None = None
    cycle: tuple[Node, Path] | None = None  # following the path returns to the node

    @property
    def well_defined(self) -> bool:
        return self.describable and self.atomic and self.acyclic


def well_defined_check(m: FeatureStructure) -> WellDefinedReport:
    """Three independent verdicts with witnesses.

    Witness choices are deterministic: the least unreachable node in node
    order, the least valued node with an out-edge, and the first cycle found
    by depth-first search in node order with attribute-sorted edges.
    """
    reached: set[Node] = set()
    frontier = sorted(set(m.names.values()))
    while frontier:
        q = frontier.pop()
        if q in reached:
            continue
        reached.add(q)
        frontier.extend(m.out_edges(q).values())
    unreachable = next((q for q in m.nodes if q not in reached), None)

    atom_with_edge = next((q for q in m.nodes if q in m.alpha and m.out_edges(q)), None)

    cycle = _first_cycle(m.nodes, {q: dict(sorted(m.out_edges(q).items())) for q in m.nodes})

    return WellDefinedReport(
        describable=unreachable is None,
        atomic=atom_with_edge is None,
        acyclic=cycle is None,
        unreachable=unreachable,
        atom_with_edge=atom_with_edge,
        cycle=cycle,
    )


# --------------------------------------------------------------------------
# Equations


@dataclass(frozen=True)
class PathEq:
    """name1 . path1 and name2 . path2 reach the same node."""

    left_name: TreeAddress
    left_path: Path
    right_name: TreeAddress
    right_path: Path

    def __str__(self) -> str:
        return f"{format_term((self.left_name, self.left_path))} = {format_term((self.right_name, self.right_path))}"


@dataclass(frozen=True)
class ValEq:
    """name . path carries the atomic value; the path must be non-empty."""

    name: TreeAddress
    path: Path
    value: str

    def __post_init__(self) -> None:
        if not self.path:
            raise GrammarError("value equations require a non-empty path")

    def __str__(self) -> str:
        return f"{format_term((self.name, self.path))} = {self.value}"


Equation = Union[PathEq, ValEq]


def _eq_names(e: Equation) -> tuple[TreeAddress, ...]:
    if isinstance(e, PathEq):
        return (e.left_name, e.right_name)
    return (e.name,)


def _eq_key(e: Equation):
    if isinstance(e, PathEq):
        return (0, e.left_name, e.left_path, e.right_name, e.right_path, "")
    return (1, e.name, e.path, (), (), e.value)


def satisfies(m: FeatureStructure, e: Equation) -> bool:
    """Satisfaction requires definedness of every side."""
    if isinstance(e, PathEq):
        left = delta_path(m, m.node_of(e.left_name), e.left_path)
        right = delta_path(m, m.node_of(e.right_name), e.right_path)
        return left is not None and left == right
    target = delta_path(m, m.node_of(e.name), e.path)
    return target is not None and m.alpha.get(target) == e.value


def satisfies_set(m: FeatureStructure, es: Iterable[Equation]) -> bool:
    return all(satisfies(m, e) for e in es)


# --------------------------------------------------------------------------
# Solver


@dataclass(frozen=True)
class ValueClash:
    term: Term
    value_a: str
    value_b: str

    def __str__(self) -> str:
        return f"value clash at {format_term(self.term)}: {self.value_a} vs {self.value_b}"


@dataclass(frozen=True)
class AtomicityViolation:
    term: Term

    def __str__(self) -> str:
        return f"atomic node with outgoing attribute at {format_term(self.term)}"


@dataclass(frozen=True)
class CycleDetected:
    term: Term
    path: Path

    def __str__(self) -> str:
        return f"attribute cycle at {format_term(self.term)} via {format_path(self.path)}"


Diagnosis = Union[ValueClash, AtomicityViolation, CycleDetected]


@dataclass(frozen=True)
class Consistent:
    model: FeatureStructure
    consistent: bool = field(default=True, init=False)


@dataclass(frozen=True)
class Inconsistent:
    diagnosis: Diagnosis
    consistent: bool = field(default=False, init=False)


SolveResult = Union[Consistent, Inconsistent]


# A rooted structure is the part of a feature structure reachable from one
# node, numbered breadth-first from that node (node 0) over attribute-sorted
# edges; node k is (its sorted (attribute, node) edges, its value or None).
# Isomorphic parts are equal tuples.
Rooted = tuple[tuple[tuple[tuple[str, int], ...], Union[str, None]], ...]
EMPTY_ROOTED: Rooted = (((), None),)


class _Closure:
    """Union-find over terms with per-class successor maps and value demands.

    terms holds the term each class was created for; the inner nodes of a
    loaded rooted structure are named by no term and hold None.  index maps
    a name to the class its root term was created as.
    """

    def __init__(self) -> None:
        self.terms: list[Term | None] = []
        self.index: dict[TreeAddress, int] = {}
        self.parent: list[int] = []
        self.succ: list[dict[str, int]] = []
        self.values: list[set[str]] = []

    def _fresh(self, term: Term | None) -> int:
        j = len(self.parent)
        self.terms.append(term)
        self.parent.append(j)
        self.succ.append({})
        self.values.append(set())
        return j

    def intern(self, name: TreeAddress, path: Path) -> int:
        """The class of name.path, following the successor maps from the
        class of name and creating a class for every missing step."""
        cur = self.index.get(name)
        if cur is None:
            cur = self.index[name] = self._fresh((name, ()))
        for i, a in enumerate(path):
            row = self.succ[self.find(cur)]
            nxt = row.get(a)
            if nxt is None:
                nxt = row[a] = self._fresh((name, path[: i + 1]))
            cur = nxt
        return cur

    def load(self, name: TreeAddress, part: Rooted) -> int:
        """Add a rooted structure as fresh classes, its node 0 as the class
        of name; the name must be new to the closure."""
        base = len(self.parent)
        self.index[name] = base
        self.terms.append((name, ()))
        self.terms.extend([None] * (len(part) - 1))
        self.parent.extend(range(base, base + len(part)))
        for edges, value in part:
            self.succ.append({a: base + t for a, t in edges})
            self.values.append(set() if value is None else {value})
        return base

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        queue = [(i, j)]
        while queue:
            a, b = queue.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if rb < ra:
                ra, rb = rb, ra
            # least index becomes the representative, keeping first occurrence
            self.parent[rb] = ra
            merged = self.succ[rb]
            self.succ[rb] = {}
            for attr, k in merged.items():
                have = self.succ[ra].get(attr)
                if have is None:
                    self.succ[ra][attr] = k
                else:
                    queue.append((have, k))
            self.values[ra].update(self.values[rb])
            self.values[rb] = set()

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p == i]

    def defect(self) -> Diagnosis | None:
        """The first defect, or None: a root with two values, else a valued
        root with an out-edge, each the first in index order, else the first
        cycle from the roots in index order over sorted edges.  Every class is
        judged: a loaded part that no root reaches can still be made cyclic
        or clashing by equations on its own paths."""
        roots = self.roots()
        atom = None
        for r in roots:
            vs, row = self.values[r], self.succ[r]
            if len(vs) > 1:
                return ValueClash(self.terms[r], *sorted(vs)[:2])
            if vs and row and atom is None:
                atom = r
            for a, t in row.items():
                row[a] = self.find(t)  # the same class, named by its representative
        if atom is not None:
            return AtomicityViolation(self.terms[atom])
        if _first_cycle(roots, self.succ) is None:  # only naming a cycle needs sorted edges
            return None
        r, path = _first_cycle(roots, {r: dict(sorted(self.succ[r].items())) for r in roots})
        return CycleDetected(self.terms[r], path)

    def project(self, i: int) -> Rooted:
        """The rooted structure of the classes reachable from i's class."""
        first = self.find(i)
        number = {first: 0}
        order = [first]
        out = []
        for r in order:  # order grows as new classes are reached
            edges = []
            for a, t in sorted(self.succ[r].items()):
                t = self.find(t)
                k = number.get(t)
                if k is None:
                    k = number[t] = len(order)
                    order.append(t)
                edges.append((a, k))
            vs = self.values[r]
            out.append((tuple(edges), next(iter(vs)) if vs else None))
        return tuple(out)


def solve(equations: Iterable[Equation], name_domain: Iterable[TreeAddress]) -> SolveResult:
    """Decide consistency by building the least model.

    One node per congruence class of the path-prefix terms occurring in the
    equations plus the whole name domain; classes merge under path equations
    and functional closure of the transition map.  The classes are judged
    once (_Closure.defect), and the model is built only when they have no
    defect.  Node identities in the model number the classes by first
    occurrence.  Every class holds a prefix of a named term, so the model is
    describable by construction.
    """
    domain_set = set(name_domain)
    domain = sorted(domain_set)
    eqs = sorted(set(equations), key=_eq_key)
    for e in eqs:
        for n in _eq_names(e):
            if n not in domain_set:
                raise PreconditionError(f"equation uses name {n} outside the name domain")

    cl = _Closure()
    for n in domain:
        cl.intern(n, ())
    _close(cl, eqs)
    diagnosis = cl.defect()
    if diagnosis is not None:
        return Inconsistent(diagnosis)

    roots = cl.roots()
    number = {r: k for k, r in enumerate(roots)}
    delta = {
        number[r]: {a: number[cl.find(t)] for a, t in sorted(cl.succ[r].items())}
        for r in roots
        if cl.succ[r]
    }
    alpha = {number[r]: next(iter(cl.values[r])) for r in roots if cl.values[r]}
    # the domain's names were interned first, as classes 0, 1, ...
    names = {n: number[cl.find(k)] for k, n in enumerate(domain)}
    return Consistent(FeatureStructure(tuple(range(len(roots))), delta, alpha, names))


def solve_rooted(
    equations: Iterable[Equation], root: TreeAddress, parts: Iterable[tuple[TreeAddress, Rooted]]
) -> Rooted | None:
    """The rooted structure at root of the least model of the equations, in
    which every (name, part) of parts is loaded as the structure at name;
    None when that model is not well defined.

    This builds a constituent's structure from its daughters': the parts
    are the daughters' rooted structures and the equations the mother's
    instantiated schemata.  The equations reach a part only through paths
    from its name, merges spread only to classes those reach, and a clash,
    a valued node with an edge or a cycle never goes away when equations are
    added, so the result is None exactly when solve rejects the whole
    subtree's equations, and otherwise the part of solve's model reachable
    from root.
    """
    cl = _Closure()
    cl.intern(root, ())
    for name, part in parts:
        cl.load(name, part)
    _close(cl, equations)
    return cl.project(0) if cl.defect() is None else None


def _close(cl: _Closure, equations: Iterable[Equation]) -> None:
    """Intern every term of the equations in order, then merge the sides of
    the path equations and add the value demands."""
    pairs: list[tuple[int, int]] = []
    demands: list[tuple[int, str]] = []
    for e in equations:
        if isinstance(e, PathEq):
            pairs.append((cl.intern(e.left_name, e.left_path), cl.intern(e.right_name, e.right_path)))
        else:
            demands.append((cl.intern(e.name, e.path), e.value))
    for li, ri in pairs:
        cl.union(li, ri)
    for i, v in demands:
        cl.values[cl.find(i)].add(v)


# --------------------------------------------------------------------------
# Linked-list encoding of symbol strings


def suffix_chain_structure(
    strings: Iterable[tuple[str, ...]],
    names: Mapping[TreeAddress, tuple[str, ...]] | None = None,
    next_attr: str = STACK_ATTRS[0],
    idx_attr: str = STACK_ATTRS[1],
) -> FeatureStructure:
    """Encode symbol strings as linked lists sharing suffixes and symbols.

    Nodes are all suffixes of the given strings plus one node per symbol;
    a non-empty suffix points via `next_attr` to its tail and via `idx_attr`
    to the node of its head symbol, which carries the symbol as its value.
    The empty suffix has no edges and no value.  `names` assigns tree
    addresses to suffix nodes (each named string must be a suffix).
    """
    suffixes: set[tuple[str, ...]] = set()
    symbols: set[str] = set()
    for s in strings:
        for i in range(len(s) + 1):
            if s[i:] in suffixes:
                break  # the set is suffix-closed, so it holds every shorter suffix too
            suffixes.add(s[i:])
        symbols.update(s)
    order: list = sorted(suffixes, key=lambda s: (len(s), s)) + sorted(symbols)
    number = {key: k for k, key in enumerate(order)}
    nodes = tuple(range(len(order)))
    delta: dict[Node, dict[str, Node]] = {}
    alpha: dict[Node, str] = {}
    for s in suffixes:
        if s:
            delta[number[s]] = {idx_attr: number[s[0]], next_attr: number[s[1:]]}
    for c in symbols:
        alpha[number[c]] = c
    fs_names: dict[TreeAddress, Node] = {}
    for addr, s in (names or {}).items():
        if s not in suffixes:
            raise GrammarError(f"named string {s!r} is not a suffix of the given strings")
        fs_names[addr] = number[s]
    return FeatureStructure(nodes, delta, alpha, fs_names)

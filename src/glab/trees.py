"""Tree addresses and tree domains.

A tree address is a finite sequence of positive integers naming a node by the
child indices on the path from the root (the root is the empty sequence).  A
tree domain is a finite, prefix-closed, left-sibling-closed set of addresses;
it is the pure shape of an ordered tree, shared by derivation trees and
c-structures alike.

Addresses are totally ordered: a proper prefix precedes its extensions, and
otherwise the first differing child index decides.  An address is the tuple
of its digits, and Python's tuple ordering coincides with this order exactly,
which the sort helpers below rely on.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from operator import is_, not_
from typing import Iterator, Mapping, Sequence

from .errors import GrammarError


class TreeAddress(tuple):
    """A node address: the tuple of its positive child indices, () for the
    root.  It equals, hashes and sorts as that plain tuple, so ROOT is
    falsy and len(a) is a's depth."""

    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...] = ()) -> "TreeAddress":
        self = super().__new__(cls, digits)
        if self and min(self) < 1:
            raise GrammarError(f"tree address digits must be positive: {digits}")
        return self

    digits = property(tuple)
    depth = property(len)
    is_root = property(not_)

    def child(self, i: int) -> "TreeAddress":
        # a valid address's digits are positive already, so only i needs checking
        if i < 1:
            raise GrammarError(f"tree address digits must be positive: {self + (i,)}")
        return tuple.__new__(TreeAddress, self + (i,))

    @property
    def parent(self) -> "TreeAddress":
        if not self:
            raise GrammarError("the root address has no parent")
        return tuple.__new__(TreeAddress, self[:-1])

    def is_prefix_of(self, other: "TreeAddress") -> bool:
        return self == other[: len(self)]

    def __repr__(self) -> str:
        return f"TreeAddress(digits={tuple(self)!r})"

    def __str__(self) -> str:
        # digits above 9 need dots, and a lone one a leading dot: .12 is (12,), 12 is (1, 2)
        if not self:
            return "eps"
        if max(self) <= 9:
            return "".join(map(str, self))
        return ("." if len(self) == 1 else "") + ".".join(map(str, self))


ROOT = TreeAddress()


def address(*digits: int) -> TreeAddress:
    """Convenience constructor: address(1, 2) is the second child of the first child."""
    return TreeAddress(digits)


def _daughters(order) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[TreeAddress, str] | None]:
    """Read addresses as a walk in address order, a mother before her
    daughters and a daughter before her right sisters, checking closure.
    Returns, per address, the positions of its daughters in order, and
    None; or None and the first address whose mother is not on the path to
    the address before it or whose left sister is missing, as (address,
    the closure it breaks).  In address order, a mother that is there is on
    that path, so then the first such address breaks the closure named."""
    kids: list[list[int]] = []
    mothers: list[TreeAddress] = []  # the path to the last address, by depth
    sisters_at: list[list[int]] = []  # the daughters of each address on it
    for a in order:
        depth = len(a)
        if depth:
            if depth > len(mothers) or a[:-1] != mothers[depth - 1]:
                return None, (a, "prefix-closed")
            sisters = sisters_at[depth - 1]
            if a[-1] != len(sisters) + 1:
                return None, (a, "left-sibling-closed")
            sisters.append(len(kids))
            if depth < len(mothers):
                del mothers[depth:], sisters_at[depth:]
        elif mothers:
            return None, (a, "prefix-closed")  # the root again, or after another address
        own: list[int] = []
        kids.append(own)
        mothers.append(a)
        sisters_at.append(own)
    return tuple(map(tuple, kids)), None


@dataclass(frozen=True)
class TreeDomain:
    """A finite prefix-closed, left-sibling-closed set of tree addresses;
    construction fixes sorted_addresses and, per address there, the
    positions there of its daughters (daughter_positions).

    preorder, when given, lists the same addresses; when it is in address
    order, as a preorder walk of a tree yields them, it is read in one pass
    and nothing is sorted.  Otherwise the addresses are sorted and read
    again, so a closure violation is reported at its first address in
    address order either way."""

    addresses: frozenset[TreeAddress]
    preorder: InitVar[Sequence[TreeAddress] | None] = None

    def __post_init__(self, preorder: Sequence[TreeAddress] | None) -> None:
        if not self.addresses:
            raise GrammarError("a tree domain must contain the root")
        ordered = preorder
        kids = None
        if ordered is not None:
            kids, _ = _daughters(ordered)
        if kids is None or len(kids) != len(self.addresses):
            ordered = sorted(self.addresses)
            kids, bad = _daughters(ordered)
            if kids is None:
                raise GrammarError(f"tree domain is not {bad[1]} at {bad[0]}")
        object.__setattr__(self, "sorted_addresses", tuple(ordered))
        object.__setattr__(self, "daughter_positions", kids)

    @cached_property
    def _children(self) -> dict[TreeAddress, tuple[TreeAddress, ...]]:
        order = self.sorted_addresses
        return {a: tuple(map(order.__getitem__, kids)) for a, kids in zip(order, self.daughter_positions)}

    def out_degree(self, a: TreeAddress) -> int:
        return len(self.children(a))

    def children(self, a: TreeAddress) -> tuple[TreeAddress, ...]:
        try:
            return self._children[a]
        except KeyError:
            raise GrammarError(f"address {a} is not in the domain") from None

    @cached_property
    def leaves(self) -> tuple[TreeAddress, ...]:
        """All addresses of out-degree zero, in address order."""
        return tuple(a for a, kids in zip(self.sorted_addresses, self.daughter_positions) if not kids)

    @cached_property
    def internal(self) -> tuple[TreeAddress, ...]:
        return tuple(a for a, kids in zip(self.sorted_addresses, self.daughter_positions) if kids)

    def in_order(self, mapping: Mapping[TreeAddress, object], first: int = 0) -> list:
        """The values of a mapping over exactly sorted_addresses[first:],
        in that order.  A mapping whose keys are those very addresses in
        that order, as one built along the walk that built this domain, is
        read with no lookup."""
        order = self.sorted_addresses[first:] if first else self.sorted_addresses
        if len(mapping) == len(order) and all(map(is_, order, mapping)):
            return list(mapping.values())
        return [mapping[a] for a in order]

    @cached_property
    def height(self) -> int:
        return max(a.depth for a in self.addresses)

    def __len__(self) -> int:
        return len(self.addresses)

    def __repr__(self) -> str:
        # in address order, not in the frozenset's hash order
        return f"TreeDomain(addresses=frozenset({{{', '.join(map(repr, self.sorted_addresses))}}}))"

    def __contains__(self, a: object) -> bool:
        return a in self.addresses

    def __iter__(self) -> Iterator[TreeAddress]:
        return iter(self.sorted_addresses)


def domain_of(addresses) -> TreeDomain:
    """The domain of addresses; in address order, as a preorder walk lists
    them, they are read in one pass with no sort.  A dict's keys are taken
    with the hashes it holds."""
    order = addresses if isinstance(addresses, dict) else tuple(addresses)
    return TreeDomain(frozenset(order), order)

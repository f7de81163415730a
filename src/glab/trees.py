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

from dataclasses import dataclass
from functools import cached_property
from operator import not_
from typing import Iterator

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


@dataclass(frozen=True)
class TreeDomain:
    """A finite prefix-closed, left-sibling-closed set of tree addresses;
    construction fixes sorted_addresses and every address's daughters."""

    addresses: frozenset[TreeAddress]

    def __post_init__(self) -> None:
        if not self.addresses:
            raise GrammarError("a tree domain must contain the root")
        # one pass in address order (a mother before her daughters, a daughter
        # before her right sisters) checks closure and records the daughters
        ordered = tuple(sorted(self.addresses))
        daughters: dict[TreeAddress, list[TreeAddress]] = {}
        for a in ordered:
            if a:
                sisters = daughters.get(a[:-1])
                if sisters is None:
                    raise GrammarError(f"tree domain is not prefix-closed at {a}")
                if a[-1] != len(sisters) + 1:
                    raise GrammarError(f"tree domain is not left-sibling-closed at {a}")
                sisters.append(a)
            daughters[a] = []
        object.__setattr__(self, "sorted_addresses", ordered)
        object.__setattr__(self, "_children", {a: tuple(v) for a, v in daughters.items()})

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
        return tuple(a for a in self.sorted_addresses if not self._children[a])

    @cached_property
    def internal(self) -> tuple[TreeAddress, ...]:
        return tuple(a for a in self.sorted_addresses if self._children[a])

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
    return TreeDomain(frozenset(addresses))

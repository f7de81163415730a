"""Tree addresses and tree domains.

A tree address is a finite sequence of positive integers naming a node by the
child indices on the path from the root (the root is the empty sequence).  A
tree domain is a finite, prefix-closed, left-sibling-closed set of addresses;
it is the pure shape of an ordered tree, shared by derivation trees and
c-structures alike.

Addresses are totally ordered: a proper prefix precedes its extensions, and
otherwise the first differing child index decides.  Python's tuple ordering on
the digit sequences coincides with this order exactly, which the sort helpers
below rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterator

from .errors import GrammarError


@dataclass(frozen=True, order=True)
class TreeAddress:
    """A node address: a tuple of positive child indices, () for the root."""

    digits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.digits and min(self.digits) < 1:
            raise GrammarError(f"tree address digits must be positive: {self.digits}")

    def child(self, i: int) -> "TreeAddress":
        return TreeAddress(self.digits + (i,))

    @property
    def parent(self) -> "TreeAddress":
        if not self.digits:
            raise GrammarError("the root address has no parent")
        return TreeAddress(self.digits[:-1])

    @property
    def is_root(self) -> bool:
        return not self.digits

    @property
    def depth(self) -> int:
        return len(self.digits)

    def is_prefix_of(self, other: "TreeAddress") -> bool:
        return self.digits == other.digits[: len(self.digits)]

    def __str__(self) -> str:
        if not self.digits:
            return "eps"
        if all(d <= 9 for d in self.digits):
            return "".join(str(d) for d in self.digits)
        return ".".join(str(d) for d in self.digits)


ROOT = TreeAddress()


def address(*digits: int) -> TreeAddress:
    """Convenience constructor: address(1, 2) is the second child of the first child."""
    return TreeAddress(tuple(digits))


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
        ordered = tuple(sorted(self.addresses, key=attrgetter("digits")))
        daughters: dict[tuple[int, ...], list[TreeAddress]] = {}
        for a in ordered:
            d = a.digits
            if d:
                sisters = daughters.get(d[:-1])
                if sisters is None:
                    raise GrammarError(f"tree domain is not prefix-closed at {a}")
                if d[-1] != len(sisters) + 1:
                    raise GrammarError(f"tree domain is not left-sibling-closed at {a}")
                sisters.append(a)
            daughters[d] = []
        object.__setattr__(self, "sorted_addresses", ordered)
        object.__setattr__(self, "_children", {d: tuple(v) for d, v in daughters.items()})

    def out_degree(self, a: TreeAddress) -> int:
        return len(self.children(a))

    def children(self, a: TreeAddress) -> tuple[TreeAddress, ...]:
        try:
            return self._children[a.digits]
        except KeyError:
            raise GrammarError(f"address {a} is not in the domain") from None

    @cached_property
    def leaves(self) -> tuple[TreeAddress, ...]:
        """All addresses of out-degree zero, in address order."""
        return tuple(a for a in self.sorted_addresses if not self._children[a.digits])

    @cached_property
    def internal(self) -> tuple[TreeAddress, ...]:
        return tuple(a for a in self.sorted_addresses if self._children[a.digits])

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

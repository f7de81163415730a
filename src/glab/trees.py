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
    """A finite prefix-closed, left-sibling-closed set of tree addresses."""

    addresses: frozenset[TreeAddress]

    def __post_init__(self) -> None:
        if not self.addresses:
            raise GrammarError("a tree domain must contain the root")
        # closure is tested on the digit tuples, building no TreeAddress
        digits = {a.digits for a in self.addresses}
        for a in self.addresses:
            d = a.digits
            if d and d[:-1] not in digits:
                raise GrammarError(f"tree domain is not prefix-closed at {a}")
            if d and d[-1] > 1 and d[:-1] + (d[-1] - 1,) not in digits:
                raise GrammarError(f"tree domain is not left-sibling-closed at {a}")

    @cached_property
    def sorted_addresses(self) -> tuple[TreeAddress, ...]:
        return tuple(sorted(self.addresses))

    @cached_property
    def _child_counts(self) -> dict[TreeAddress, int]:
        counts: dict[TreeAddress, int] = {a: 0 for a in self.addresses}
        for a in self.addresses:
            if not a.is_root:
                p = a.parent
                counts[p] = max(counts[p], a.digits[-1])
        return counts

    def out_degree(self, a: TreeAddress) -> int:
        if a not in self.addresses:
            raise GrammarError(f"address {a} is not in the domain")
        return self._child_counts[a]

    def children(self, a: TreeAddress) -> tuple[TreeAddress, ...]:
        return tuple(a.child(i) for i in range(1, self.out_degree(a) + 1))

    @cached_property
    def leaves(self) -> tuple[TreeAddress, ...]:
        """All addresses of out-degree zero, in address order."""
        return tuple(a for a in self.sorted_addresses if self._child_counts[a] == 0)

    @cached_property
    def internal(self) -> tuple[TreeAddress, ...]:
        return tuple(a for a in self.sorted_addresses if self._child_counts[a] > 0)

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

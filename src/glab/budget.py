"""Search budgets and search statistics.

Every enumeration or membership question in this package is answered relative
to an explicit budget, so that a "no" can always be reported honestly as
"not within budget".  max_nodes bounds the size of any single tree considered;
max_trees bounds how many trees an enumeration stream may yield; the remaining
caps bound the internal state of the fixpoint engines.  Whenever a cap other
than the per-tree node bound cuts a search short, the search marks itself
exhausted and the callers surface that flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import GrammarError

if TYPE_CHECKING:
    from .features import FeatureStructure
    from .indexed import DerivationTree
    from .unification import CStructure


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 4096
    max_trees: int = 1_000_000
    max_steps: int = 2_000_000
    max_states: int = 50_000
    max_stack: int = 256
    max_demand: int = 64

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_trees", "max_steps", "max_states", "max_stack", "max_demand"):
            if getattr(self, name) < 1:
                raise GrammarError(f"budget field {name} must be positive")


DEFAULT_BUDGET = Budget()


@dataclass
class SearchStats:
    """Mutable counters threaded through a single search.

    In the stack engine (glab.stackengine) steps counts the child
    combinations of every join, and the engine is semi-naive: a rule rerun
    for a state joins only the combinations that hold a child entry added or
    improved since its last run, so max_steps bounds those.  Every
    combination is built, and one that is over length, over the node cap,
    no factor of the word or whose demands clash is then dropped, still
    counted as a step.  improved counts the entries the engine added or
    improved, so steps / improved is the number of combinations per useful
    one.

    In the reference c-structure engine (glab.unification) steps counts the
    production tries on (category, span, size) keys that the word's size
    chart admits; keys that hold no tree cost no step.  trees counts the
    c-structures streamed, and max_steps and max_trees bound the two.
    sug_membership reads the memo packed, so there trees counts the root
    classes read: the least c-structure of each consistent rooted feature
    structure, in order of size and rule sequence.
    """

    trees: int = 0
    steps: int = 0
    states: int = 0
    improved: int = 0
    exhausted: bool = False
    reasons: list[str] = field(default_factory=list)

    def mark_exhausted(self, reason: str) -> None:
        self.exhausted = True
        if reason not in self.reasons:
            self.reasons.append(reason)


@dataclass(frozen=True)
class LanguageResult:
    """The strings found, plus whether any internal cap cut the search short.

    Words are tuples of terminal symbols sorted by length then
    lexicographically.  When exhausted is False the result is complete for
    every string whose minimal witness fits the budget.  stats holds the
    work counters of the search, when the engine reports them; as in
    MembershipResult it takes no part in equality.
    """

    words: tuple[tuple[str, ...], ...]
    exhausted: bool
    reasons: tuple[str, ...] = ()
    stats: SearchStats | None = field(default=None, compare=False)


@dataclass(frozen=True)
class MembershipResult:
    """Every decider's answer: when member is True a minimal witness tree (a
    DerivationTree, or a CStructure with its least model), and whether a cap
    cut the search short, so that a "no" may mean "not within budget";
    reasons names the caps that did, as in LanguageResult.  stats holds the
    work counters of the search that answered; it takes no part in
    equality, so equal answers compare equal whatever they cost."""

    member: bool
    witness: DerivationTree | CStructure | None
    exhausted: bool
    model: FeatureStructure | None = None
    reasons: tuple[str, ...] = ()
    stats: SearchStats | None = field(default=None, compare=False)

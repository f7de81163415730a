"""Spans around the benchmark's calls into glab's public functions.

The benchmark reaches the library only through an `Api` object.  Untraced,
its attributes are glab's functions themselves.  Traced, each is wrapped so
that a call records a span: name, start, end, parent span and operation id.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

# Public function -> layer name.  The layer prefix is the module the
# function is defined in; the suffix is the metric stem.
LAYERS = {
    "indexed_language_upto": "indexed.language",
    "indexed_membership": "indexed.membership",
    "validate_derivation_tree": "indexed.validate",
    "mark_index_end": "indexed.mark_index_end",
    "ugi_language_upto": "unification.ugi_language",
    "ugi_membership": "unification.ugi_membership",
    "validate_cstructure": "unification.validate_cstructure",
    "canonical_fs": "unification.canonical_fs",
    "ugi_normalize": "unification.ugi_normalize",
    "sink_map_root": "unification.sink_map_root",
    "sug_language_upto": "unification.sug_language",
    "sug_membership": "unification.sug_membership",
    "enumerate_cstructures": "unification.enumerate_cstructures",
    "collect_equations": "unification.collect_equations",
    "u_transform": "transform.u_transform",
    "reverse_u": "transform.reverse_u",
    "cstructure_from_derivation": "transform.cstructure_from_derivation",
    "solve": "features.solve",
    "parse_indexed_grammar": "formats.parse",
    "parse_unification_grammar": "formats.parse",
}
# Spans the benchmark opens itself: in-process glab.cli.main, and the whole
# `python -m glab` child process.
OWN_LAYERS = ("cli.main", "cli.process")

# Cap names the engines put in LanguageResult.reasons; any other name is
# counted under "other".
CAPS = {
    "indexed": ("max_stack", "max_states", "max_steps"),
    "unification": ("max_stack", "max_states", "max_steps", "max_demand", "max_trees", "membership_budget"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    pass_no: int


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.pass_no = 0
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, self.pass_no))
        sid = len(self.spans) - 1
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per step, so the time the consumer spends between
            # steps is not charged to the generator
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self._begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._end(sid)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            sid = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(sid)

        return traced

    def self_times(self, passes: int) -> tuple[dict, Counter]:
        """Self seconds per pass and calls in the first pass, per span
        name.  Children nest strictly inside their parent, so the time they
        cover is the sum of their durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for i, s in enumerate(self.spans):
            seconds[s.name] += (s.end - s.start) - child[i]
            calls[s.name] += s.pass_no == 0
        return {name: t / passes for name, t in seconds.items()}, calls

    def first_pass(self) -> list[dict]:
        """The spans of the first pass, for writing out."""
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for i, s in enumerate(self.spans)
            if s.pass_no == 0
        ]


class Api:
    """The public glab functions the benchmark calls, traced or not.

    `counting` is set for the first pass of a traced run only, so counters
    describe one pass over the corpus.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        import glab.cli

        self.tracer = tracer
        self.counting = False
        for fname, layer in LAYERS.items():
            fn = getattr(glab, fname)
            setattr(self, fname, tracer.wrap(layer, fn) if tracer else fn)
        self.cli_main = tracer.wrap("cli.main", glab.cli.main) if tracer else glab.cli.main

    def count(self, key: str, n: int = 1) -> None:
        if self.counting:
            self.tracer.counts[key] += n

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

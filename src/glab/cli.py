"""Command-line interface.

Subcommands: check, member, enum, transform, equiv, derive.  Grammar files
are read by extension: .ixg for indexed grammars, .ugr for unification
grammars.  Exit codes: 0 success (member / agree), 1 usage or validation
error, 2 non-membership or disagreement within the given budget.  All output
is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .budget import DEFAULT_BUDGET, Budget, LanguageResult, MembershipResult
from .errors import GlabError
from .indexed import (
    DerivationTree,
    IndexedGrammar,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    marked_index_end_check,
    reduced_form_check,
)

# Each command imports the unification, transform, DOT and JSON code in the
# branch that runs it, so a command on an .ixg grammar loads none of them.
if TYPE_CHECKING:
    from .unification import CStructure, SimpleUnificationGrammar

Grammar = Union[IndexedGrammar, "SimpleUnificationGrammar"]


def _load(path: str) -> Grammar:
    p = Path(path)
    if p.suffix == ".ixg":
        from .formats import parse_indexed_grammar as parse
    elif p.suffix == ".ugr":
        from .formats import parse_unification_grammar as parse
    else:
        raise GlabError(f"cannot tell the grammar kind of {path!r}; use .ixg or .ugr")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise GlabError(f"{path!r} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    return parse(text)


def _budget(args: argparse.Namespace) -> Budget:
    """A Budget with each cap given on the command line; the rest default."""
    given = {f.name: getattr(args, f.name) for f in fields(Budget)}
    return Budget(**{name: value for name, value in given.items() if value is not None})


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj))


def _render(g: Grammar, word: tuple[str, ...]) -> str:
    return g.render_word(word) or "_"


def _language(g: Grammar, maxlen: int, budget: Budget) -> LanguageResult:
    if isinstance(g, IndexedGrammar):
        return indexed_language_upto(g, maxlen, budget)
    from .unification import sug_language_upto

    return sug_language_upto(g, maxlen, budget)


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


# --------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.path)
    if isinstance(g, IndexedGrammar):
        red = reduced_form_check(g)
        marked = marked_index_end_check(g)
        if args.json:
            _print_json({
                "format": "indexed",
                "rules": len(g.productions),
                "reduced_form": red.is_reduced,
                "reduced_offenders": list(red.offenders),
                "marked_index_end": marked,
            })
            return 0
        print("format: indexed")
        print(f"rules: {len(g.productions)}")
        print(f"reduced-form: {_yesno(red.is_reduced)}")
        for k in red.offenders:
            print(f"  offender rule {k}: {g.productions[k]}")
        print(f"marked-index-end: {_yesno(marked)}")
        return 0
    from .unification import ugi_check

    rep = ugi_check(g)
    if args.json:
        _print_json({
            "format": "unification",
            "rules": len(g.productions),
            "lexicon": len(g.lexicon),
            "ugi": rep.is_ugi,
            "reduced_form": rep.is_reduced,
            "sink_mapped_root": rep.has_sink_mapped_root,
            "offenders": [list(o) for o in rep.offenders],
        })
        return 0
    print("format: unification")
    print(f"rules: {len(g.productions)}")
    print(f"lexicon: {len(g.lexicon)}")
    print(f"ugi: {_yesno(rep.is_ugi)}")
    print(f"reduced-form: {_yesno(rep.is_reduced)}")
    print(f"sink-mapped-root: {_yesno(rep.has_sink_mapped_root)}")
    for kind, k, reason in rep.offenders:
        print(f"  offender {kind} {k}: {reason}")
    return 0


# --------------------------------------------------------------------------
# member


def _tree_text(t: DerivationTree) -> str:
    lines = []
    for a in t.domain.sorted_addresses:
        indent = "  " * a.depth
        if t.domain.out_degree(a) > 0 or a.is_root:
            stack = " ".join(t.stack_at(a))
            lines.append(f"{indent}{t.symbol_at(a)} [{stack}]")
        else:
            lines.append(f"{indent}{t.symbol_at(a) or '_'}")
    return "\n".join(lines)


def _cs_text(cs: CStructure) -> str:
    from .unification import format_schema

    lines = []
    for a in cs.domain.sorted_addresses:
        indent = "  " * a.depth
        cat = cs.categories[a] or "_"
        if a.is_root:
            lines.append(cat)
        else:
            lines.append(f"{indent}{cat} {format_schema(cs.eqsets[a])}")
    return "\n".join(lines)


def _membership(g: Grammar, word: tuple[str, ...], budget: Budget) -> MembershipResult:
    if isinstance(g, IndexedGrammar):
        return indexed_membership(g, word, budget)
    from .unification import sug_membership, ugi_check, ugi_membership

    if ugi_check(g).is_ugi:
        return ugi_membership(g, word, budget)
    return sug_membership(g, word, budget)


def _decide(args: argparse.Namespace) -> tuple[Grammar, MembershipResult]:
    """Decide membership of the word ('_' is empty); print a non-member's verdict."""
    g = _load(args.path)
    word = g.parse_word(args.word) if args.word != "_" else ()
    r = _membership(g, word, _budget(args))
    if not r.member:
        print("member: no")
        if r.exhausted:
            print("budget-exhausted: yes")
    return g, r


def cmd_member(args: argparse.Namespace) -> int:
    g, r = _decide(args)
    if not r.member:
        return 2
    print("member: yes")
    print(_tree_text(r.witness) if isinstance(g, IndexedGrammar) else _cs_text(r.witness))
    if r.model is not None:
        print(f"model: {len(r.model.nodes)} nodes")
    return 0


# --------------------------------------------------------------------------
# enum


def cmd_enum(args: argparse.Namespace) -> int:
    g = _load(args.path)
    result = _language(g, args.max_len, _budget(args))
    if args.json:
        _print_json({
            "maxlen": args.max_len,
            "words": [g.render_word(w) for w in result.words],
            "exhausted": result.exhausted,
        })
    else:
        for w in result.words:
            print(_render(g, w))
    if result.exhausted:
        print(f"warning: budget exhausted ({', '.join(result.reasons)})", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# transform

_OPS = ("mark-end", "u", "reverse-u", "ugi-normalize", "sink-map")


def cmd_transform(args: argparse.Namespace) -> int:
    g = _load(args.path)
    op = args.op
    if op in ("mark-end", "u") and not isinstance(g, IndexedGrammar):
        raise GlabError(f"--op {op} needs an indexed (.ixg) grammar")
    if op in ("reverse-u", "ugi-normalize", "sink-map") and isinstance(g, IndexedGrammar):
        raise GlabError(f"--op {op} needs a unification (.ugr) grammar")
    from .formats import print_indexed_grammar, print_unification_grammar, render_correspondence

    if op == "mark-end":
        out = print_indexed_grammar(mark_index_end(g))
    elif op == "u":
        from .transform import u_transform

        gu, corr = u_transform(g)
        out = print_unification_grammar(gu) + render_correspondence(corr)
    elif op == "reverse-u":
        from .transform import reverse_u

        gi, corr = reverse_u(g)
        out = print_indexed_grammar(gi) + render_correspondence(corr)
    elif op == "ugi-normalize":
        from .unification import ugi_normalize

        out = print_unification_grammar(ugi_normalize(g))
    else:
        from .unification import sink_map_root

        out = print_unification_grammar(sink_map_root(g))
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(out)
    return 0


# --------------------------------------------------------------------------
# equiv


def cmd_equiv(args: argparse.Namespace) -> int:
    left = _load(args.left)
    right = _load(args.right)
    budget = _budget(args)
    lres = _language(left, args.max_len, budget)
    rres = _language(right, args.max_len, budget)
    lwords, rwords = set(lres.words), set(rres.words)

    def ordered(ws) -> list:
        return sorted(ws, key=lambda w: (len(w), w))

    common, left_only, right_only = ordered(lwords & rwords), ordered(lwords - rwords), ordered(rwords - lwords)
    agree = not left_only and not right_only
    if args.json:
        _print_json({
            "maxlen": args.max_len,
            "agree": agree,
            "common": [left.render_word(w) for w in common],
            "left_only": [left.render_word(w) for w in left_only],
            "right_only": [right.render_word(w) for w in right_only],
            "left_exhausted": lres.exhausted,
            "right_exhausted": rres.exhausted,
        })
    else:
        print(f"max-len: {args.max_len}")
        print(f"agree: {_yesno(agree)}")
        print(f"left-exhausted: {_yesno(lres.exhausted)}")
        print(f"right-exhausted: {_yesno(rres.exhausted)}")
        for w in common:
            print(f"common {_render(left, w)}")
        for w in left_only:
            print(f"left-only {_render(left, w)}")
        for w in right_only:
            print(f"right-only {_render(right, w)}")
    return 0 if agree else 2


# --------------------------------------------------------------------------
# derive


def cmd_derive(args: argparse.Namespace) -> int:
    g, r = _decide(args)
    if not r.member:
        return 2
    from .dot import cstructure_with_model_dot, derivation_dot

    dot = derivation_dot(r.witness) if isinstance(g, IndexedGrammar) else cstructure_with_model_dot(r.witness, r.model)
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
        print("member: yes")
        print(f"wrote {args.dot}")
    else:
        sys.stdout.write(dot)
    return 0


# --------------------------------------------------------------------------
# wiring

# the Budget caps besides max_nodes, each with its own --max-* flag
_CAPS = (
    ("max_stack", "stack depth"),
    ("max_states", "queue states"),
    ("max_steps", "search steps"),
    ("max_demand", "demanded structure size"),
    ("max_trees", "enumerated trees"),
)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glab", description="Grammar laboratory for indexed and unification grammars.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", dest="max_nodes", type=int, default=None, metavar="NODES",
                       help=f"node budget for searches (default {DEFAULT_BUDGET.max_nodes})")
        for cap, what in _CAPS:
            p.add_argument("--" + cap.replace("_", "-"), type=int, default=None, metavar="N",
                           help=f"cap on {what} (default {getattr(DEFAULT_BUDGET, cap)})")

    p = sub.add_parser("check", help="validate a grammar file and classify it")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("member", help="decide membership; prints a witness ('_' is the empty string)")
    p.add_argument("path")
    p.add_argument("word")
    add_budget(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("enum", help="list all grammatical strings up to a length")
    p.add_argument("path")
    p.add_argument("--max-len", type=int, required=True)
    add_budget(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("transform", help="apply a grammar transformation")
    p.add_argument("path")
    p.add_argument("--op", choices=_OPS, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("equiv", help="compare two grammars' languages up to a length")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-len", type=int, required=True)
    add_budget(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("derive", help="emit DOT for a witness derivation")
    p.add_argument("path")
    p.add_argument("word")
    p.add_argument("--dot", default=None, metavar="FILE")
    add_budget(p)
    p.set_defaults(func=cmd_derive)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (GlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

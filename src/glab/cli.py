"""Command-line interface.

Subcommands: check, member, enum, transform, equiv, derive.  Grammar files
are read by extension: .ixg for indexed grammars, .ugr for unification
grammars.  Exit codes: 0 success (member / agree), 1 usage or validation
error, 2 non-membership or disagreement within the given budget.  All output
is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Union

from .budget import Budget, LanguageResult, MembershipResult
from .dot import cstructure_with_model_dot, derivation_dot
from .errors import GlabError
from .formats import (
    parse_indexed_grammar,
    parse_unification_grammar,
    print_indexed_grammar,
    print_unification_grammar,
    render_correspondence,
)
from .indexed import (
    DerivationTree,
    IndexedGrammar,
    indexed_language_upto,
    indexed_membership,
    mark_index_end,
    marked_index_end_check,
    reduced_form_check,
)
from .transform import reverse_u, u_transform
from .unification import (
    CStructure,
    SimpleUnificationGrammar,
    format_schema,
    sink_map_root,
    sug_language_upto,
    sug_membership,
    ugi_check,
    ugi_membership,
    ugi_normalize,
)

Grammar = Union[IndexedGrammar, SimpleUnificationGrammar]


def _load(path: str) -> Grammar:
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".ixg":
        return parse_indexed_grammar(text)
    if p.suffix == ".ugr":
        return parse_unification_grammar(text)
    raise GlabError(f"cannot tell the grammar kind of {path!r}; use .ixg or .ugr")


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_nodes=args.budget) if args.budget is not None else Budget()


def _render(g: Grammar, word: tuple[str, ...]) -> str:
    return g.render_word(word) or "_"


def _language(g: Grammar, maxlen: int, budget: Budget) -> LanguageResult:
    if isinstance(g, IndexedGrammar):
        return indexed_language_upto(g, maxlen, budget)
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
            print(json.dumps({
                "format": "indexed",
                "rules": len(g.productions),
                "reduced_form": red.is_reduced,
                "reduced_offenders": list(red.offenders),
                "marked_index_end": marked,
            }))
            return 0
        print("format: indexed")
        print(f"rules: {len(g.productions)}")
        print(f"reduced-form: {_yesno(red.is_reduced)}")
        for k in red.offenders:
            print(f"  offender rule {k}: {g.productions[k]}")
        print(f"marked-index-end: {_yesno(marked)}")
        return 0
    rep = ugi_check(g)
    if args.json:
        print(json.dumps({
            "format": "unification",
            "rules": len(g.productions),
            "lexicon": len(g.lexicon),
            "ugi": rep.is_ugi,
            "reduced_form": rep.is_reduced,
            "sink_mapped_root": rep.has_sink_mapped_root,
            "offenders": [list(o) for o in rep.offenders],
        }))
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
        print(json.dumps({
            "maxlen": args.max_len,
            "words": [g.render_word(w) for w in result.words],
            "exhausted": result.exhausted,
        }))
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
    if op in ("reverse-u", "ugi-normalize", "sink-map") and not isinstance(g, SimpleUnificationGrammar):
        raise GlabError(f"--op {op} needs a unification (.ugr) grammar")
    if op == "mark-end":
        out = print_indexed_grammar(mark_index_end(g))
    elif op == "u":
        gu, corr = u_transform(g)
        out = print_unification_grammar(gu) + render_correspondence(corr)
    elif op == "reverse-u":
        gi, corr = reverse_u(g)
        out = print_indexed_grammar(gi) + render_correspondence(corr)
    elif op == "ugi-normalize":
        out = print_unification_grammar(ugi_normalize(g))
    else:
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
        print(json.dumps({
            "maxlen": args.max_len,
            "agree": agree,
            "common": [left.render_word(w) for w in common],
            "left_only": [left.render_word(w) for w in left_only],
            "right_only": [right.render_word(w) for w in right_only],
            "left_exhausted": lres.exhausted,
            "right_exhausted": rres.exhausted,
        }))
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


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glab", description="Grammar laboratory for indexed and unification grammars.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=None, metavar="NODES", help="node budget for searches (default 4096)")

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

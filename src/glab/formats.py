"""Text formats for the two grammar kinds.

Indexed grammars (.ixg): header lines `nonterminals`, `terminals`, `indices`
(each a whitespace-separated symbol list, the last two optional when empty)
and `start X`, then one rule per line:

    S -> A ^f        push
    A ^f -> B        pop (any right-hand side)
    A -> B C         plain
    A -> _           plain with empty right-hand side

Unification grammars (.ugr): headers `nonterminals`, `terminals`,
`attributes`, `values`, `start`, then productions and lexicon entries:

    rule A -> B { dn next = up ; dn idx = f } C { up = dn }
    lex D -> d { }
    lex E -> _ { up num = sg }

Equation sides are `up`/`dn` followed by attribute names; a bare declared
value symbol on the right of `=` makes a value equation.  `#` starts a
comment anywhere on a line.  Printing is canonical: parse(print(g)) == g,
and print(parse(s)) == s whenever s is already canonical.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import ParseError
from .indexed import IndexedGrammar, Plain, Pop, Push, SymbolTable

# The unification and correspondence code is imported by the functions that
# need it, so reading or printing an .ixg grammar loads neither.
if TYPE_CHECKING:
    from .transform import RuleCorrespondence, RuleRef
    from .unification import SimpleUnificationGrammar

_RESERVED = {
    "->", "_", "{", "}", ";", "=", "rule", "lex", "up", "dn",
    "start", "nonterminals", "terminals", "indices", "attributes", "values",
}


def _check_decl(tok: str, lineno: int) -> str:
    if tok in _RESERVED or tok.startswith("^") or tok.startswith("#") or any(c in tok for c in "{};="):
        raise ParseError(f"{tok!r} cannot be used as a symbol", lineno)
    return tok


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _split_headers(text: str, header_names: tuple[str, ...]):
    headers: dict[str, tuple[str, ...] | None] = {h: None for h in header_names}
    start: tuple[int, str] | None = None
    rules: list[tuple[int, list[str]]] = []
    for lineno, line in _logical_lines(text):
        toks = line.split()
        head = toks[0]
        if head in headers:
            if headers[head] is not None:
                raise ParseError(f"duplicate {head} declaration", lineno)
            headers[head] = tuple(_check_decl(t, lineno) for t in toks[1:])
        elif head == "start":
            if start is not None:
                raise ParseError("duplicate start declaration", lineno)
            if len(toks) != 2:
                raise ParseError("start takes exactly one symbol", lineno)
            start = (lineno, _check_decl(toks[1], lineno))
        else:
            rules.append((lineno, toks))
    if headers[header_names[0]] is None:
        raise ParseError(f"missing {header_names[0]} declaration")
    if start is None:
        raise ParseError("missing start declaration")
    filled = {h: (v if v is not None else ()) for h, v in headers.items()}
    return filled, start[1], rules


# --------------------------------------------------------------------------
# Indexed grammars


def _parse_ixg_rule(lineno: int, toks: list[str]):
    if toks.count("->") != 1:
        raise ParseError("a rule needs exactly one '->'", lineno)
    i = toks.index("->")
    lhs, rhs = toks[:i], toks[i + 1 :]
    if not lhs:
        raise ParseError("missing left-hand side", lineno)
    if not rhs:
        raise ParseError("missing right-hand side (use '_' for the empty string)", lineno)

    def plain_rhs(tokens: list[str]) -> tuple[str, ...]:
        if tokens == ["_"]:
            return ()
        for t in tokens:
            if t.startswith("^"):
                raise ParseError("an index marker may only follow the single symbol of a push", lineno)
            if t == "_":
                raise ParseError("'_' stands for an empty right-hand side and must appear alone", lineno)
        return tuple(tokens)

    if len(lhs) == 2 and lhs[1].startswith("^"):
        index = lhs[1][1:]
        if not index:
            raise ParseError("empty index after '^'", lineno)
        return Pop(lhs[0], index, plain_rhs(rhs))
    if len(lhs) != 1:
        raise ParseError("left-hand side must be a symbol, optionally followed by ^index", lineno)
    if lhs[0].startswith("^") or lhs[0] == "_":
        raise ParseError("bad left-hand side symbol", lineno)
    if len(rhs) == 2 and rhs[1].startswith("^"):
        index = rhs[1][1:]
        if not index:
            raise ParseError("empty index after '^'", lineno)
        if rhs[0].startswith("^") or rhs[0] == "_":
            raise ParseError("bad push target", lineno)
        return Push(lhs[0], rhs[0], index)
    return Plain(lhs[0], plain_rhs(rhs))


def parse_indexed_grammar(text: str) -> IndexedGrammar:
    headers, start, rule_lines = _split_headers(text, ("nonterminals", "terminals", "indices"))
    productions = tuple(_parse_ixg_rule(lineno, toks) for lineno, toks in rule_lines)
    symbols = SymbolTable(headers["nonterminals"], headers["terminals"], headers["indices"])
    return IndexedGrammar(symbols, productions, start)


def print_indexed_grammar(g: IndexedGrammar) -> str:
    lines = ["nonterminals " + " ".join(g.symbols.nonterminals)]
    if g.symbols.terminals:
        lines.append("terminals " + " ".join(g.symbols.terminals))
    if g.symbols.indices:
        lines.append("indices " + " ".join(g.symbols.indices))
    lines.append(f"start {g.start}")
    lines.extend(str(p) for p in g.productions)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Unification grammars

# a brace or separator character, or a run of anything else
_TOKEN = re.compile(r"[{};=]|[^{};=]+")


def _parse_equation(toks: list[str], lineno: int, values: frozenset[str]):
    from .unification import DOWN, UP, ArrowPathEq, ArrowValEq

    sides = {"up": UP, "dn": DOWN}
    if toks.count("=") != 1:
        raise ParseError("an equation needs exactly one '='", lineno)
    i = toks.index("=")
    lhs, rhs = toks[:i], toks[i + 1 :]
    if not lhs or lhs[0] not in sides:
        raise ParseError("an equation must start with 'up' or 'dn'", lineno)
    side, path = sides[lhs[0]], tuple(lhs[1:])
    if not rhs:
        raise ParseError("missing right-hand side of equation", lineno)
    if rhs[0] in sides:
        return ArrowPathEq(side, path, sides[rhs[0]], tuple(rhs[1:]))
    if len(rhs) == 1 and rhs[0] in values:
        return ArrowValEq(side, path, rhs[0])
    raise ParseError(f"right-hand side must be an arrow path or a declared value, got {' '.join(rhs)!r}", lineno)


def _parse_schema(toks: list[str], pos: int, lineno: int, values: frozenset[str]):
    if pos >= len(toks) or toks[pos] != "{":
        raise ParseError("expected '{' to open an equation set", lineno)
    pos += 1
    eqs = []
    current: list[str] = []

    def flush() -> None:
        if current:
            eqs.append(_parse_equation(current, lineno, values))

    while True:
        if pos >= len(toks):
            raise ParseError("unterminated equation set", lineno)
        t = toks[pos]
        if t == "}":
            flush()
            return frozenset(eqs), pos + 1
        if t == ";":
            if not current:
                raise ParseError("empty equation before ';'", lineno)
            flush()
            current = []
        else:
            current.append(t)
        pos += 1


def parse_unification_grammar(text: str) -> SimpleUnificationGrammar:
    from .unification import Daughter, LexRule, SimpleUnificationGrammar, UProduction

    headers, start, rule_lines = _split_headers(
        text, ("nonterminals", "terminals", "attributes", "values")
    )
    values = frozenset(headers["values"])
    productions: list[UProduction] = []
    lexicon: list[LexRule] = []
    for lineno, raw_toks in rule_lines:
        toks = [t for tok in raw_toks for t in _TOKEN.findall(tok)]
        head = toks[0]
        if head not in ("rule", "lex"):
            raise ParseError(f"expected 'rule' or 'lex', got {head!r}", lineno)
        if len(toks) < 4 or toks[2] != "->":
            raise ParseError(f"expected '{head} MOTHER -> ...'", lineno)
        mother = toks[1]
        if head == "lex":
            word = "" if toks[3] == "_" else toks[3]
            schema, pos = _parse_schema(toks, 4, lineno, values)
            if pos != len(toks):
                raise ParseError("trailing tokens after lexicon entry", lineno)
            lexicon.append(LexRule(mother, word, schema))
            continue
        pos = 3
        daughters: list[Daughter] = []
        while pos < len(toks):
            cat = toks[pos]
            if cat in "{};=" or cat == "_":
                raise ParseError(f"expected a daughter category, got {cat!r}", lineno)
            schema, pos = _parse_schema(toks, pos + 1, lineno, values)
            daughters.append(Daughter(cat, schema))
        productions.append(UProduction(mother, tuple(daughters)))
    return SimpleUnificationGrammar(
        headers["nonterminals"],
        headers["terminals"],
        headers["attributes"],
        headers["values"],
        tuple(productions),
        tuple(lexicon),
        start,
    )


def print_unification_grammar(g: SimpleUnificationGrammar) -> str:
    lines = ["nonterminals " + " ".join(g.nonterminals)]
    if g.terminals:
        lines.append("terminals " + " ".join(g.terminals))
    if g.attributes:
        lines.append("attributes " + " ".join(g.attributes))
    if g.values:
        lines.append("values " + " ".join(g.values))
    lines.append(f"start {g.start}")
    lines.extend("rule " + str(p) for p in g.productions)
    lines.extend("lex " + str(r) for r in g.lexicon)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Rule correspondences ride along as comments

_MAP_PREFIX = "# rule-map:"


def render_correspondence(corr: RuleCorrespondence) -> str:
    lines = []
    for k, (kind, j) in enumerate(corr.images):
        lines.append(f"{_MAP_PREFIX} {k} -> {kind} {j}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_correspondence(text: str) -> RuleCorrespondence | None:
    from .transform import RuleCorrespondence

    refs: dict[int, RuleRef] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith(_MAP_PREFIX):
            continue
        toks = line[len(_MAP_PREFIX) :].split()
        if len(toks) != 4 or toks[1] != "->" or toks[2] not in ("production", "lexicon"):
            raise ParseError("malformed rule-map comment", lineno)
        try:
            k, j = int(toks[0]), int(toks[3])
        except ValueError:
            raise ParseError("malformed rule-map comment", lineno) from None
        if k in refs:
            raise ParseError(f"duplicate rule-map entry for rule {k}", lineno)
        refs[k] = (toks[2], j)
    if not refs:
        return None
    if set(refs) != set(range(len(refs))):
        raise ParseError("rule-map entries must cover 0..n-1")
    return RuleCorrespondence(tuple(refs[k] for k in range(len(refs))))

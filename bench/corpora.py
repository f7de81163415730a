"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a random.Random, so the same seed
gives the same corpus.  The generators are the benchmark's own: they do not
share code with the test suite, so editing the tests cannot move the
benchmark.  Each generator also states the answer the benchmark expects,
worked out from how the input was built and not by the engine under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from glab import (
    Budget,
    Daughter,
    IndexedGrammar,
    LexRule,
    Plain,
    Pop,
    Push,
    SimpleUnificationGrammar,
    SymbolTable,
    UProduction,
    ArrowPathEq,
    ArrowValEq,
    UP,
    DOWN,
    copy_schema,
    mark_index_end,
    pop_schema,
    push_schema,
)

# The budget acceptance checks 4 and 7 use for their fuzz corpora.
FUZZ_BUDGET = Budget(max_nodes=512, max_stack=16, max_states=4000, max_demand=8)
FUZZ_MAXLEN = 4

# --------------------------------------------------------------------------
# fuzz-equiv: four families of (grammar, rewrite) pairs

def _indexed_grammar(rng: random.Random) -> IndexedGrammar:
    """A reduced-form indexed grammar: <= 3 nonterminals, <= 2 indices,
    1 to 7 rules drawn from push, pop, binary, terminal and empty shapes."""
    nts = tuple(f"N{i}" for i in range(rng.randint(1, 3)))
    terms = ("a", "b")[: rng.randint(1, 2)]
    idxs = tuple(f"i{k}" for k in range(rng.randint(1, 2)))
    rules = []
    for _ in range(rng.randint(1, 7)):
        lhs = rng.choice(nts)
        shape = rng.randrange(5)
        if shape == 0:
            rules.append(Push(lhs, rng.choice(nts), rng.choice(idxs)))
        elif shape == 1:
            rules.append(Pop(lhs, rng.choice(idxs), (rng.choice(nts),)))
        elif shape == 2:
            rules.append(Plain(lhs, (rng.choice(nts), rng.choice(nts))))
        elif shape == 3:
            rules.append(Plain(lhs, (rng.choice(terms),)))
        else:
            rules.append(Plain(lhs, ()))
    return IndexedGrammar(SymbolTable(nts, terms, idxs), tuple(rules), nts[0])


def _stack_lexicon(rng: random.Random, nts, terms) -> tuple[LexRule, ...]:
    lex = [LexRule(nt, rng.choice(terms + ("",)), frozenset()) for nt in nts if rng.random() < 0.8]
    return tuple(lex) or (LexRule(nts[0], terms[0], frozenset()),)


def _stack_grammar(rng: random.Random, reduced: bool) -> SimpleUnificationGrammar:
    """A stack-form unification grammar over (next, idx).  Reduced shape has
    unary push/pop and binary copy-copy productions only; the general shape
    has 1 to 3 daughters, each with any of the three schemata."""
    nts = tuple(f"U{i}" for i in range(rng.randint(1, 3)))
    terms = ("a", "b")[: rng.randint(1, 2)]
    vals = tuple(f"v{k}" for k in range(rng.randint(1, 2)))

    def schema(kind: int):
        if kind == 0:
            return push_schema("next", "idx", rng.choice(vals))
        if kind == 1:
            return pop_schema("next", "idx", rng.choice(vals))
        return copy_schema()

    prods = []
    for _ in range(rng.randint(1, 5)):
        mother = rng.choice(nts)
        if reduced:
            kind = rng.randrange(3)
            arity = 1 if kind < 2 else 2
            daughters = tuple(Daughter(rng.choice(nts), schema(kind)) for _ in range(arity))
        else:
            daughters = tuple(
                Daughter(rng.choice(nts), schema(rng.randrange(3))) for _ in range(rng.randint(1, 3))
            )
        prods.append(UProduction(mother, daughters))
    return SimpleUnificationGrammar(
        nts, terms, ("next", "idx"), vals, tuple(prods), _stack_lexicon(rng, nts, terms), nts[0]
    )


@dataclass(frozen=True)
class FuzzCase:
    """One grammar of a rewrite family; the operation rewrites it and
    compares the bounded languages of the two sides."""

    family: str
    grammar: object


def fuzz_corpus(rng: random.Random, per_family: int) -> list[FuzzCase]:
    """per_family cases of each family, interleaved.  The u and mark
    families start from end-marked grammars, as u_transform requires."""
    cases = []
    for _ in range(per_family):
        cases.append(FuzzCase("u", mark_index_end(_indexed_grammar(rng))))
        cases.append(FuzzCase("mark", mark_index_end(_indexed_grammar(rng))))
        cases.append(FuzzCase("normalize", _stack_grammar(rng, reduced=False)))
        cases.append(FuzzCase("sink", _stack_grammar(rng, reduced=True)))
    return cases


# --------------------------------------------------------------------------
# deep-stack: closed-form languages of the example fixtures


@dataclass(frozen=True)
class DeepCase:
    """Membership of `word` in a fixture grammar; `member` follows from the
    fixture's closed-form language, a^n b^n c^n or d^(2^k)."""

    fixture: str
    word: str
    member: bool


def _is_power_of_two(m: int) -> bool:
    return m >= 2 and m & (m - 1) == 0


def deep_corpus(rng: random.Random, rungs: int, step: int, d_lengths: int, d_max: int) -> list[DeepCase]:
    """a^n b^n c^n with the near-misses a^n b^n c^(n+1) and a^(n+1) b^n c^n
    on example 1 for n = step, 2 step, ..., rungs step.  Then `d_lengths`
    word lengths m in 2..d_max, every power of two and the rest drawn from
    the seed, on both example 2 grammars.

    The ladder is the same for every seed: the cost of one word grows
    steeply with n, so a seeded n would move the latency percentiles
    between seeds more than any timing noise."""
    cases = []
    for n in range(step, rungs * step + 1, step):
        cases.append(DeepCase("example1.ixg", "a" * n + "b" * n + "c" * n, True))
        cases.append(DeepCase("example1.ixg", "a" * n + "b" * n + "c" * (n + 1), False))
        cases.append(DeepCase("example1.ixg", "a" * (n + 1) + "b" * n + "c" * n, False))
    powers = [m for m in range(2, d_max + 1) if _is_power_of_two(m)]
    others = [m for m in range(2, d_max + 1) if not _is_power_of_two(m)]
    lengths = sorted(powers + rng.sample(others, d_lengths - len(powers)))
    for m in lengths:
        for fixture in ("example2.ixg", "example2_u.ugr"):
            cases.append(DeepCase(fixture, "d" * m, _is_power_of_two(m)))
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# reference-sweep: agreement grammars outside stack form


@dataclass(frozen=True)
class AgreementGrammar:
    """A unification grammar whose language is known by construction.

    Every word carries a set of `num` values (one lexicon entry per value;
    an entry with no equation matches every value).  A string is in the
    language when it fits one of the category `templates` and the value
    sets of its words share a value.
    """

    grammar: SimpleUnificationGrammar
    templates: tuple[tuple[str, ...], ...]  # category sequences
    words_of: dict  # category -> tuple of terminals
    values_of: dict  # terminal -> frozenset of values (all values when free)

    def generates(self, word: tuple[str, ...]) -> bool:
        for cats in self.templates:
            if len(cats) != len(word):
                continue
            if all(w in self.words_of[c] for c, w in zip(cats, word)):
                common = frozenset(self.grammar.values)
                for w in word:
                    common &= self.values_of[w]
                if common:
                    return True
        return False

    def language(self, maxlen: int) -> set[tuple[str, ...]]:
        return {
            w
            for cats in self.templates
            if len(cats) <= maxlen
            for w in product(*(self.words_of[c] for c in cats))
            if self.generates(w)
        }


def _share() -> frozenset:
    return frozenset({ArrowPathEq(UP, ("agr",), DOWN, ("agr",))})


def _lexicon(rng: random.Random, cat: str, terms, vals, values_of) -> list[LexRule]:
    """Give the terminals, in turn, one value, two values and no equation
    at all, and emit one lexicon entry per value.  The profile is fixed so
    that every seed makes grammars equally ambiguous; the seed picks the
    values."""
    lex = []
    for k, t in enumerate(terms):
        kind = k % 3
        if kind == 2:
            values_of[t] = frozenset(vals)
            lex.append(LexRule(cat, t, frozenset()))
            continue
        chosen = sorted(rng.sample(vals, kind + 1))
        values_of[t] = frozenset(chosen)
        for v in chosen:
            lex.append(LexRule(cat, t, frozenset({ArrowValEq(UP, ("agr", "num"), v)})))
    return lex


def _phrase_grammar(rng: random.Random, tag: int, with_adj: bool, nvals: int) -> AgreementGrammar:
    """S -> D N or S -> D A N, every daughter sharing `agr` with S."""
    vals = ("sg", "pl", "du")[:nvals]
    cats = ("D", "A", "N") if with_adj else ("D", "N")
    words_of: dict = {}
    values_of: dict = {}
    lex = []
    for cat in cats:
        terms = tuple(f"{cat.lower()}{tag}x{k}" for k in range(3))
        words_of[cat] = terms
        lex += _lexicon(rng, cat, terms, vals, values_of)
    prods = (UProduction("S", tuple(Daughter(c, _share()) for c in cats)),)
    terminals = tuple(t for c in cats for t in words_of[c])
    g = SimpleUnificationGrammar(("S",) + cats, terminals, ("agr", "num"), vals, prods, tuple(lex), "S")
    return AgreementGrammar(g, (cats,), words_of, values_of)


def _ambiguous_grammar(rng: random.Random, tag: int, nterms: int, nvals: int, maxlen: int) -> AgreementGrammar:
    """S -> X, X -> X X, every daughter sharing `agr`: each string of
    length n has Catalan(n-1) binary bracketings, and a non-member makes
    the solver refute every one of them.

    The first word has one value, the second every other value, and a
    third, if any, has no equation; so a string is a member exactly when it
    does not hold both of the first two words.  The seed picks the value of
    the first word."""
    vals = ("sg", "pl", "du")[:nvals]
    terms = tuple(f"x{tag}w{k}" for k in range(nterms))
    first = rng.choice(vals)
    value_sets = (frozenset({first}), frozenset(vals) - {first}, frozenset(vals))
    values_of = dict(zip(terms, value_sets))
    lex = [LexRule("X", terms[0], frozenset({ArrowValEq(UP, ("agr", "num"), first)}))]
    lex += [LexRule("X", terms[1], frozenset({ArrowValEq(UP, ("agr", "num"), v)})) for v in sorted(value_sets[1])]
    lex += [LexRule("X", t, frozenset()) for t in terms[2:]]
    prods = (
        UProduction("S", (Daughter("X", _share()),)),
        UProduction("X", (Daughter("X", _share()), Daughter("X", _share()))),
    )
    g = SimpleUnificationGrammar(("S", "X"), terms, ("agr", "num"), vals, prods, tuple(lex), "S")
    templates = tuple(("X",) * n for n in range(1, maxlen + 1))
    return AgreementGrammar(g, templates, {"X": terms}, values_of)


def agreement_grammars(rng: random.Random, count: int, maxlen: int) -> list[AgreementGrammar]:
    """Cycle through four shapes, so every corpus has the same mix: phrase
    grammars with and without an adjective, and ambiguous grammars over
    two and three words.  The seed decides the values in the lexicon."""
    out = []
    for k in range(count):
        shape = k % 4
        if shape == 0:
            out.append(_phrase_grammar(rng, k, with_adj=False, nvals=2))
        elif shape == 1:
            out.append(_ambiguous_grammar(rng, k, nterms=2, nvals=2, maxlen=maxlen))
        elif shape == 2:
            out.append(_phrase_grammar(rng, k, with_adj=True, nvals=3))
        else:
            out.append(_ambiguous_grammar(rng, k, nterms=3, nvals=3, maxlen=maxlen))
    return out


def fixture_agreement() -> tuple[tuple[tuple[str, ...], ...], dict, dict]:
    """The known language of fixtures/agreement.ugr, in the same terms."""
    words_of = {"D": ("this", "these"), "N": ("dog", "dogs")}
    values_of = {
        "this": frozenset({"sg"}),
        "these": frozenset({"pl"}),
        "dog": frozenset({"sg"}),
        "dogs": frozenset({"pl"}),
    }
    return (("D", "N"),), words_of, values_of


# --------------------------------------------------------------------------
# cli-fixtures: every subcommand over the four fixtures

# (argv after `python -m glab`, expected exit code, expected stdout lines or
# None when only the exit code and a non-empty stdout are checked).  Paths
# are relative to the fixture directory; `out.*` files land in the
# command's working directory.
CLI_COMMANDS: tuple[tuple[tuple[str, ...], int, tuple[str, ...] | None], ...] = (
    (("check", "example1.ixg"), 0, ("reduced-form: no", "marked-index-end: no")),
    (("check", "example2.ixg"), 0, ("reduced-form: yes", "marked-index-end: yes")),
    (("check", "example2_u.ugr"), 0, ("ugi: yes", "reduced-form: yes", "sink-mapped-root: yes")),
    (("check", "agreement.ugr"), 0, ("ugi: no",)),
    (("check", "example1.ixg", "--json"), 0, None),
    (("check", "example2.ixg", "--json"), 0, None),
    (("check", "example2_u.ugr", "--json"), 0, None),
    (("check", "agreement.ugr", "--json"), 0, None),
    (("member", "example1.ixg", "aabbcc"), 0, ("member: yes",)),
    (("member", "example2.ixg", "dddd"), 0, ("member: yes",)),
    (("member", "example2_u.ugr", "dddd"), 0, ("member: yes",)),
    (("member", "agreement.ugr", "this dog"), 0, ("member: yes",)),
    (("member", "agreement.ugr", "this dogs"), 2, ("member: no",)),
    (("enum", "example1.ixg", "--max-len", "6"), 0, ("abc", "aabbcc")),
    (("enum", "example2.ixg", "--max-len", "4", "--json"), 0, ('{"maxlen": 4, "words": ["dd", "dddd"], "exhausted": false}',)),
    (("enum", "example2_u.ugr", "--max-len", "4"), 0, ("dd", "dddd")),
    (("enum", "agreement.ugr", "--max-len", "2", "--json"), 0, ('{"maxlen": 2, "words": ["these dogs", "this dog"], "exhausted": false}',)),
    (("transform", "example1.ixg", "--op", "mark-end"), 0, None),
    (("transform", "example2.ixg", "--op", "u"), 0, None),
    (("transform", "example2_u.ugr", "--op", "reverse-u"), 0, None),
    (("transform", "example2_u.ugr", "--op", "ugi-normalize"), 0, None),
    (("transform", "example2_u.ugr", "--op", "sink-map"), 0, None),
    (("transform", "agreement.ugr", "--op", "ugi-normalize"), 1, ()),
    (("equiv", "example2.ixg", "example2_u.ugr", "--max-len", "4", "--json"), 0, ('{"maxlen": 4, "agree": true, "common": ["dd", "dddd"], "left_only": [], "right_only": [], "left_exhausted": false, "right_exhausted": false}',)),
    (("equiv", "example1.ixg", "example2.ixg", "--max-len", "3"), 2, ("agree: no", "left-only abc", "right-only dd")),
    (("derive", "example1.ixg", "abc"), 0, None),
    (("derive", "example2_u.ugr", "dddd"), 0, None),
    (("derive", "agreement.ugr", "this dog"), 0, None),
    (("transform", "example2.ixg", "--op", "u", "-o", "out.ugr"), 0, ("wrote out.ugr",)),
    (("derive", "example2.ixg", "dd", "--dot", "out.dot"), 0, ("member: yes", "wrote out.dot")),
)

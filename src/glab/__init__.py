"""A laboratory for indexed grammars and simple unification grammars.

Build grammars of either kind, validate derivation trees and constituent
structures, solve path equations over feature structures, transform grammars
between the two formalisms, and compare the bounded languages the results
generate.

Names resolve on first use (PEP 562): ``import glab`` loads no submodule,
and ``glab.solve`` imports ``glab.features`` when it is first read, so a
program pays only for the modules whose names it touches.
"""

import importlib

# home module -> the public names it defines
_EXPORTS = {
    "budget": ("Budget", "DEFAULT_BUDGET", "LanguageResult", "MembershipResult", "SearchStats"),
    "errors": ("GlabError", "GrammarError", "ParseError", "PreconditionError"),
    "features": (
        "AtomicityViolation",
        "Consistent",
        "CycleDetected",
        "FeatureStructure",
        "Inconsistent",
        "PathEq",
        "SolveResult",
        "ValEq",
        "ValueClash",
        "WellDefinedReport",
        "delta_path",
        "satisfies",
        "satisfies_set",
        "solve",
        "suffix_chain_structure",
        "well_defined_check",
    ),
    "formats": (
        "parse_correspondence",
        "parse_indexed_grammar",
        "parse_unification_grammar",
        "print_indexed_grammar",
        "print_unification_grammar",
        "render_correspondence",
    ),
    "indexed": (
        "DerivationTree",
        "IndexedGrammar",
        "LeafLabel",
        "NodeLabel",
        "Plain",
        "Pop",
        "Push",
        "ReducedFormReport",
        "SymbolTable",
        "ValidationReport",
        "enumerate_derivations",
        "fresh_symbol",
        "indexed_language_upto",
        "indexed_membership",
        "mark_index_end",
        "marked_index_end_check",
        "reduced_form_check",
        "tree_of",
        "validate_derivation_tree",
    ),
    "transform": (
        "RuleCorrespondence",
        "cstructure_from_derivation",
        "derivation_from_cstructure",
        "end_marker",
        "idx_lst",
        "idx_lst_dollar",
        "reverse_u",
        "u_transform",
    ),
    "trees": ("ROOT", "TreeAddress", "TreeDomain", "address", "domain_of"),
    "unification": (
        "Arrow",
        "ArrowPathEq",
        "ArrowValEq",
        "CStructure",
        "DOWN",
        "Daughter",
        "LexRule",
        "SimpleUnificationGrammar",
        "UP",
        "UProduction",
        "UgiReport",
        "canonical_fs",
        "classify_schema",
        "collect_equations",
        "copy_schema",
        "enumerate_cstructures",
        "format_schema",
        "generates_check",
        "instantiate",
        "pop_schema",
        "push_schema",
        "sink_map_root",
        "sorted_schema",
        "sug_language_upto",
        "sug_membership",
        "ugi_check",
        "ugi_language_upto",
        "ugi_membership",
        "ugi_normalize",
        "used_values",
        "validate_cstructure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""What the package and each command load.  `import glab` resolves its
exports on first use, and a command imports only the modules it runs; both
are read from sys.modules in a fresh interpreter."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import glab

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the names `from glab import *` binds
EXPORTS = """
Arrow ArrowPathEq ArrowValEq AtomicityViolation Budget CStructure Consistent CycleDetected
DEFAULT_BUDGET DOWN Daughter DerivationTree FeatureStructure GlabError GrammarError Inconsistent
IndexedGrammar LanguageResult LeafLabel LexRule MembershipResult NodeLabel ParseError PathEq Plain
Pop PreconditionError Push ROOT ReducedFormReport RuleCorrespondence SearchStats
SimpleUnificationGrammar SolveResult SymbolTable TreeAddress TreeDomain UP UProduction UgiReport
ValEq ValidationReport ValueClash WellDefinedReport address canonical_fs classify_schema
collect_equations copy_schema cstructure_from_derivation delta_path derivation_from_cstructure
domain_of end_marker enumerate_cstructures enumerate_derivations format_schema fresh_symbol
generates_check idx_lst idx_lst_dollar indexed_language_upto indexed_membership instantiate
mark_index_end marked_index_end_check parse_correspondence parse_indexed_grammar
parse_unification_grammar pop_schema print_indexed_grammar print_unification_grammar push_schema
reduced_form_check render_correspondence reverse_u satisfies satisfies_set sink_map_root solve
sorted_schema suffix_chain_structure sug_language_upto sug_membership tree_of u_transform
ugi_check ugi_language_upto ugi_membership ugi_normalize used_values validate_cstructure
validate_derivation_tree well_defined_check
""".split()

# runs the code given, then prints the glab modules loaded
_LOADED = """
import sys
{code}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "glab")))
"""


def loaded_by(code: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(code=code)],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def loaded_by_command(*argv: str) -> set[str]:
    return loaded_by(f"from glab.cli import main\nassert main({list(argv)!r}) == 0")


def test_import_glab_loads_no_submodule():
    assert loaded_by("import glab") == {"glab"}


def test_a_name_loads_its_home_module_and_what_that_imports():
    assert loaded_by("import glab\nglab.TreeAddress") == {"glab", "glab.errors", "glab.trees"}


ENGINES_OF_THE_OTHER_SIDE = {"glab.unification", "glab.features", "glab.transform", "glab.dot"}


@pytest.mark.parametrize("argv", [("check", "example1.ixg"), ("member", "example1.ixg", "aabbcc")])
def test_indexed_commands_load_no_unification_code(argv):
    loaded = loaded_by_command(argv[0], str(FIXTURES / argv[1]), *argv[2:])
    assert "glab.indexed" in loaded
    assert not loaded & ENGINES_OF_THE_OTHER_SIDE


def test_unification_membership_loads_no_transform_or_dot():
    loaded = loaded_by_command("member", str(FIXTURES / "example2_u.ugr"), "dddd")
    assert "glab.unification" in loaded
    assert not loaded & {"glab.transform", "glab.dot"}


def test_star_import_binds_the_exported_names():
    namespace: dict = {}
    exec("from glab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert glab.__all__ == EXPORTS == sorted(EXPORTS)
    assert len(EXPORTS) == 94


def test_each_name_is_the_object_its_home_module_defines():
    for name in EXPORTS:
        home = f"glab.{glab._HOME[name]}"
        obj = getattr(glab, name)
        assert getattr(importlib.import_module(home), name) is obj, name
        # defined there, not imported into it (SolveResult is a typing alias)
        assert getattr(obj, "__module__", home) in (home, "typing"), name


def test_dir_lists_the_exports_and_dunders():
    names = dir(glab)
    assert "__all__" in names
    assert set(EXPORTS) <= set(names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        glab.no_such_name
    with pytest.raises(ImportError):
        from glab import no_such_name  # noqa: F401

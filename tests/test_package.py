"""The package's public names: resolved on first use, each one the object
its submodule defines. Every other top-level name serves the package's own
code, and every docstring example holds. Only the CLI reads the environment
and knows the oracle cap, and the witness re-checks' matcher stays apart
from the kernel."""
import ast
import doctest
import importlib
import inspect
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cycperm

#: The names ``cycperm`` exports, by the submodule that defines them.
EXPORTS = {
    "enumeration": ("EnumerationRequest", "EnumerationResult", "count_avoiders",
                    "count_cyclic_avoiders", "list_cyclic_avoiders"),
    "formulas": ("PairFormulaId", "count_123_132", "count_123_231", "count_132_231",
                 "count_trivial_pair", "mobius", "pair_count", "totient",
                 "upper_bound_123_231"),
    "harness": ("TABLE_ONE", "VerificationReport", "check_chain_conjecture",
                "check_growth_bounds", "check_insertion_theorem",
                "check_k_minus_one_question", "insertion_construction",
                "reproduce_table_one"),
    "layered": ("Triple", "TripleClassification", "TripleReason", "classify_triple_formula",
                "enumerate_good_triples", "inversion_count_formula", "is_good_triple_direct",
                "permutation_of_triple", "triple_of_permutation"),
    "patterns": ("Pattern", "avoids_all", "contains", "parse_pattern"),
    "perm": ("Permutation", "compose", "cycle_type", "inverse", "inversion_count",
             "is_cyclic", "is_involution", "make_permutation", "parse_permutation",
             "reverse_complement"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_names_exactly_the_exports():
    assert sorted(cycperm.__all__) == sorted(name for _, name in NAMES)
    assert cycperm.__version__ == "0.1.0"


def test_every_export_is_its_submodules_object():
    star = {}
    exec("from cycperm import *", star)
    listed = dir(cycperm)
    for module, name in NAMES:
        defined = getattr(importlib.import_module(f"cycperm.{module}"), name)
        assert getattr(cycperm, name) is defined, name
        assert star[name] is defined, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cycperm.no_such_name
    assert not hasattr(cycperm, "count_cyclic")


def _definitions(tree):
    """Each top-level function, class and assigned name, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _named(node, modules):
    """The names that ``node`` refers to: loaded names, imported names, and
    attributes read from one of the package's modules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            yield sub.attr


def test_every_top_level_name_is_exported_or_used_by_the_package():
    # a helper that only the tests call is not the package's code
    package = Path(cycperm.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _named(tree, trees))
    unused = [f"{stem}.{name}" for stem, tree in trees.items()
              for name, node in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in cycperm.__all__
              and uses[name] == Counter(_named(node, trees))[name]]
    assert unused == []


def test_docstring_examples_pass():
    # importing cycperm.__main__ would run the CLI
    package = Path(cycperm.__file__).parent
    stems = sorted(path.stem for path in package.glob("*.py") if path.stem != "__main__")
    attempted = 0
    for stem in stems:
        module = cycperm if stem == "__init__" else importlib.import_module(f"cycperm.{stem}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, module.__name__
        attempted += tried
    assert attempted > 0


def test_only_the_cli_reads_the_environment():
    package = Path(cycperm.__file__).parent
    readers = sorted(str(path.relative_to(package)) for path in package.rglob("*.py")
                     if re.search(r"os\.environ|getenv", path.read_text()))
    assert readers == ["cli.py"]


def test_the_matcher_stays_apart_from_the_kernel():
    # the harness re-checks the kernel's witnesses with patterns, so it
    # neither names the kernel nor loads it
    package = Path(cycperm.__file__).parent
    assert "_kernels" not in (package / "patterns.py").read_text()
    code = "import sys, cycperm.patterns; print('cycperm._kernels' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_the_cli_knows_the_oracle_cap():
    from cycperm import enumeration, harness

    for module in (enumeration, harness):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                assert "cap" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
    package = Path(cycperm.__file__).parent
    namers = sorted(str(path.relative_to(package)) for path in package.rglob("*.py")
                    if re.search(r"\b(check_cap|DEFAULT_CAP)\b", path.read_text()))
    assert namers == ["cli.py"]

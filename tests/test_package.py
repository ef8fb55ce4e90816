"""Package-wide properties: no `assert` and no unused import in the
sources, neither networkx nor argparse behind the command line, and an anchor in
the sources for every planted fault of `scripts/mutants.py`."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import immorder
from immorder import groupring

SRC = Path(immorder.__file__).parent


def test_sources_use_no_assert_statements():
    # `python -O` strips asserts, so certificate checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_sources_import_only_names_they_use():
    # a deletion can leave its imports behind; `__future__` imports are directives
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert sorted(SRC.glob("*.py"))
    assert unused == []


def test_cli_import_leaves_networkx_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, immorder.cli; print(sorted({'networkx', 'argparse'} & set(sys.modules)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _scopes_calling(name: str) -> list[str]:
    """The `module.function` scopes of the sources that call `name`."""

    def callers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield scope
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from callers(child, f"{scope}.{child.name}" if named else scope)

    found = []
    for path in sorted(SRC.glob("*.py")):
        found += callers(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_only_cyclic_homology_builds_a_resolution():
    # one entry point for the homology of Z/n: every other caller reads it
    assert _scopes_calling("standard_resolution") == ["cohomology.cyclic_homology"]


def test_no_source_reads_a_regular_representation():
    # every solve works in the group ring; the dense n x n matrix of a ring
    # element is test code, in `oracles.regular_representation`
    assert _scopes_calling("regular_representation") == []
    assert not hasattr(groupring, "regular_representation")


def test_only_lift_exists_takes_a_kernel_basis_in_postnikov():
    # the kernel of 1 - s a on I^w in `shift` is the closed-form line of N^w
    assert [s for s in _scopes_calling("kernel_basis") if s.startswith("postnikov.")] == ["postnikov.lift_exists"]


def test_shift_takes_no_subquotient_and_only_intalg_names_factor():
    # `shift` reads H_1 = H_3 on I^w in closed form, and `_factor` stays
    # behind `Factorization` and `kernel_basis`
    tree = ast.parse((SRC / "postnikov.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"subquotient", "Factorization"}
    naming = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "intalg":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
                naming += [f"{path.name}:{node.lineno}" for name in names if name == "_factor"]
    assert sorted(SRC.glob("*.py")) and naming == []


def test_fibering_takes_no_kernel_basis_and_one_smith_form():
    # the characters onto Z are the rows of U past the rank in the Smith
    # form of the exponent matrix, and the abelianization is its cokernel
    def in_fibering(name):
        return [s for s in _scopes_calling(name) if s.split(".")[0] == "fibering"]

    assert in_fibering("kernel_basis") == []
    assert in_fibering("smith_normal_form") == ["fibering._character_lattice"]
    assert in_fibering("cokernel") == ["fibering.abelianization"]


def test_every_planted_fault_anchor_occurs_once_in_src():
    # the register runs no mutant here; a refactor that moves an anchor
    # must move its entry in scripts/mutants.py with it
    path = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.anchor_problems(SRC.parent) == []

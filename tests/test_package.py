"""Package-wide properties: no `assert` and no unused import in the
sources, none of networkx, argparse, dataclasses and inspect behind the
command line, an anchor in the sources for every planted fault of
`scripts/mutants.py`, records that behave as frozen dataclasses, and a
base `__init__` that binds a record's arguments as the hand-written one
it replaced did."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib.util
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import immorder
from immorder import cohomology, fibering, groupring, intalg, james, order, postnikov
from immorder.intalg import Record, set_field

from oracles import RECORD_FIELDS, dataclass_twin
from test_fibering import letters_st, relators_st
from test_groupring import elements, even_orders, orders
from test_intalg import matrices, small_complexes
from test_order import PLANT_FAMILY, POOL
from test_postnikov import cyclic_homs

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
    # dataclasses and inspect were a third of the import: the records are plain slotted classes
    absent = "{'networkx', 'argparse', 'dataclasses', 'inspect'}"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, immorder.cli; print(sorted({absent} & set(sys.modules)))"],
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


# ---------------------------------------------------------------------------
# records: each behaves as the frozen dataclass it was


def _brown(text: str) -> fibering.BrownVerdict | None:
    """The verdict on a word under a character that kills it, or None
    when the word is not cyclically reduced or uses only one generator."""
    word = fibering.FreeWord(text)
    a, b = word.exponents()
    if not (a and b and text[0] != text[-1].swapcase()):
        return None
    return fibering.brown_fibered(word, fibering.ZMap(b, -a))


types = st.sampled_from(POOL)
RECORDS = {
    "IntMatrix": matrices,
    "SmithForm": matrices.map(intalg.smith_normal_form),
    "Factorization": matrices.map(intalg.Factorization.of),
    "FgAbelianGroup": matrices.map(intalg.cokernel),
    "Subquotient": small_complexes().map(lambda ab: intalg.homology_data(*ab)),
    "IntComplex": small_complexes().map(
        lambda ab: intalg.IntComplex((ab[1].rows, ab[0].rows, ab[0].cols), (ab[1], ab[0]))
    ),
    "GroupRingElement": elements(),
    "CoefficientModule": st.tuples(st.sampled_from(groupring.COEFFICIENT_NAMES), even_orders).map(
        lambda p: groupring.coefficient_module(*p)
    ),
    "GroupRingComplex": st.tuples(orders, st.integers(0, 4)).map(lambda p: groupring.standard_resolution(*p)),
    "CyclicMod2Class": st.tuples(st.integers(2, 12), st.integers(0, 4)).map(lambda p: cohomology.cyclic_generator(*p)),
    "Z4Mod2Class": st.integers(0, 4).flatmap(
        lambda d: st.lists(st.sampled_from(cohomology.z4_monomials(d))).map(lambda ms: cohomology.z4_class(d, ms))
    ),
    "CyclicHom": cyclic_homs(),
    "FreeWord": letters_st.map(fibering.FreeWord),
    "Presentation": relators_st.map(lambda rs: fibering.Presentation(tuple(rs))),
    "ZMap": st.builds(fibering.ZMap, st.integers(-3, 3), st.integers(-3, 3)),
    "BrownVerdict": letters_st.map(fibering.free_reduce).map(_brown).filter(bool),
    "Epimorphisms": relators_st.map(lambda rs: fibering.epimorphisms_to_Z(fibering.Presentation(tuple(rs)))),
    "Subgroup": types.map(lambda t: james.realizable_classes(t.group, t.n, t.w1, t.w2).subgroup),
    "D2Map": st.tuples(st.sampled_from([james.d2_40, james.d2_31]), types.filter(lambda t: t.w2 != "inf")).map(
        lambda ft: ft[0](ft[1].group, ft[1].n, ft[1].w1, ft[1].w2)
    ),
    "RealizableSet": types.map(lambda t: james.realizable_classes(t.group, t.n, t.w1, t.w2)),
    "ImmersionType": types,
    "LeqVerdict": st.tuples(types, types).map(lambda ab: order.leq(*ab)),
    "OrderGraph": st.lists(st.sampled_from(PLANT_FAMILY), max_size=5).map(order.order_graph),
    "ProjectionDiagram": st.tuples(st.integers(1, 6), st.sampled_from([1, 3, 5])).map(
        lambda km: postnikov.verify_projection_diagram(km[0] * km[1], km[0])
    ),
    "ShiftData": st.tuples(even_orders, st.integers(0, 1)).map(lambda p: postnikov.shift_data(*p)),
    "ShiftResult": st.tuples(even_orders, st.integers(0, 3)).map(lambda p: postnikov.shift(p[0], 1, p[1])),
}


def test_every_record_has_a_strategy_and_a_twin():
    # every module that defines a record is imported above
    records = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("immorder.")}
    assert len(records) == 26 and records == set(RECORDS) == set(RECORD_FIELDS)


# the hand-written `__init__`s that `Record.__init__` replaced: fields in
# order, and the defaults they declared
BOUND_RECORDS = {
    intalg.SmithForm: "d U V uinv vinv rows cols",
    intalg.Subquotient: "sub_basis group _dfull _u _uinv _basis",
    fibering.ZMap: "a b",
    fibering.BrownVerdict: "fibered values min_index min_value max_index max_value reason=None",
    fibering.Epimorphisms: "maps multiple_exist",
    james.D2Map: "domain codomain matrix kernel=None cokernel=None",
    james.RealizableSet: "ambient determined subgroup",
    order.LeqVerdict: "answer trace reason=None",
    order.OrderGraph: "nodes edges",
    postnikov.ProjectionDiagram: "source_k target_k index exists witness candidate",
    postnikov.ShiftData: "n w norm_w",
    postnikov.ShiftResult: "n w input_multiple groups classes cycles",
}


def _old_signature(spec: str) -> inspect.Signature:
    kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    return inspect.Signature(
        [inspect.Parameter(p.removesuffix("=None"), kind, default=None if "=" in p else empty) for p in spec.split()]
    )


def test_exactly_the_records_that_check_nothing_bind_from_slots():
    records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("immorder.")}
    assert {cls for cls in records if "__init__" not in vars(cls)} == set(BOUND_RECORDS)


@pytest.mark.parametrize("cls", BOUND_RECORDS, ids=lambda cls: cls.__name__)
def test_records_bind_arguments_as_their_old_signatures(cls):
    # every call of up to one argument too many, with every set of keywords
    # among the fields and one unknown name: positional, keyword and mixed
    # calls, each default left out or given, and the four refusals
    sig = _old_signature(BOUND_RECORDS[cls])
    fields = tuple(sig.parameters)
    assert fields == cls.__slots__
    names, outcomes = (*fields, "extra"), set()
    for k in range(len(fields) + 2):
        args = tuple(range(k))
        for mask in range(2 ** len(names)):
            kwargs = {name: -i - 1 for i, name in enumerate(names) if mask >> i & 1}
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError as e:
                outcomes.add(str(e).split(" ")[0])
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)
                continue
            bound.apply_defaults()
            record = cls(*args, **kwargs)
            assert tuple(map(record.__getattribute__, fields)) == tuple(bound.arguments.values())
            outcomes.add("defaulted" if len(args) + len(kwargs) < len(fields) else "bound")
    # each of those was met: inspect names too many, missing, unknown and repeated arguments
    assert {"too", "missing", "got", "multiple"} <= outcomes and "bound" in outcomes
    assert ("defaulted" in outcomes) == any(p.default is None for p in sig.parameters.values())


def test_the_binder_names_what_it_refuses():
    for call, message in (
        (lambda: fibering.ZMap(1, 2, 3), "ZMap() takes 2 arguments but 3 were given"),
        (lambda: fibering.ZMap(1), "ZMap() missing argument 'b'"),
        (lambda: order.LeqVerdict(True, (), b=()), "LeqVerdict() got an unexpected keyword argument 'b'"),
        (lambda: order.LeqVerdict(True, (), answer=False), "LeqVerdict() got multiple values for argument 'answer'"),
    ):
        with pytest.raises(TypeError) as e:
            call()
        assert str(e.value) == message


def _rebuilt(record, cls=None, **changes):
    """A new instance of cls (the record's class by default) with the
    record's field values and `changes`, set past any check."""
    cls = cls or type(record)
    out = cls.__new__(cls)
    for name in type(record).__slots__:
        set_field(out, name, changes[name] if name in changes else getattr(record, name))
    return out


def _same_behaviour(x, tx, y, ty) -> None:
    """Records x, y and their twins tx, ty agree on repr, hash and ==."""
    assert repr(x) == repr(tx)
    assert hash(x) == hash(tx)
    assert (x == y, x != y, y == x) == (tx == ty, tx != ty, ty == tx)


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_records_behave_as_their_dataclass_twins(name, data):
    x, y = data.draw(RECORDS[name]), data.draw(RECORDS[name])
    tx, ty = dataclass_twin(x), dataclass_twin(y)
    _same_behaviour(x, tx, y, ty)
    _same_behaviour(x, tx, x, tx)
    # an equal record that is another object, also from copy and pickle
    for equal in (_rebuilt(x), copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        _same_behaviour(x, tx, equal, dataclass_twin(equal))
    # a plain tuple of the field values, and another record class holding them
    values = tuple(getattr(x, f.name) for f in dataclasses.fields(tx))
    assert (x == values, x.__eq__(values)) == (tx == values, tx.__eq__(values)) == (False, NotImplemented)
    other = type("Other", (Record,), {"__slots__": type(x).__slots__})
    other_twin = dataclasses.make_dataclass("Other", list(type(x).__slots__))
    assert (x == _rebuilt(x, other), tx == other_twin(*values)) == (False, False)
    # each field alone decides equality exactly when it is compared
    for f in dataclasses.fields(tx):
        changed = _rebuilt(x, **{f.name: (f.name,)})
        _same_behaviour(changed, dataclass_twin(changed), x, tx)
    for target in (x, tx):
        for attr in (*type(x).__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(target, attr, 0)
            with pytest.raises(AttributeError):
                delattr(target, attr)
    assert repr(x) == repr(tx)  # the refused assignments changed nothing

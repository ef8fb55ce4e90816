"""Planted faults: each answer check must reject a wrong output.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest immbench/test_checks.py -q

Genuine outputs come from the package through the same pass code the
benchmark uses; each test first shows the check accepts the genuine output
and then that it rejects the output with one fault planted.
"""

from __future__ import annotations

import copy
import io
import json
import pickle

import pytest

import checks
import oracle
import passrun
import workloads


def _run(query: dict):
    query = dict(query, id=0)
    sink = io.BytesIO()
    [(_, status, _, _)] = passrun.run_pass([query], deadline_s=60.0, sink=sink)
    value = pickle.loads(sink.getvalue())
    assert status == "ok"
    assert checks.check(query, value) is None
    return query, value


def _cli(argv, **params):
    return workloads._cli(0, argv, **params)


def _edit_json(value: dict, edit) -> dict:
    obj = json.loads(value["out"])
    edit(obj)
    return {"rc": value["rc"], "out": json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"}


def test_flipped_leq_answer_is_rejected(tmp_path):
    a = {"group": "cyclic", "n": 4, "w1": 0, "w2": "1", "c": 0}
    b = {"group": "cyclic", "n": 24, "w1": 0, "w2": "1", "c": 0}
    paths = []
    for name, payload in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    query, value = _run(_cli(["leq", *paths], a=a, b=b))
    assert json.loads(value["out"])["answer"] is True

    def flip(obj):
        obj["answer"] = not obj["answer"]

    assert checks.check(query, _edit_json(value, flip)) is not None


def _matrix_query(call: str) -> dict:
    rows = [[4, -6, 2, 9], [2, 8, -4, 1], [6, 2, 0, -3], [-2, 5, 7, 1]]
    return workloads._lib(0, call, rows=rows)


def test_wrong_invariant_factor_is_rejected():
    query, value = _run(_matrix_query("smith_normal_form"))
    bad = copy.deepcopy(value)
    bad["d"][-1] *= 3
    assert checks.check(query, bad) is not None

    query, value = _run(_matrix_query("cokernel"))
    bad = copy.deepcopy(value)
    bad["torsion"] = [t * 3 for t in bad["torsion"]] or [3]
    assert checks.check(query, bad) is not None


def test_non_unimodular_transform_is_rejected():
    query, value = _run(_matrix_query("smith_normal_form"))
    bad = copy.deepcopy(value)
    bad["U"][0] = [2 * x for x in bad["U"][0]]
    reason = checks.check(query, bad)
    assert reason is not None and "unimodular" in reason


def test_wrong_shift_class_is_rejected():
    queries = []
    for pair_seed in (3, 11):
        argv = ["shift", "--group", "Z/8", "--w", "w", "--c", "3", "--seed", str(pair_seed)]
        queries.append(_run(_cli(argv, n=8, w=1, c=3, pair=0)))
    (query, value), (other, other_value) = queries

    def flip(obj):
        obj["classes"][2] = [1 - obj["classes"][2][0]]

    bad = _edit_json(value, flip)
    assert checks.check(query, bad) is not None
    other = dict(other, id=1)
    assert checks.check_shift_pairs([query, other], {0: value, 1: other_value}) == set()
    assert checks.check_shift_pairs([query, other], {0: bad, 1: other_value}) == {0, 1}


def test_wrong_homology_group_is_rejected():
    argv = ["homology", "--group", "Z/12", "--twist", "0", "--coeff", "Z", "--degree", "3"]
    query, value = _run(_cli(argv, group="cyclic", n=12, twist=0, coeff="Z", degree=3))
    assert json.loads(value["out"])["result"] == "Z/12"

    def wrong(obj):
        obj["result"] = "Z/6"

    assert checks.check(query, _edit_json(value, wrong)) is not None


def test_order_graph_extra_edge_is_rejected():
    argv = ["order-graph", "--family", "cyclic", "--max-exp", "2", "--combined", "--format", "json"]
    query, value = _run(_cli(argv, max_exp=2))

    def extra(obj):
        obj["edges"].append(["S4", "CP2"])

    assert checks.check(query, _edit_json(value, extra)) is not None


def test_schema_violation_is_rejected():
    argv = ["model-cohomology", "--k", "3", "--coeff", "ZZ2w"]
    query, value = _run(_cli(argv, k=3, coeff="ZZ2w"))

    def stray(obj):
        obj["extra"] = 1

    reason = checks.check(query, _edit_json(value, stray))
    assert reason is not None and reason.startswith("schema")


@pytest.mark.parametrize("coeff", ["Z", "Z2", "ZZ2w"])
def test_model_cohomology_closed_form_matches_program(coeff):
    from immorder.postnikov import model_cohomology

    for k in range(1, 11):
        assert str(model_cohomology(k, coeff)) == oracle.model_cohomology(k, coeff), k


def test_order_oracle_matches_program_on_small_types():
    from immorder import order

    payloads = [{"group": "trivial", "w2": w2} for w2 in ("0", "inf")]
    payloads += [{"group": "Z", "w1": w1, "w2": w2} for w1 in (0, 1) for w2 in ("0", "inf")]
    payloads += [{"group": "Z4", "w2": w2, "c": c} for w2 in ("e12", "e12+e34") for c in (0, 2, 4)]
    for n in (2, 3, 4, 6, 8, 12):
        for w1 in (0, 1) if n % 2 == 0 else (0,):
            for w2 in ("0", "1", "inf") if n % 2 == 0 else ("0", "inf"):
                for c in (0, 1):
                    if w1 == 1 and w2 == "0" and c == 1:
                        continue
                    payloads.append({"group": "cyclic", "n": n, "w1": w1, "w2": w2, "c": c})
    for pa in payloads:
        for pb in payloads:
            got = order.leq(order.ImmersionType(**pa), order.ImmersionType(**pb)).answer
            assert got == oracle.leq(oracle.make_type(**pa), oracle.make_type(**pb)), (pa, pb)

"""Answer checks: every output against `oracle` and its shipped schema.

Nothing here imports `immorder`.  `check(query, output)` returns None when
the output is right and a short reason otherwise; `check_shift_pairs`
adds the cross-query rule that a shift class does not depend on the
program seed.  CLI outputs must also be the byte-deterministic JSON the
package promises (sorted keys, compact separators, one newline) and valid
against the schema of their subcommand under `src/immorder/schemas`.
"""

from __future__ import annotations

import json
import os

import oracle

SCHEMA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "immorder", "schemas")
SCHEMAS = {
    "homology": "homology",
    "sq2w": "sq2w",
    "realizable": "realizable",
    "leq": "leq",
    "order-graph": "order_graph",
    "model-cohomology": "model_cohomology",
    "shift": "shift",
    "fibered": "fibered",
    "abelianization": "abelianization",
    "integral-lift": "integral_lift",
    "chain-verify": "chain_verify",
}
_validators: dict[str, object] = {}


def _validator(name: str):
    if name not in _validators:
        import jsonschema

        with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json")) as fh:
            schema = json.load(fh)
        _validators[name] = jsonschema.Draft7Validator(schema)
    return _validators[name]


def check(query: dict, output) -> str | None:
    if "argv" in query:
        return _check_cli(query, output)
    return _check_lib(query["call"], query["params"], output)


def _check_cli(query: dict, output: dict) -> str | None:
    cmd, p = query["cmd"], query["params"]
    text = output["out"]
    try:
        obj = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    if text != json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n":
        return "stdout is not canonical JSON"
    rc = output["rc"]
    schema = "error" if rc == 2 else SCHEMAS[cmd]
    errors = sorted(_validator(schema).iter_errors(obj), key=str)
    if errors:
        return f"schema {schema}: {errors[0].message}"
    if cmd == "leq":
        return _leq(p, obj, rc)
    if rc != 0:
        return f"exit code {rc}, expected 0"
    return CLI_CHECKS[cmd](p, obj)


def _leq(p, obj, rc) -> str | None:
    """Exit 3 with `undetermined` exactly where the rules do not cover
    the pair, else exit 0 with the oracle's answer."""
    answer = oracle.leq(oracle.make_type(**p["a"]), oracle.make_type(**p["b"]))
    if answer is None:
        return None if (rc, obj.get("answer")) == (3, "undetermined") else "decided a pair the rules do not cover"
    if rc != 0:
        return f"exit code {rc}, expected 0"
    return None if obj["answer"] is answer else f"answer {obj['answer']}, expected {answer}"


def _equal(expected: dict, obj: dict) -> str | None:
    for key, want in expected.items():
        if obj.get(key) != want:
            return f"{key} = {obj.get(key)!r}, expected {want!r}"
    if set(obj) != set(expected):
        return f"keys {sorted(obj)}, expected {sorted(expected)}"
    return None


def _group_arg(p) -> str:
    return f"Z/{p['n']}" if p["group"] == "cyclic" else p["group"]


def _realizable(p, obj):
    want = {"group": _group_arg(p), "w1": p["w1"], "w2": p["w2"], **oracle.realizable(p["group"], p["n"], p["w1"], p["w2"])}
    return _equal(want, obj)


def _homology(p, obj):
    result = oracle.homology(p["group"], p["n"], p["twist"], p["coeff"], p["degree"])
    twist = "w" if p["twist"] else "0"
    return _equal({"group": _group_arg(p), "twist": twist, "coeff": p["coeff"], "degree": p["degree"], "result": result}, obj)


def _sq2w(p, obj):
    values = oracle.sq2w_values(p["group"], p["n"], p["w2"])
    return _equal({"group": _group_arg(p), "w1": p["w1"], "w2": p["w2"], "degree": 2, "values": values}, obj)


def _order_graph(p, obj):
    nodes, edges = oracle.cover_graph(oracle.cyclic_family(p["max_exp"], combined=True))
    got_nodes = {(x["name"], x["label"]) for x in obj["nodes"]}
    got_edges = {tuple(e) for e in obj["edges"]}
    if len(got_nodes) != len(obj["nodes"]) or len(got_edges) != len(obj["edges"]):
        return "repeated node or edge"
    if got_nodes != nodes:
        return f"nodes differ: {sorted(got_nodes ^ nodes)}"
    if got_edges != edges:
        return f"edges differ: {sorted(got_edges ^ edges)}"
    if p["max_exp"] == 2 and got_edges != oracle.COMBINED_MAX_EXP_2_EDGES:
        return "edges differ from the paper's combined figure"
    return None


def _model_cohomology(p, obj):
    return _equal({"k": p["k"], "coeff": p["coeff"], "group": oracle.model_cohomology(p["k"], p["coeff"])}, obj)


def _shift(p, obj):
    groups, classes = oracle.shift_answer(p["n"], p["w"], p["c"])
    want = {"group": f"Z/{p['n']}", "w": "w" if p["w"] else "0", "input_multiple": p["c"], "groups": groups, "classes": classes}
    return _equal(want, obj)


def _fibered(p, obj):
    want = oracle.brown_fibered(p["relator"], p["a"], p["b"])
    if not want["fibered"]:
        if "reason" not in obj:
            return "a non-fibered verdict without a reason"
        want["reason"] = obj["reason"]
    return _equal(want, obj)


def _abelianization(p, obj):
    text = "<a,b|" + ",".join(oracle.free_reduce(r) for r in p["relators"]) + ">"
    return _equal({"presentation": text, "abelianization": oracle.abelianization(p["relators"])}, obj)


def _integral_lift(p, obj):
    want = {"lift_exists": oracle.integral_lift(p["relators"], p["a"], p["b"]), "w1": {"a": p["a"], "b": p["b"]}}
    return _equal(want, obj)


def _chain_verify(p, obj):
    k, m = p["target"], p["source"] // p["target"]
    want = {"source_k": p["source"], "target_k": k, "index": m, "exists": True, "augmentation": m}
    want["candidate"] = [m] + [0] * (2 * k - 1)
    want["witness"] = obj["witness"]
    bad = _equal(want, obj)
    if bad:
        return bad
    witness = obj["witness"]
    if len(witness) != 2 * k or sum(witness) != m:
        return "witness has the wrong length or augmentation"
    if not oracle.projection_identity_holds(k, m, witness):
        return "witness fails N h = m N"
    return None


CLI_CHECKS = {
    "realizable": _realizable,
    "homology": _homology,
    "sq2w": _sq2w,
    "order-graph": _order_graph,
    "model-cohomology": _model_cohomology,
    "shift": _shift,
    "fibered": _fibered,
    "abelianization": _abelianization,
    "integral-lift": _integral_lift,
    "chain-verify": _chain_verify,
}


# ---------------------------------------------------------------------------
# library calls on integer matrices


def _is_chain(d: list[int]) -> bool:
    return all(x > 0 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:]))


def _check_lib(call: str, p: dict, out) -> str | None:
    if call == "factorization_obstruction":
        return None if out is oracle.retraction_obstructed(p["k"]) else "wrong retraction verdict"
    a = p["rows"]
    rows, cols = len(a), len(a[0])
    rank, det = oracle.bareiss(a)
    if call == "smith_normal_form":
        return _check_snf(a, rows, cols, rank, det, out)
    if call == "cokernel":
        torsion = out["torsion"]
        if out["free_rank"] != rows - rank:
            return f"free rank {out['free_rank']}, expected {rows - rank}"
        if not _is_chain(torsion) or any(t < 2 for t in torsion):
            return "torsion is not a divisibility chain of factors >= 2"
        if det:
            prod = 1
            for t in torsion:
                prod *= t
            if prod != abs(det):
                return f"torsion order {prod}, expected |det| = {abs(det)}"
        g1 = oracle.entry_gcd(a)
        if g1 > 1 and (not torsion or torsion[0] != g1):
            return "first factor is not the gcd of the entries"
        return None
    if call == "kernel_basis":
        k = out["matrix"]
        ncols = out["cols"]
        if out["rows"] != cols or ncols != cols - rank:
            return f"kernel basis shape {out['rows']}x{ncols}, expected {cols}x{cols - rank}"
        if ncols and any(any(row) for row in oracle.matmul(a, k)):
            return "A K != 0"
        kcols = [list(c) for c in zip(*k)] if ncols else []
        if ncols and oracle.bareiss(k)[0] != ncols:
            return "kernel columns are dependent"
        if not oracle.maximal_minor_gcd_is_one(kcols):
            return "kernel columns span a proper sublattice"
        return None
    if call == "solve_linear":
        if out is None or len(out) != cols:
            return "no solution returned for a consistent system"
        got = [sum(x * y for x, y in zip(row, out)) for row in a]
        return None if got == p["rhs"] else "A x != b"
    return f"unknown call {call}"


def _check_snf(a, rows, cols, rank, det, out) -> str | None:
    d, u, v, ui, vi = out["d"], out["U"], out["V"], out["uinv"], out["vinv"]
    if len(d) != rank:
        return f"{len(d)} invariant factors, rank is {rank}"
    if not _is_chain(d):
        return "invariant factors are not a divisibility chain"
    if d and d[0] != oracle.entry_gcd(a):
        return "first invariant factor is not the gcd of the entries"
    if len(d) > 1 and d[0] * d[1] != oracle.minor2_gcd(a):
        return "d1 d2 is not the gcd of the 2x2 minors"
    if det:
        prod = 1
        for x in d:
            prod *= x
        if prod != abs(det):
            return f"product of factors {prod}, expected |det| = {abs(det)}"
    if oracle.matmul(u, ui) != oracle.identity(rows) or oracle.matmul(v, vi) != oracle.identity(cols):
        return "a transform is not unimodular (U Uinv or V Vinv is not I)"
    diag = [[d[i] if i == j and i < len(d) else 0 for j in range(cols)] for i in range(rows)]
    if oracle.matmul(oracle.matmul(u, a), v) != diag:
        return "U A V != diag(d)"
    return None


def check_shift_pairs(queries: list[dict], outputs: dict[int, dict]) -> set[int]:
    """Ids of shift queries whose classes differ from those of the same
    (n, w, c) run with another program seed."""
    by_pair: dict[int, list[int]] = {}
    for q in queries:
        if q["cmd"] == "shift" and q["id"] in outputs:
            by_pair.setdefault(q["params"]["pair"], []).append(q["id"])
    bad = set()
    for ids in by_pair.values():
        classes = {json.dumps(json.loads(outputs[i]["out"]).get("classes")) for i in ids}
        if len(classes) > 1:
            bad.update(ids)
    return bad

"""End-to-end tests for the command-line interface.

Every JSON output is validated against the schema shipped inside the
package, several outputs are pinned byte-for-byte, and all documented
exit codes (0 success, 2 invalid input, 3 undetermined verdict) are
exercised.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from immorder import cli
from test_order import FROZEN_COMBINED_EDGES, parse_dot_edges

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(*argv: str):
    """Run the dispatcher in-process; return (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def run_json(*argv: str, schema: str, expect_code: int = 0):
    code, out = run_cli(*argv)
    assert code == expect_code, out
    payload = json.loads(out)
    Draft7Validator(load_schema(schema)).validate(payload)
    return payload, out


S4 = {"group": "trivial"}
CP2 = {"group": "trivial", "w2": "inf"}
M2 = {"group": "cyclic", "n": 2, "w2": "1"}
Z4_E12 = {"group": "Z4", "w2": "e12"}


def payload_file(tmp_path: Path, name: str, obj: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# schemas themselves


def test_every_schema_is_valid_draft7():
    files = sorted(SCHEMA_DIR.glob("*.schema.json"))
    assert len(files) == 13
    for f in files:
        Draft7Validator.check_schema(json.loads(f.read_text()))


# ---------------------------------------------------------------------------
# homology


def test_homology_twisted_cyclic():
    payload, out = run_json(
        "homology", "--group", "Z/8", "--twist", "w", "--coeff", "Z",
        "--degree", "4", schema="homology",
    )
    assert out == '{"coeff":"Z","degree":4,"group":"Z/8","result":"Z/2","twist":"w"}\n'


def test_homology_twisted_order_100000():
    """The largest order inside the budget answers like every even order."""
    _, out = run_json(
        "homology", "--group", "Z/100000", "--twist", "w", "--coeff", "Z",
        "--degree", "4", schema="homology",
    )
    assert out == '{"coeff":"Z","degree":4,"group":"Z/100000","result":"Z/2","twist":"w"}\n'


def test_shift_at_the_order_budget():
    """The largest orders inside the budget answer like every order: with
    the twist each stage is Z/2 and holds c mod 2; untwisted, all vanish."""
    payload, _ = run_json("shift", "--group", "Z/100000", "--w", "w", "--c", "3", schema="shift")
    assert payload["groups"] == ["Z/2"] * 4 and payload["classes"] == [[1]] * 4
    payload, _ = run_json("shift", "--group", "Z/99999", "--w", "0", schema="shift")
    assert payload["groups"] == ["0"] * 4 and payload["classes"] == [[]] * 4


def test_chain_verify_at_the_order_budget():
    """The largest source, on Z/100000, with itself as the target: the
    identity diagram of index 1."""
    payload, _ = run_json("chain-verify", "--source", "50000", "--target", "50000", schema="chain_verify")
    assert payload["exists"] is True and payload["index"] == 1 and payload["augmentation"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", "--group", "Z/100001", "--degree", "4"),
        ("homology", "--degree", str(10**18 + 1), "--group", "Z/2"),
        ("realizable", "--group", "Z/1000000000", "--w1", "1", "--w2", "1"),
        ("sq2w", "--group", "Z/100002", "--w1", "t"),
        ("shift", "--group", "Z/100001"),
        ("model-cohomology", "--k", "17", "--coeff", "Z"),
        ("model-cohomology", "--k", "100000000", "--coeff", "ZZ2w"),
        ("order-graph", "--max-exp", "17", "--combined"),
        ("chain-verify", "--source", "50001", "--target", "1"),
        ("chain-verify", "--target", "50001", "--source", "50001"),
    ],
    ids=lambda a: " ".join(a[:3]),
)
def test_orders_past_the_budget_exit_2(argv):
    payload, _ = run_json(*argv, schema="error", expect_code=2)
    assert "exceeds the budget" in payload["error"]


def test_help_states_the_budgets():
    homology_help = run_cli("homology", "--help")[1]
    assert "n <= 100000" in homology_help and "degree <= 1000000000000000000" in homology_help
    assert "n <= 100000" in run_cli("shift", "--help")[1]
    assert "2^k <= 100000" in run_cli("model-cohomology", "--help")[1]
    order_graph_help = run_cli("order-graph", "--help")[1]
    assert "2^max-exp <= 100000" in order_graph_help and "max-exp >= 1" in order_graph_help
    chain_help = " ".join(run_cli("chain-verify", "--help")[1].split())
    assert "k >= 1 and 2k <= 100000" in chain_help and "odd multiple of k" in chain_help
    for command in ("fibered", "abelianization", "integral-lift"):
        assert "at most 1000000 characters" in run_cli(command, "--help")[1]


def readme_budget_table() -> dict[str, str]:
    """The rows of the README's "Budgets and cost" table, input -> budget."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.split("### Budgets and cost\n", 1)[1].splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[first + 2 :])
    return dict(tuple(cell.strip() for cell in row.strip("|").split(" | ")) for row in rows)


def test_readme_budget_table_matches_the_cli_constants():
    n = cli.MAX_CYCLIC_ORDER
    top_exp = n.bit_length() - 1  # the largest k with 2^k <= n
    degree_exp = len(str(cli.MAX_DEGREE)) - 1
    assert cli.MAX_DEGREE == 10**degree_exp
    assert readme_budget_table() == {
        "`--group Z/n` (`homology`, `sq2w`, `realizable`, `shift`)": f"`n <= {n}`",
        "`homology --degree`": f"`degree <= 10^{degree_exp}`",
        "`model-cohomology --k` (the group `Z/2^k`)": f"`2^k <= {n}`, so `k <= {top_exp}`",
        "`order-graph --max-exp` (orders up to `2^max-exp`)":
            f"`max-exp >= 1` and `2^max-exp <= {n}`, so `1 <= max-exp <= {top_exp}`",
        "`chain-verify --source`, `--target` (the group `Z/2k`)":
            f"`k >= 1` and `2k <= {n}`, so `1 <= k <= {n // 2}`; the source is an odd multiple of the target",
        "`fibered --relator`, `abelianization --presentation`, `integral-lift --presentation`":
            f"at most {cli.MAX_WORD_TEXT} characters of text",
        "`leq` payload `n` (the group `Z/n`)": f"`n <= {n}`",
    }


OVER_BUDGET_WORD = "ab" * 250_000 + "AB" * 250_000 + "aA"


@pytest.mark.parametrize(
    "argv",
    [
        ("fibered", "--phi", "a=1,b=1", "--relator", OVER_BUDGET_WORD),
        ("abelianization", "--presentation", f"<a,b|{OVER_BUDGET_WORD}>"),
        ("integral-lift", "--w1", "a=0,b=0", "--presentation", f"<a,b|{OVER_BUDGET_WORD}>"),
    ],
    ids=lambda a: a[0],
)
def test_word_text_past_the_budget_exits_2(argv):
    payload, _ = run_json(*argv, schema="error", expect_code=2)
    assert "exceeds the budget of 1000000" in payload["error"]


# a + (bB)^m + b reduces to ab, so the stack reduction runs on the whole text
PAIRS_AT_BUDGET = "a" + "bB" * ((cli.MAX_WORD_TEXT - 8) // 2) + "b"
# a^k b: exponent column (k, 1), characters spanned by (1, -k), = (1, 1) mod 2
POWER_AT_BUDGET = "a" * (cli.MAX_WORD_TEXT - 7) + "b"
# a^k B^k under a = b = 1: prefix values 1 .. k, then k - 1 .. 0, each
# extremum attained once
HALVES_AT_BUDGET = "a" * (cli.MAX_WORD_TEXT // 2) + "B" * (cli.MAX_WORD_TEXT // 2)


@pytest.mark.parametrize(
    "argv, schema, expected",
    [
        pytest.param(
            ("abelianization", "--presentation", f"<a,b|{PAIRS_AT_BUDGET}>"),
            "abelianization",
            {"presentation": "<a,b|ab>", "abelianization": "Z"},
            id="abelianization",
        ),
        pytest.param(
            ("integral-lift", "--presentation", f"<a,b|{POWER_AT_BUDGET}>", "--w1", "a=1,b=1"),
            "integral_lift",
            {"lift_exists": True, "w1": {"a": 1, "b": 1}},
            id="integral-lift",
        ),
        pytest.param(
            ("fibered", "--phi", "a=1,b=1", "--relator", HALVES_AT_BUDGET),
            "fibered",
            {
                "fibered": True,
                "min": 0,
                "min_index": cli.MAX_WORD_TEXT,
                "max": cli.MAX_WORD_TEXT // 2,
                "max_index": cli.MAX_WORD_TEXT // 2,
            },
            id="fibered",
        ),
    ],
)
def test_word_text_at_the_budget_answers(argv, schema, expected):
    assert max(map(len, argv)) == cli.MAX_WORD_TEXT
    payload, _ = run_json(*argv, schema=schema)
    assert payload == expected


def test_homology_untwisted_cyclic_vanishes():
    payload, _ = run_json(
        "homology", "--group", "Z/6", "--degree", "4", schema="homology",
    )
    assert payload["result"] == "0"
    assert payload["twist"] == "0"


def test_homology_rank4_free_abelian():
    payload, out = run_json(
        "homology", "--group", "Z4", "--coeff", "Z", "--degree", "2",
        schema="homology",
    )
    assert out == '{"coeff":"Z","degree":2,"group":"Z4","result":"Z^6","twist":"0"}\n'


def test_homology_mod2_coefficients():
    payload, _ = run_json(
        "homology", "--group", "Z/4", "--coeff", "Z2", "--degree", "3",
        schema="homology",
    )
    assert payload["result"] == "Z/2"


@pytest.mark.parametrize("coeff", ["Z", "Z2"])
def test_homology_rejects_twist_on_odd_order(coeff):
    code, out = run_cli("homology", "--group", "Z/7", "--twist", "w", "--coeff", coeff, "--degree", "2")
    assert code == 2
    payload = json.loads(out)
    Draft7Validator(load_schema("error")).validate(payload)
    assert payload == {"error": "orientation twist requires an even group order"}


@pytest.mark.parametrize("degree", ["0", "1", "2", "3", "4"])
def test_homology_mod2_twist_is_trivial_on_even_order(degree):
    # -1 = 1 mod 2: with Z/2 coefficients the twist changes nothing
    twisted, _ = run_json(
        "homology", "--group", "Z/6", "--twist", "w", "--coeff", "Z2", "--degree", degree, schema="homology",
    )
    plain, _ = run_json(
        "homology", "--group", "Z/6", "--twist", "0", "--coeff", "Z2", "--degree", degree, schema="homology",
    )
    assert twisted["result"] == plain["result"] == "Z/2"


def test_homology_rejects_twist_on_rank4():
    code, out = run_cli("homology", "--group", "Z4", "--twist", "w", "--degree", "2")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


# ---------------------------------------------------------------------------
# sq2w


def test_sq2w_cyclic():
    payload, out = run_json(
        "sq2w", "--group", "Z/4", "--w1", "t", "--w2", "0", schema="sq2w",
    )
    assert out == (
        '{"degree":2,"group":"Z/4","values":[{"value":"s^2","x":"s"}],'
        '"w1":"t","w2":"0"}\n'
    )


def test_sq2w_rank4_symplectic_twist():
    payload, _ = run_json(
        "sq2w", "--group", "Z4", "--w2", "e12+e34", schema="sq2w",
    )
    values = {row["x"]: row["value"] for row in payload["values"]}
    assert len(values) == 6
    assert values["e1e2"] == "e1e2e3e4"
    assert values["e3e4"] == "e1e2e3e4"
    for x in ("e1e3", "e1e4", "e2e3", "e2e4"):
        assert values[x] == "0"


def test_sq2w_rejects_other_degrees():
    code, out = run_cli("sq2w", "--group", "Z/4", "--degree", "3")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


# ---------------------------------------------------------------------------
# realizable


def test_realizable_nonorientable_cyclic():
    payload, out = run_json(
        "realizable", "--group", "Z/8", "--w1", "1", "--w2", "1",
        schema="realizable",
    )
    assert out == (
        '{"ambient":"Z/2","generator":1,"group":"Z/8","kind":"Determined",'
        '"modulus":2,"subgroup":"all","w1":1,"w2":"1"}\n'
    )


def test_realizable_rank4_upper_bound():
    payload, _ = run_json(
        "realizable", "--group", "Z4", "--w1", "0", "--w2", "0",
        schema="realizable",
    )
    assert payload["kind"] == "UpperBound"
    assert payload["modulus"] == 0


def test_realizable_rank4_determined_even_subgroup():
    payload, _ = run_json(
        "realizable", "--group", "Z4", "--w1", "0", "--w2", "e12+e34",
        schema="realizable",
    )
    assert payload["kind"] == "Determined"
    assert payload["subgroup"] == "2Z"


@pytest.mark.parametrize("w2", ["e12", "e12+e34"])
def test_realizable_rejects_exterior_w2_on_trivial_group(w2):
    code, out = run_cli("realizable", "--group", "trivial", "--w2", w2)
    assert code == 2
    payload = json.loads(out)
    Draft7Validator(load_schema("error")).validate(payload)
    assert payload == {"error": "exterior degree-2 symbols require the rank-4 free-abelian family"}


# ---------------------------------------------------------------------------
# leq


def test_leq_s4_below_everything(tmp_path):
    a = payload_file(tmp_path, "a.json", S4)
    b = payload_file(tmp_path, "b.json", CP2)
    payload, out = run_json("leq", a, b, schema="leq")
    assert out == '{"answer":true,"trace":["s4-minimum"]}\n'


def test_leq_false_with_trace(tmp_path):
    a = payload_file(tmp_path, "a.json", CP2)
    b = payload_file(tmp_path, "b.json", S4)
    payload, _ = run_json("leq", a, b, schema="leq")
    assert payload["answer"] is False
    assert payload["trace"]


def test_leq_stdin_payload(tmp_path, monkeypatch):
    b = payload_file(tmp_path, "b.json", M2)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(S4)))
    payload, _ = run_json("leq", "-", b, schema="leq")
    assert payload["answer"] is True


def test_leq_rejects_two_stdin_payloads(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(S4)))
    code, out = run_cli("leq", "-", "-")
    assert code == 2
    assert "at most one" in json.loads(out)["error"]


def test_leq_undetermined_exits_3(tmp_path):
    a = payload_file(tmp_path, "a.json", M2)
    b = payload_file(tmp_path, "b.json", Z4_E12)
    payload, _ = run_json("leq", a, b, schema="leq", expect_code=3)
    assert payload["answer"] == "undetermined"
    assert payload["reason"]


def test_leq_missing_file_exits_2(tmp_path):
    b = payload_file(tmp_path, "b.json", S4)
    code, out = run_cli("leq", str(tmp_path / "nope.json"), b)
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


def test_leq_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    b = payload_file(tmp_path, "b.json", S4)
    assert run_cli("leq", str(bad), b)[0] == 2


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_leq_payload_nested_past_the_json_reader_exits_2(tmp_path, monkeypatch, source):
    # the JSON reader recurses once per bracket and raises RecursionError here
    deep = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    a = "-" if source == "stdin" else str(path)
    payload, _ = run_json("leq", a, payload_file(tmp_path, "b.json", S4), schema="error", expect_code=2)
    assert payload["error"] == f"payload {a!r} nests too deeply to be read"


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"group": "cyclic", "n": 8, "c": 1e300}, "'c'"),
        ({"group": "cyclic", "n": 8, "w2": 1}, "'w2'"),
        ({"group": "cyclic", "n": 2.5}, "'n'"),
        ({"group": "cyclic", "n": True}, "'n'"),
        ({"group": "cyclic", "n": 0}, "'n'"),
        ({"group": "cyclic", "n": None}, "'n'"),
        ({"group": "cyclic", "n": 100_002}, "'n'"),
        ({"group": "Z", "w1": True}, "'w1'"),
        ({"group": "Z", "w1": 1.0}, "'w1'"),
        ({"group": "Z", "w1": 2}, "'w1'"),
        ({"group": "Q8"}, "'group'"),
        ({"group": 4}, "'group'"),
        ({"group": "trivial", "c": False}, "'c'"),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else x,
)
def test_leq_payload_outside_the_schema_exits_2(tmp_path, bad, key):
    a = payload_file(tmp_path, "a.json", bad)
    b = payload_file(tmp_path, "b.json", S4)
    payload, _ = run_json("leq", a, b, schema="error", expect_code=2)
    assert key in payload["error"]
    assert payload["error"].startswith("immersion-type")


def test_leq_unknown_payload_key_exits_2(tmp_path):
    a = payload_file(tmp_path, "a.json", {"group": "trivial", "spin": True})
    b = payload_file(tmp_path, "b.json", S4)
    code, out = run_cli("leq", a, b)
    assert code == 2
    assert "spin" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# order-graph


def test_order_graph_combined_dot_matches_frozen_figure():
    code, out = run_cli(
        "order-graph", "--family", "cyclic", "--max-exp", "2", "--combined",
    )
    assert code == 0
    assert out.startswith("digraph immersion_order")
    assert parse_dot_edges(out) == FROZEN_COMBINED_EDGES


def test_order_graph_json():
    payload, out = run_json(
        "order-graph", "--max-exp", "1", "--format", "json",
        schema="order_graph",
    )
    assert out == (
        '{"edges":[["M_1","CP2"],["S4","M_1"]],'
        '"nodes":[{"label":"S4","name":"S4"},{"label":"CP2","name":"CP2"},'
        '{"label":"M(2)","name":"M_1"}]}\n'
    )


def test_order_graph_rejects_bad_inputs():
    assert run_cli("order-graph", "--max-exp", "-1")[0] == 2
    payload, _ = run_json("order-graph", "--max-exp", "0", schema="error", expect_code=2)
    assert payload["error"] == "max-exp must be >= 1"
    assert run_cli("order-graph", "--family", "dihedral", "--max-exp", "1")[0] == 2


# ---------------------------------------------------------------------------
# model-cohomology


def test_model_cohomology_pinned_values():
    expected = {
        ("3", "ZZ2w"): "Z/4",
        ("3", "Z"): "Z/8",
        ("3", "Z2"): "Z/2",
        ("1", "ZZ2w"): "0",
    }
    for (k, coeff), group in expected.items():
        payload, _ = run_json(
            "model-cohomology", "--k", k, "--coeff", coeff,
            schema="model_cohomology",
        )
        assert payload["group"] == group, (k, coeff)


def test_model_cohomology_closed_forms_at_k_11():
    """H^2 of the model over Z/2^k: Z/2^k, Z/2 and Z/2^(k-1)."""
    for coeff, group in (("Z", "Z/2048"), ("Z2", "Z/2"), ("ZZ2w", "Z/1024")):
        payload, _ = run_json("model-cohomology", "--k", "11", "--coeff", coeff, schema="model_cohomology")
        assert payload["group"] == group, coeff


def test_model_cohomology_output_bytes():
    _, out = run_json(
        "model-cohomology", "--k", "3", "--coeff", "ZZ2w",
        schema="model_cohomology",
    )
    assert out == '{"coeff":"ZZ2w","group":"Z/4","k":3}\n'


# ---------------------------------------------------------------------------
# shift


def test_shift_frozen_output():
    payload, out = run_json("shift", "--group", "Z/4", schema="shift")
    assert out == (
        '{"classes":[[1],[1],[1],[1]],"group":"Z/4",'
        '"groups":["Z/2","Z/2","Z/2","Z/2"],"input_multiple":1,"w":"w"}\n'
    )


def test_shift_rejects_odd_order_twist():
    code, out = run_cli("shift", "--group", "Z/3", "--w", "w")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


# ---------------------------------------------------------------------------
# fibered


def test_fibered_worked_example():
    payload, out = run_json(
        "fibered", "--relator", "aaaBAAAbbaaababb", "--phi", "a=-1,b=1",
        schema="fibered",
    )
    assert out == '{"fibered":true,"max":1,"max_index":9,"min":-4,"min_index":4}\n'


def test_fibered_negative_case_carries_reason():
    payload, _ = run_json(
        "fibered", "--relator", "abab", "--phi", "a=-1,b=1", schema="fibered",
    )
    assert payload["fibered"] is False
    assert "minimum" in payload["reason"]


def test_fibered_rejects_character_not_killing_relator():
    code, out = run_cli("fibered", "--relator", "ab", "--phi", "a=1,b=1")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


def test_fibered_rejects_malformed_phi():
    assert run_cli("fibered", "--relator", "abAB", "--phi", "a=1")[0] == 2
    assert run_cli("fibered", "--relator", "abAB", "--phi", "a=x,b=1")[0] == 2


# ---------------------------------------------------------------------------
# abelianization / integral-lift


M313 = "<a,b|aaaBAAAbbaaababb,aaabAAbbaaaBABAAAB>"


def test_abelianization_worked_example():
    payload, out = run_json(
        "abelianization", "--presentation", M313, schema="abelianization",
    )
    assert out == (
        '{"abelianization":"Z + Z/4",'
        '"presentation":"<a,b|aaaBAAAbbaaababb,aaabAAbbaaaBABAAAB>"}\n'
    )


def test_integral_lift_pinned_table():
    expected = {"a=0,b=1": False, "a=1,b=0": False, "a=1,b=1": True, "a=0,b=0": True}
    for w1, exists in expected.items():
        payload, _ = run_json(
            "integral-lift", "--presentation", M313, "--w1", w1,
            schema="integral_lift",
        )
        assert payload["lift_exists"] is exists, w1


def test_integral_lift_output_bytes():
    _, out = run_json(
        "integral-lift", "--presentation", M313, "--w1", "a=0,b=1",
        schema="integral_lift",
    )
    assert out == '{"lift_exists":false,"w1":{"a":0,"b":1}}\n'


def test_integral_lift_rejects_non_bits():
    assert run_cli("integral-lift", "--presentation", M313, "--w1", "a=2,b=0")[0] == 2


def test_abelianization_rejects_bad_presentation():
    code, out = run_cli("abelianization", "--presentation", "<a,c|ab>")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))
    # refused at the alphabet check, before "xX" could cancel
    payload, _ = run_json("abelianization", "--presentation", "<a,b|xX>", schema="error", expect_code=2)
    assert payload["error"] == "invalid word character 'x'"


# ---------------------------------------------------------------------------
# chain-verify


def test_chain_verify_worked_example():
    payload, out = run_json(
        "chain-verify", "--source", "6", "--target", "2", schema="chain_verify",
    )
    assert out == (
        '{"augmentation":3,"candidate":[3,0,0,0],"exists":true,"index":3,'
        '"source_k":6,"target_k":2,"witness":[3,0,0,0]}\n'
    )


def test_chain_verify_rejects_even_index():
    code, out = run_cli("chain-verify", "--source", "4", "--target", "2")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


@pytest.mark.parametrize("source, target", [("-2", "1"), ("0", "0")])
def test_chain_verify_rejects_source_or_target_below_one(source, target):
    payload, _ = run_json("chain-verify", "--source", source, "--target", target, schema="error", expect_code=2)
    assert payload["error"] == "source and target must be >= 1"


# ---------------------------------------------------------------------------
# dispatcher behaviour


def test_help_exits_zero():
    code, out = run_cli("--help")
    assert code == 0
    assert "usage" in out.lower()


def test_missing_subcommand_exits_2():
    code, out = run_cli()
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


def test_unknown_subcommand_exits_2():
    code, out = run_cli("frobnicate")
    assert code == 2
    Draft7Validator(load_schema("error")).validate(json.loads(out))


def test_bad_group_string_exits_2():
    code, out = run_cli("homology", "--group", "Q8", "--degree", "2")
    assert code == 2
    assert "Q8" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("homology", "--group=--", "--degree", "2"),
        ("shift", "--group=--"),
        ("abelianization", "--presentation=--"),
        ("fibered", "--relator=--", "--phi", "a=1,b=1"),
        ("order-graph", "--max-exp=--"),
        ("leq", "x.json", "--", "--"),  # argparse gave the positional b the second `--` as []
    ],
    ids=lambda a: a[0],
)
def test_an_option_given_as_double_dash_exits_2(argv):
    payload, _ = run_json(*argv, schema="error", expect_code=2)
    assert payload["error"].endswith("expected one argument, not '--'")


def test_negative_numbers_are_read_as_argparse_reads_them():
    # every `-` word of up to five characters over digits (ASCII, Arabic-Indic,
    # fullwidth, and a superscript and a numeral that are not decimal), dots,
    # newlines and a few other characters
    pattern = re.compile(r"^-\d+$|^-\d*\.\d+$")
    alphabet = ["0", "7", "٣", "１", "²", "Ⅷ", ".", "\n", "a", " ", "e", "-"]
    for n in range(6):
        for chars in itertools.product(alphabet, repeat=n):
            tok = "-" + "".join(chars)
            assert cli._negative_number(tok) == bool(pattern.match(tok)), repr(tok)


JSON_INVOCATIONS = [
    ("homology", "--group", "Z/8", "--twist", "w", "--coeff", "Z", "--degree", "4"),
    ("sq2w", "--group", "Z4", "--w2", "e12+e34"),
    ("realizable", "--group", "Z/8", "--w1", "1", "--w2", "1"),
    ("order-graph", "--max-exp", "2", "--combined", "--format", "json"),
    ("model-cohomology", "--k", "4", "--coeff", "Z"),
    ("shift", "--group", "Z/8", "--seed", "3"),
    ("fibered", "--relator", "aaaBAAAbbaaababb", "--phi", "a=-1,b=1"),
    ("abelianization", "--presentation", M313),
    ("integral-lift", "--presentation", M313, "--w1", "a=1,b=1"),
    ("chain-verify", "--source", "10", "--target", "2"),
]


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: a[0])
def test_json_output_is_byte_deterministic(argv):
    code1, out1 = run_cli(*argv)
    code2, out2 = run_cli(*argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert out1.endswith("\n")
    json.loads(out1)  # single well-formed JSON document


def test_dot_output_is_byte_deterministic():
    argv = ("order-graph", "--max-exp", "2", "--combined")
    assert run_cli(*argv) == run_cli(*argv)


# ---------------------------------------------------------------------------
# one option table per process


def test_reused_parser_leaks_no_state(tmp_path):
    """`run` reuses one parser, so an argv must answer the same whatever ran
    before it.  The list covers every subcommand, an invalid choice, a
    missing required option, a bad `type=` value and `--help`; it runs
    forward and then reversed in one process."""
    a = payload_file(tmp_path, "a.json", M2)
    b = payload_file(tmp_path, "b.json", CP2)
    argvs = [
        *JSON_INVOCATIONS,
        ("leq", a, b),
        ("order-graph", "--max-exp", "2"),
        ("homology", "--group", "Z/8", "--twist", "x", "--degree", "1"),
        ("model-cohomology", "--k", "3"),
        ("chain-verify", "--source", "ten", "--target", "2"),
        ("--help",),
        ("shift", "--help"),
        ("frobnicate",),
        (),
    ]
    first = {argv: run_cli(*argv) for argv in argvs}
    assert [first[argv][0] for argv in argvs] == [0] * 12 + [2, 2, 2, 0, 0, 2, 2]
    for argv in reversed(argvs):
        assert run_cli(*argv) == first[argv], argv


def test_a_default_holds_after_a_call_that_overrode_it():
    payload, _ = run_json("shift", "--group", "Z/8", "--c", "3", schema="shift")
    assert payload["input_multiple"] == 3
    payload, _ = run_json("shift", "--group", "Z/8", schema="shift")
    assert payload["input_multiple"] == 1

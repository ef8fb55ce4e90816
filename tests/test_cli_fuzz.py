"""Property test of the command-line contract over every subcommand.

Hypothesis draws argument lists for each subcommand from small values
inside the budgets, values past them and malformed text.  Whatever it
draws, `cli.run` must return 0, 2 or 3 without raising and without
writing to stderr; stdout must validate against the subcommand's schema
on exit 0, against the `error` schema on exit 2, and against the
undetermined verdict on exit 3, and a `leq` payload that is not JSON or
fails the shipped `immersion_type` schema must exit 2.  The inputs stay
small, so the budgets, not a clock, keep every case fast.  A third test
draws argv from the words of the option table and checks that the parse
agrees with the argparse parser kept in `tests/oracles.py`, apart from the
text of a refusal when a flag other than -h or --help comes first.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft7Validator

from immorder import cli
from oracles import reference_parse

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def validator(name: str) -> Draft7Validator:
    return Draft7Validator(json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text()))


class Payload(str):
    """Text for a `leq` payload file; the test writes it and passes its path."""


def ints(lo: int, hi: int, over: int) -> tuple[st.SearchStrategy[str], st.SearchStrategy[str]]:
    """Integer text in lo..hi, and text past the budget (hi < x <= over),
    negative or not an integer."""
    bad = st.one_of(
        st.integers(hi + 1, over).map(str),
        st.integers(-10**6, -1).map(str),
        st.sampled_from(["", "x", "1.5", "2e3", "--", "0x10"]),
    )
    return st.integers(lo, hi).map(str), bad


def pick(good: list[str], bad: list[str]) -> tuple[st.SearchStrategy[str], st.SearchStrategy[str]]:
    return st.sampled_from(good), st.sampled_from(bad)


junk = st.text(alphabet="aAbBZ/|<>,=-0129 tx", max_size=12)
cyclic = st.integers(1, 12).map(lambda n: f"Z/{n}")
groups = (
    st.one_of(st.sampled_from(["trivial", "1", "Z", "Z4"]), cyclic),
    st.one_of(st.integers(cli.MAX_CYCLIC_ORDER + 1, 10**12).map(lambda n: f"Z/{n}"), junk),
)
words = st.text(alphabet="aAbB", min_size=1, max_size=10)
# one letter past the budget on the text of --relator and --presentation
long_word = "ab" * (cli.MAX_WORD_TEXT // 2) + "a"


def _balance(word: str) -> str:
    """Append a^-1 or a until the character a=1, b=1 kills the word."""
    total = sum(1 if x in "ab" else -1 for x in word)
    return word + ("A" if total > 0 else "a") * abs(total)


# killed by a=1, b=1, so some draws get past the fibering checks
balanced = words.map(_balance)
presentations = (
    st.lists(words, min_size=1, max_size=3).map(lambda rs: "<a,b|" + ",".join(rs) + ">"),
    st.one_of(junk, st.just(f"<a,b|{long_word}>")),
)


def assignments(lo: int, hi: int) -> tuple[st.SearchStrategy[str], st.SearchStrategy[str]]:
    good = st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda ab: f"a={ab[0]},b={ab[1]}")
    return good, junk


def command(name: str, *options) -> st.SearchStrategy[list[str]]:
    """Argument lists for one subcommand: either every option with a good
    value, or each option absent, good or bad.  An option is
    (flag, (good values, bad values))."""

    def flatten(parts):
        return [name, *(x for part in parts for x in part)]

    every = st.tuples(*(good.map(lambda v, f=flag: [f, v]) for flag, (good, _) in options))
    noisy = st.tuples(
        *(st.one_of(st.just([]), st.one_of(good, bad).map(lambda v, f=flag: [f, v])) for flag, (good, bad) in options)
    )
    return st.one_of(every, noisy).map(flatten)


good_types = st.one_of(
    st.fixed_dictionaries({"group": st.just("trivial"), "w2": st.sampled_from(["0", "inf"])}),
    st.fixed_dictionaries(
        {
            "group": st.just("cyclic"),
            "n": st.sampled_from([2, 3, 4, 6, 8, 16]),
            "w1": st.sampled_from([0, 1]),
            "w2": st.sampled_from(["0", "1", "inf"]),
        }
    ),
    st.fixed_dictionaries({"group": st.just("Z"), "w1": st.sampled_from([0, 1]), "w2": st.sampled_from(["0", "inf"])}),
    st.fixed_dictionaries({"group": st.just("Z4"), "w2": st.sampled_from(["0", "e12", "e12+e34", "inf"])}),
).flatmap(lambda d: st.integers(-40, 40).map(lambda c: {**d, "c": c}))
# wrongly typed or out-of-range values, one of which replaces a key of a
# good payload
BAD_TYPE_VALUES = {
    "group": ["Q8", 4, None, True],
    "n": ["8", 2.5, 8.0, True, 0, -4, None, cli.MAX_CYCLIC_ORDER + 2],
    "w1": [2, "1", True, 1.0, None],
    "w2": ["s", 1, None, ["1"]],
    "c": ["x", 1e300, 2.5, False, None],
}
bad_types = st.tuples(good_types, st.sampled_from(sorted(BAD_TYPE_VALUES))).flatmap(
    lambda dk: st.sampled_from(BAD_TYPE_VALUES[dk[1]]).map(lambda v: {**dk[0], dk[1]: v})
)
type_payloads = st.one_of(
    good_types.map(json.dumps),
    bad_types.map(json.dumps),
    st.sampled_from(["", "{not json", "[1]", "null", '{"n": 4}', '{"group": "cyclic", "bogus": 1}']),
).map(Payload)

invocations = st.one_of(
    command(
        "homology",
        ("--group", groups),
        ("--twist", pick(["0", "w"], ["x"])),
        ("--coeff", pick(["Z", "Z2"], ["Q"])),
        ("--degree", ints(0, 8, 10**12)),
    ),
    command(
        "sq2w",
        ("--group", groups),
        ("--w1", pick(["0", "t"], ["x"])),
        ("--w2", pick(["0", "s", "e12", "e12+e34"], ["x"])),
        ("--degree", ints(2, 2, 10**6)),
    ),
    command(
        "realizable",
        ("--group", groups),
        ("--w1", pick(["0", "1"], ["2", "x"])),
        ("--w2", pick(["0", "1", "inf", "e12", "e12+e34"], ["x"])),
    ),
    st.tuples(type_payloads, type_payloads).map(lambda ab: ["leq", *ab]),
    command(
        "order-graph",
        ("--family", pick(["cyclic"], ["dihedral"])),
        ("--max-exp", ints(1, 4, 10**9)),
        ("--format", pick(["dot", "json"], ["svg"])),
    ).flatmap(lambda argv: st.sampled_from([argv, [*argv, "--combined"]])),
    command("model-cohomology", ("--k", ints(1, 6, 10**9)), ("--coeff", pick(["Z", "Z2", "ZZ2w"], ["Q"]))),
    command(
        "shift",
        ("--group", (cyclic, groups[1])),
        ("--w", pick(["0", "w"], ["x"])),
        ("--c", ints(-9, 9, 10**30)),
        ("--seed", ints(0, 5, 10**9)),
    ),
    command(
        "fibered",
        ("--relator", (balanced, st.one_of(words, junk, st.just(long_word)))),
        ("--phi", (st.one_of(st.just("a=1,b=1"), assignments(-2, 2)[0]), junk)),
    ),
    command("abelianization", ("--presentation", presentations)),
    command("integral-lift", ("--presentation", presentations), ("--w1", assignments(0, 1))),
    command("chain-verify", ("--source", ints(1, 20, 10**9)), ("--target", ints(1, 6, 10**9))),
    st.lists(junk, max_size=3),
)

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


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, arg in enumerate(argv):
            if isinstance(arg, Payload):
                path = Path(tmp) / f"payload{i}.json"
                path.write_text(arg)
                arg = str(path)
            args.append(arg)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(args)
    return code, out.getvalue(), err.getvalue()


def _fits_type_schema(text: str) -> bool:
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    return validator("immersion_type").is_valid(payload)


@settings(max_examples=400, deadline=None)
@given(invocations)
def test_every_invocation_exits_0_2_or_3_with_schema_valid_stdout(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, out)
    assert err == "", (argv, err)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "dot"
    if code == 0 and argv[0] == "order-graph" and fmt == "dot":
        assert out.startswith("digraph immersion_order {\n") and out.endswith("}\n"), (argv, out)
        return
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    payload = json.loads(out)
    if code == 2:
        validator("error").validate(payload)
    elif code == 3:
        validator("leq").validate(payload)
        assert payload["answer"] == "undetermined"
    else:
        validator(SCHEMAS[argv[0]]).validate(payload)


@settings(max_examples=200, deadline=None)
@given(type_payloads, type_payloads)
def test_leq_payload_outside_the_type_schema_exits_2(a, b):
    code, out, err = _run(["leq", a, b])
    assert err == "", (a, b, err)
    if not (_fits_type_schema(a) and _fits_type_schema(b)):
        assert code == 2, (a, b, out)
        validator("error").validate(json.loads(out))


# ---------------------------------------------------------------------------
# the parse against the argparse reference

HELP_WORDS = ["-h", "--help", "--he", "-hh", "-hx", "--help=x", "-h="]
VALUE_WORDS = [
    "0", "1", "2", "w", "Z", "Z2", "Q", "x", "Z/8", "two", "", " 2 ", "1.5", "0x10", "1_0", "+3",
    "-3", "-0", "-1.5", "-.5", "-1e3", "-a", "-", "--", "--x", "-a b", "a=1,b=1", "extra",
]


def flag_spellings(flags: list[str]) -> list[str]:
    """Each long flag, and every shorter prefix of it past `--`: unique
    ones name their flag, the others are ambiguous."""
    return sorted({flag[:k] for flag in flags if flag.startswith("--") for k in range(3, len(flag) + 1)})


def subcommand_argv(name: str) -> st.SearchStrategy[list[str]]:
    spellings = flag_spellings(list(cli._FLAGS[name]))
    values = st.one_of(st.sampled_from(VALUE_WORDS), st.integers(-5, 5).map(str))
    option = st.one_of(
        st.tuples(st.sampled_from(spellings), values).map(list),  # --flag value
        st.tuples(st.sampled_from(spellings), values).map(lambda fv: [f"{fv[0]}={fv[1]}"]),  # --flag=value
        st.sampled_from(spellings).map(lambda f: [f]),  # a flag whose value is missing, or a switch
    )
    loose = st.sampled_from(VALUE_WORDS + ["x.json", "-"]).map(lambda v: [v])  # a positional or an extra token
    return st.lists(st.one_of(option, option, loose), max_size=6).map(lambda parts: [name, *(t for p in parts for t in p)])


parse_argvs = st.tuples(
    st.lists(st.sampled_from(["--foo", "-x", "-3", "--", "--he"]), max_size=1),  # before the subcommand
    st.one_of(*(subcommand_argv(name) for name in cli._COMMANDS), st.sampled_from([[], ["frobnicate"], ["Homology"], [""]])),
).map(lambda parts: parts[0] + parts[1]).flatmap(
    lambda argv: st.one_of(
        st.just(argv),
        st.tuples(st.integers(0, len(argv)), st.sampled_from(HELP_WORDS)).map(lambda ih: [*argv[: ih[0]], ih[1], *argv[ih[0] :]]),
    )
)


def new_parse(argv: list[str]) -> tuple:
    """The outcome of `cli._parse` in the form of `reference_parse`."""
    try:
        handler, args = cli._parse(argv)
    except cli._CliInput as e:
        return ("error", str(e))
    return ("help",) if handler is cli._help else ("ok", handler, vars(args))


def typed(outcome: tuple) -> tuple:
    """Values as (type name, value), so True and 1 stay apart."""
    if outcome[0] != "ok":
        return outcome
    return (*outcome[:2], sorted((k, type(v).__name__, v) for k, v in outcome[2].items()))


@settings(max_examples=600, deadline=None)
@given(parse_argvs)
@example(["homology", "--gr", "Z/8", "--deg", "2"])
@example(["sq2w", "--group", "Z/4", "--w", "0"])
@example(["homology", "--group=Z/8", "--degree=2"])
@example(["homology", "--group", "Z/8", "--degree", "2", "extra"])
@example(["shift", "--group", "Z/8", "--c", "-3"])
@example(["fibered", "--relator", "-a", "--phi", "a=1,b=1"])
@example(["homology", "--group", "Z/8", "--group", "Z/4", "--degree", "2"])
@example(["homology", "--degree"])
@example(["leq", "-"])
@example(["homology", "--group", "Z/8", "--degree", " 2 "])
@example(["Homology"])
@example(["leq", "x.json", "y.json", "--"])
@example(["fibered", "--relator", "ab" * (cli.MAX_WORD_TEXT // 2) + "a", "--phi", "a=1,b=1"])
@example(["homology", "--group=--", "--degree", "2"])
@example(["shift", "--group=--"])
@example(["abelianization", "--presentation=--"])
@example(["leq", "x.json", "--", "--"])
def test_cli_parse_matches_the_argparse_reference(argv):
    with redirect_stdout(io.StringIO()):
        expected = reference_parse(list(argv))
        got = new_parse(list(argv))
    if got[0] == "error" and got[1].endswith("expected one argument, not '--'"):
        # the two differences: argparse keeps `--flag=--`, and a second `--` read
        # as a positional's value, as an empty list, which no handler reads, and
        # the parse refuses either where it meets it
        flag = got[1].split()[1].rstrip(":")
        if flag.startswith("-"):
            assert any(tok.endswith("=--") and flag.startswith(tok[:-3]) for tok in argv), argv
        else:
            assert argv[1:].count("--") >= 2, argv
            assert expected[0] == "error" or expected[2][flag] == [], (argv, expected)
    elif argv and argv[0] not in cli._COMMANDS and argv[0][:1] == "-":
        # before the subcommand only a first -h or --help is read; any other flag is refused
        assert got[0] == "error" or typed(got) == typed(expected), argv
    else:
        assert typed(got) == typed(expected), argv

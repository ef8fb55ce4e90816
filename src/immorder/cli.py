"""Command-line front end: every computation behind one option table and one dispatcher.

JSON outputs are byte-deterministic (sorted keys, compact separators,
one trailing newline) and validate against the schemas shipped under
``immorder/schemas``.  Exit codes: 0 on success; 2 on invalid input,
with a machine-readable ``{"error": ...}`` object; 3 when a comparison
falls outside the packaged decision rules, with an
``{"answer": "undetermined", "reason": ...}`` object.

Budgets: each subcommand states the sizes it accepts in its own
``--help`` (``immorder shift --help``); inputs past a budget exit 2 with
the reason.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import cohomology, fibering, james, order, postnikov
from .intalg import FgAbelianGroup
from .order import ImmersionType, UndecidablePair, UndeterminedComparison


# Input budgets, stated in each subcommand's `--help` and in the README
# table, which a test checks against these constants.  Every computation on
# Z/n is O(n) in the group ring, so one order budget covers every cyclic
# group: the Z/n of `--group`, `shift` and `leq`, the Z/2^k of
# `model-cohomology` and `order-graph`, and the Z/2k of `chain-verify`,
# whose target divides its source.  Any degree is read on a window of the
# periodic resolution, so time does not set the degree budget; free-word
# work is linear in the length of the text.
MAX_CYCLIC_ORDER = 100_000
MAX_DEGREE = 10**18
MAX_WORD_TEXT = 1_000_000
_GROUP_HELP = f"trivial, Z, Z4 or Z/n with n <= {MAX_CYCLIC_ORDER}"
_WORD_HELP = f"at most {MAX_WORD_TEXT} characters"


class _CliInput(ValueError):
    """Invalid command-line input (maps to exit code 2)."""


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_group(text: str) -> tuple[str, int | None]:
    """Accepts trivial | Z | Z4 | Z/n with 1 <= n <= MAX_CYCLIC_ORDER."""
    t = text.strip()
    if t in ("trivial", "1"):
        return "trivial", None
    if t == "Z":
        return "Z", None
    if t == "Z4":
        return "Z4", None
    if t.startswith("Z/"):
        try:
            n = int(t[2:])
        except ValueError:
            raise _CliInput(f"bad cyclic order in group {text!r}") from None
        if n < 1:
            raise _CliInput("cyclic order must be >= 1")
        if n > MAX_CYCLIC_ORDER:
            raise _CliInput(f"cyclic order {n} exceeds the budget of {MAX_CYCLIC_ORDER}")
        return "cyclic", n
    raise _CliInput(f"unknown group {text!r}; use trivial, Z/n, Z, or Z4")


def _check_two_power_order(k: int) -> None:
    """Refuses Z/2^k past the cyclic order budget."""
    if k > MAX_CYCLIC_ORDER.bit_length() - 1:
        raise _CliInput(f"group order 2^{k} exceeds the budget of {MAX_CYCLIC_ORDER}")


def _twist_bit(text: str) -> int:
    if text == "0":
        return 0
    if text == "w":
        return 1
    raise _CliInput("twist must be 0 or w")


def _parse_assignment(text: str, cast) -> dict[str, int]:
    """Parse `a=VAL,b=VAL` into a dict."""
    out: dict[str, int] = {}
    for piece in text.split(","):
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq or key not in ("a", "b") or key in out:
            raise _CliInput(f"bad assignment {text!r}; expected a=VALUE,b=VALUE")
        try:
            out[key] = cast(val.strip())
        except ValueError:
            raise _CliInput(f"bad integer in assignment {text!r}") from None
    if set(out) != {"a", "b"}:
        raise _CliInput(f"assignment {text!r} must set both a and b")
    return out


def _read_payload(arg: str, stdin_used: list[bool]):
    if arg == "-":
        if stdin_used[0]:
            raise _CliInput("stdin (-) may supply at most one payload")
        stdin_used[0] = True
        return json.load(sys.stdin)
    return json.loads(Path(arg).read_text())


def _word_text(text: str) -> str:
    if len(text) > MAX_WORD_TEXT:
        raise _CliInput(f"text of {len(text)} characters exceeds the budget of {MAX_WORD_TEXT}")
    return text


def _type_from_payload(payload) -> ImmersionType:
    """Check a payload against the shipped `immersion_type` schema and build the type."""
    if not isinstance(payload, dict):
        raise _CliInput("immersion-type payload must be a JSON object")
    unknown = set(payload) - {"group", "n", "w1", "w2", "c"}
    if unknown:
        raise _CliInput(f"unknown immersion-type keys {sorted(unknown)}")
    if payload.get("group") not in order.GROUPS:
        raise _CliInput(f"immersion-type payload needs a 'group', one of {', '.join(order.GROUPS)}")
    for key, kind in (("n", int), ("w1", int), ("w2", str), ("c", int)):  # type() refuses bool and float
        if key in payload and type(payload[key]) is not kind:
            raise _CliInput(f"immersion-type {key!r} must be {'a string' if kind is str else 'an integer'}")
    if not 1 <= payload.get("n", 1) <= MAX_CYCLIC_ORDER:
        raise _CliInput(f"immersion-type 'n' = {payload['n']} is below 1 or exceeds the budget of {MAX_CYCLIC_ORDER}")
    if payload.get("w1", 0) not in (0, 1):
        raise _CliInput("immersion-type 'w1' must be 0 or 1")
    return ImmersionType(**payload)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_homology(args) -> int:
    family, n = _parse_group(args.group)
    w = _twist_bit(args.twist)
    if args.degree < 0:
        raise _CliInput("degree must be >= 0")
    if args.degree > MAX_DEGREE:
        raise _CliInput(f"degree {args.degree} exceeds the budget of {MAX_DEGREE}")
    if family == "cyclic":
        # the twist exists only for even orders; -1 = 1 mod 2, so it leaves
        # Z/2 coefficients unchanged
        if w and n % 2:
            raise _CliInput("orientation twist requires an even group order")
        name = ("Zw" if w else "Z") if args.coeff == "Z" else "Z2"
        group = cohomology.cyclic_homology(n, name, args.degree).group
    elif family == "Z4":
        if w:
            raise _CliInput("the rank-4 free-abelian group supports twist 0 only")
        rank = math.comb(4, args.degree) if args.degree <= 4 else 0
        group = FgAbelianGroup.free(rank) if args.coeff == "Z" else FgAbelianGroup(0, (2,) * rank)
    else:
        raise _CliInput("homology supports groups Z/n and Z4")
    _emit(
        {
            "group": args.group,
            "twist": args.twist,
            "coeff": args.coeff,
            "degree": args.degree,
            "result": str(group),
        }
    )
    return 0


def _cmd_sq2w(args) -> int:
    family, n = _parse_group(args.group)
    if args.degree != 2:
        raise _CliInput("only degree 2 is supported")
    values = []
    if family == "cyclic":
        if args.w1 not in ("0", "t"):
            raise _CliInput("cyclic w1 must be 0 or t")
        if args.w2 not in ("0", "s"):
            raise _CliInput("cyclic w2 must be 0 or s")
        w1 = cohomology.cyclic_generator(n, 1) if args.w1 == "t" else cohomology.cyclic_zero(n, 1)
        w2 = cohomology.cyclic_generator(n, 2) if args.w2 == "s" else cohomology.cyclic_zero(n, 2)
        x = cohomology.cyclic_generator(n, 2)
        out = cohomology.sq2_w(w1, w2, x)
        values.append({"x": x.pretty(), "value": out.pretty()})
    elif family == "Z4":
        if args.w1 != "0":
            raise _CliInput("the rank-4 free-abelian group has w1 = 0 only")
        try:
            w2 = james._w2_class_z4(args.w2)
        except ValueError:
            raise _CliInput("w2 must be one of 0, e12, e12+e34") from None
        w1 = cohomology.z4_class(1, [])
        for mono in cohomology.z4_monomials(2):
            x = cohomology.z4_class(2, [mono])
            out = cohomology.sq2_w(w1, w2, x)
            values.append({"x": x.pretty(), "value": out.pretty()})
    else:
        raise _CliInput("sq2w supports groups Z/n and Z4")
    _emit(
        {
            "group": args.group,
            "w1": args.w1,
            "w2": args.w2,
            "degree": 2,
            "values": values,
        }
    )
    return 0


def _cmd_realizable(args) -> int:
    family, n = _parse_group(args.group)
    r = james.realizable_classes(family, n, args.w1, args.w2)
    _emit(
        {
            "group": args.group,
            "w1": args.w1,
            "w2": args.w2,
            "ambient": str(r.ambient),
            "kind": "Determined" if r.determined else "UpperBound",
            "subgroup": r.subgroup.pretty(),
            "generator": r.subgroup.generator,
            "modulus": r.subgroup.modulus,
        }
    )
    return 0


def _cmd_leq(args) -> int:
    stdin_used = [False]
    a = _type_from_payload(_read_payload(args.a, stdin_used))
    b = _type_from_payload(_read_payload(args.b, stdin_used))
    verdict = order.leq(a, b)
    if verdict.answer is None:
        raise UndeterminedComparison(verdict.reason)
    _emit({"answer": verdict.answer, "trace": list(verdict.trace)})
    return 0


def _cmd_order_graph(args) -> int:
    if args.family != "cyclic":
        raise _CliInput("only the cyclic family is available")
    if args.max_exp < 1:
        raise _CliInput("max-exp must be >= 1")
    _check_two_power_order(args.max_exp)
    graph = order.order_graph(order.cyclic_family(args.max_exp, combined=args.combined))
    if args.format == "dot":
        sys.stdout.write(order.emit_dot(graph))
    else:
        _emit(
            {
                "nodes": [
                    {"name": order.node_name(t), "label": order.node_label(t)}
                    for t in graph.nodes
                ],
                "edges": [[a, b] for a, b in graph.edges],
            }
        )
    return 0


def _cmd_model_cohomology(args) -> int:
    # the model complex lives over Z/2^k
    _check_two_power_order(args.k)
    group = postnikov.model_cohomology(args.k, args.coeff)
    _emit({"k": args.k, "coeff": args.coeff, "group": str(group)})
    return 0


def _cmd_shift(args) -> int:
    family, n = _parse_group(args.group)
    if family != "cyclic":
        raise _CliInput("shift expects a cyclic group Z/n")
    r = postnikov.shift(n, _twist_bit(args.w), args.c, seed=args.seed)
    _emit(
        {
            "group": args.group,
            "w": args.w,
            "input_multiple": args.c,
            "groups": [str(g) for g in r.groups],
            "classes": [list(c) for c in r.classes],
        }
    )
    return 0


def _cmd_fibered(args) -> int:
    phi_vals = _parse_assignment(args.phi, int)
    relator = fibering.parse_word(args.relator)
    verdict = fibering.brown_fibered(relator, fibering.ZMap(phi_vals["a"], phi_vals["b"]))
    out = {
        "fibered": verdict.fibered,
        "min_index": verdict.min_index,
        "min": verdict.min_value,
        "max_index": verdict.max_index,
        "max": verdict.max_value,
    }
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    _emit(out)
    return 0


def _cmd_abelianization(args) -> int:
    p = fibering.Presentation.parse(args.presentation)
    _emit({"presentation": str(p), "abelianization": str(fibering.abelianization(p))})
    return 0


def _cmd_integral_lift(args) -> int:
    p = fibering.Presentation.parse(args.presentation)
    w1 = _parse_assignment(args.w1, int)
    if not set(w1.values()) <= {0, 1}:
        raise _CliInput("w1 values must be bits")
    exists = fibering.integral_lift_exists(p, w1["a"], w1["b"])
    _emit({"lift_exists": exists, "w1": {"a": w1["a"], "b": w1["b"]}})
    return 0


def _cmd_chain_verify(args) -> int:
    # the models live over Z/2k; the target divides the source, or
    # verify_projection_diagram refuses it before building a model
    if 2 * args.source > MAX_CYCLIC_ORDER:
        raise _CliInput(f"source group order {2 * args.source} exceeds the budget of {MAX_CYCLIC_ORDER}")
    d = postnikov.verify_projection_diagram(args.source, args.target)
    _emit(
        {
            "source_k": d.source_k,
            "target_k": d.target_k,
            "index": d.index,
            "exists": d.exists,
            "witness": list(d.witness.coeffs) if d.witness is not None else None,
            "augmentation": d.witness.augmentation() if d.witness is not None else None,
            "candidate": list(d.candidate.coeffs),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# option table and parser


# An option of a subcommand, or a positional when its flag has no dashes.  The
# type converts its text; bool marks a switch, which takes none.
_Option = namedtuple("_Option", "flag type default choices required help", defaults=(str, None, (), False, ""))
_HELP = _Option("-h/--help", bool, help="show this help message and exit")
# subcommand -> (handler, help, options), in the order of the help listing
_COMMANDS = {
    "homology": (_cmd_homology, "twisted homology of a supported group", (
        _Option("--group", required=True, help=_GROUP_HELP),
        _Option("--twist", default="0", choices=("0", "w")),
        _Option("--coeff", default="Z", choices=("Z", "Z2")),
        _Option("--degree", int, required=True, help=f"0 <= degree <= {MAX_DEGREE}"))),
    "sq2w": (_cmd_sq2w, "twisted square on degree-2 classes", (
        _Option("--group", required=True, help=_GROUP_HELP),
        _Option("--w1", default="0"),
        _Option("--w2", default="0"),
        _Option("--degree", int, default=2))),
    "realizable": (_cmd_realizable, "realizable fundamental classes", (
        _Option("--group", required=True, help=_GROUP_HELP),
        _Option("--w1", int, default=0, choices=(0, 1)),
        _Option("--w2", default="0"))),
    "leq": (_cmd_leq, "decide immersion partial order between two types", (
        _Option("a", required=True, help="JSON file for the source type, or - for stdin"),
        _Option("b", required=True, help="JSON file for the target type, or - for stdin"))),
    "order-graph": (_cmd_order_graph, "Hasse diagram of a family of types", (
        _Option("--family", default="cyclic"),
        _Option("--max-exp", int, required=True, help=f"orders up to 2^max-exp <= {MAX_CYCLIC_ORDER}; max-exp >= 1"),
        _Option("--combined", bool, default=False),
        _Option("--format", default="dot", choices=("dot", "json")))),
    "model-cohomology": (_cmd_model_cohomology, "degree-2 cohomology of the chain model", (
        _Option("--k", int, required=True, help=f"the group is Z/2^k; 2^k <= {MAX_CYCLIC_ORDER}"),
        _Option("--coeff", required=True, choices=("Z", "Z2", "ZZ2w")))),
    "shift": (_cmd_shift, "composite connecting homomorphism on H_4", (
        _Option("--group", required=True, help=f"Z/n with n <= {MAX_CYCLIC_ORDER}"),
        _Option("--w", default="w", choices=("0", "w")),
        _Option("--c", int, default=1),
        _Option("--seed", int, default=0))),
    "fibered": (_cmd_fibered, "unique-extrema fibering criterion", (
        _Option("--relator", _word_text, required=True, help=_WORD_HELP),
        _Option("--phi", required=True, help="a=INT,b=INT"))),
    "abelianization": (_cmd_abelianization, "abelianization of a presentation", (
        _Option("--presentation", _word_text, required=True, help=_WORD_HELP),)),
    "integral-lift": (_cmd_integral_lift, "integral lift of a mod-2 character", (
        _Option("--presentation", _word_text, required=True, help=_WORD_HELP),
        _Option("--w1", required=True, help="a=BIT,b=BIT"))),
    "chain-verify": (_cmd_chain_verify, "projection diagram between chain models", (
        _Option("--source", int, required=True, help=f"k of the source group Z/2k; k >= 1 and 2k <= {MAX_CYCLIC_ORDER}"),
        _Option("--target", int, required=True, help="k of the target group Z/2k; k >= 1 and the source is an odd multiple of k"))),
}
# the flags of each subcommand, -h and --help first: an ambiguous prefix lists its matches in this order
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}
_FLAGS = {name: _TOP_FLAGS | {o.flag: o for o in c[2] if o.flag[0] == "-"} for name, c in _COMMANDS.items()}


def _negative_number(tok: str) -> bool:
    r"""Whether `-`-led tok matches argparse's `^-\d+$|^-\d*\.\d+$`, read without
    compiling it (about 0.2 ms, paid by the first such argv of a process): a
    digit is a Unicode decimal digit, and `$` also matches before one final newline."""
    body = tok[1:-1] if tok[-1:] == "\n" else tok[1:]
    whole, dot, frac = body.partition(".")
    return frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _classify(tok: str, flags: dict[str, _Option]):
    """None for a value, else (the option, None for an unknown flag; its flag;
    the text given with it or None).  A unique prefix names its flag."""
    if tok[:1] != "-" or tok == "-":
        return None
    flag, eq, value = tok.partition("=")
    value = value if eq else None
    if flag in flags:
        return flags[flag], flag, value
    matches = [f for f in flags if f.startswith(flag)] if tok[1] == "-" else ["-h"] * (tok[1] == "h")
    if len(matches) > 1:
        raise _CliInput(f"ambiguous option: {tok} could match {', '.join(matches)}")
    if matches:  # -hX is -h given X
        return flags[matches[0]], matches[0], value if tok[1] == "-" else tok[2:]
    return None if _negative_number(tok) or " " in tok else (None, tok, None)


def _read_value(option: _Option, flag: str, value: str | None):
    """True for a switch (`-hh` is `-h -h`), else the text converted and checked against the choices."""
    if option.type is bool:
        rest = value.lstrip("h") if flag == "-h" and value else value
        if rest is not None and (rest or not value):
            raise _CliInput(f"argument {option.flag}: ignored explicit argument {rest!r}")
        return True
    if value == "--":  # argparse kept `--flag=--` as an empty list, which no handler reads
        raise _CliInput(f"argument {option.flag}: expected one argument, not '--'")
    try:
        out = option.type(value)
    except ValueError as e:  # _word_text states its budget
        reason = e if isinstance(e, _CliInput) else f"invalid {option.type.__name__} value: {value!r}"
        raise _CliInput(f"argument {option.flag}: {reason}") from None
    if option.choices and out not in option.choices:
        choices = ", ".join(map(repr, option.choices))
        raise _CliInput(f"argument {option.flag}: invalid choice: {out!r} (choose from {choices})")
    return out


def _help(name: str | None) -> int:
    """Print the usage and help of the top level (None) or of a subcommand."""
    if name is None:
        head, rows = f"[-h] COMMAND ...\n\n{__doc__}\ncommands:", [(n, c[1]) for n, c in _COMMANDS.items()]
    else:
        head, rows = f"{name} [-h] [options]\n\n{_COMMANDS[name][1]}\n\noptions:", []
        for o in (_HELP, *_COMMANDS[name][2]):
            choices = "{" + ",".join(map(str, o.choices)) + "} " if o.choices else ""
            rows.append((o.flag, "(required) " * o.required + choices + o.help))
    sys.stdout.write(f"usage: immorder {head}\n" + "".join(f"  {a:<18} {b}".rstrip() + "\n" for a, b in rows))
    return 0


def _parse(argv) -> tuple[Callable, object]:
    """(handler, arguments) for argv, or `_help` and the subcommand to describe:
    one pass against the table reads argv as argparse did, and refuses it in argparse's words."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    handler, _, options = _COMMANDS.get(name, (None, None, ()))
    # before the subcommand only -h or --help is read, and only as the first token
    flags, rest = _FLAGS.get(name, _TOP_FLAGS), argv[1:] if name else argv[:1]
    # each token before the first `--` is a flag or a value, and every one after it a value
    cut = rest.index("--") if "--" in rest else len(rest)
    hits = [_classify(tok, flags) for tok in rest[:cut]] + [None] * (len(rest) - cut)
    positionals, given, extras, i = [o for o in options if o.flag[0] != "-"], {}, [], 0
    while i < len(rest):
        tok, hit, i = rest[i], hits[i], i + 1
        if i - 1 == cut:  # a `--` not taken with the positional value before it goes with the next one
            if positionals and i < len(rest):
                given[positionals.pop(0)], i = rest[i], i + 1
            else:
                extras.append(tok)
        elif hit is None and positionals:  # argparse drops one `--` of a positional's tokens
            given[positionals.pop(0)] = [] if tok == "--" else tok
            if i == cut:  # the `--` right after the value goes with it
                i += 1
        elif hit is None or hit[0] is None:
            extras.append(tok)
        else:
            option, flag, value = hit
            if value is None and option.type is not bool:
                if i >= cut or hits[i] is not None:
                    raise _CliInput(f"argument {option.flag}: expected one argument")
                value, i = rest[i], i + 1
            given[option] = _read_value(option, flag, value)
            if option is _HELP:
                return _help, name
    if not argv:
        raise _CliInput("a subcommand is required")
    if name is None:
        raise _CliInput(f"argument command: invalid choice: {argv[0]!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    missing = [o.flag for o in options if o.required and o not in given]
    if missing:
        raise _CliInput(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _CliInput(f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**{o.flag.lstrip("-").replace("-", "_"): given.get(o, o.default) for o in options})


def run(argv) -> int:
    try:
        handler, args = _parse(argv)
        return handler(args)
    except _CliInput as e:
        _emit({"error": str(e)})
        return 2
    except (UndeterminedComparison, UndecidablePair) as e:
        _emit({"answer": "undetermined", "reason": str(e)})
        return 3
    except (ValueError, TypeError, KeyError, OSError) as e:
        _emit({"error": str(e)})
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

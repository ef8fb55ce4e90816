"""Command-line front end: every computation behind one dispatcher.

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

import argparse
import functools
import json
import math
import sys
from pathlib import Path

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _CliInput(message)


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
        raise argparse.ArgumentTypeError(f"text of {len(text)} characters exceeds the budget of {MAX_WORD_TEXT}")
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
# parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="immorder", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("homology", help="twisted homology of a supported group")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--twist", default="0", choices=["0", "w"])
    p.add_argument("--coeff", default="Z", choices=["Z", "Z2"])
    p.add_argument("--degree", type=int, required=True, help=f"0 <= degree <= {MAX_DEGREE}")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("sq2w", help="twisted square on degree-2 classes")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--w1", default="0")
    p.add_argument("--w2", default="0")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=_cmd_sq2w)

    p = sub.add_parser("realizable", help="realizable fundamental classes")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--w1", type=int, default=0, choices=[0, 1])
    p.add_argument("--w2", default="0")
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("leq", help="decide immersion partial order between two types")
    p.add_argument("a", help="JSON file for the source type, or - for stdin")
    p.add_argument("b", help="JSON file for the target type, or - for stdin")
    p.set_defaults(func=_cmd_leq)

    p = sub.add_parser("order-graph", help="Hasse diagram of a family of types")
    p.add_argument("--family", default="cyclic")
    p.add_argument("--max-exp", type=int, required=True, help=f"orders up to 2^max-exp <= {MAX_CYCLIC_ORDER}; max-exp >= 1")
    p.add_argument("--combined", action="store_true")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.set_defaults(func=_cmd_order_graph)

    p = sub.add_parser("model-cohomology", help="degree-2 cohomology of the chain model")
    p.add_argument("--k", type=int, required=True, help=f"the group is Z/2^k; 2^k <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--coeff", required=True, choices=["Z", "Z2", "ZZ2w"])
    p.set_defaults(func=_cmd_model_cohomology)

    p = sub.add_parser("shift", help="composite connecting homomorphism on H_4")
    p.add_argument("--group", required=True, help=f"Z/n with n <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--w", default="w", choices=["0", "w"])
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("fibered", help="unique-extrema fibering criterion")
    p.add_argument("--relator", required=True, type=_word_text, help=_WORD_HELP)
    p.add_argument("--phi", required=True, help="a=INT,b=INT")
    p.set_defaults(func=_cmd_fibered)

    p = sub.add_parser("abelianization", help="abelianization of a presentation")
    p.add_argument("--presentation", required=True, type=_word_text, help=_WORD_HELP)
    p.set_defaults(func=_cmd_abelianization)

    p = sub.add_parser("integral-lift", help="integral lift of a mod-2 character")
    p.add_argument("--presentation", required=True, type=_word_text, help=_WORD_HELP)
    p.add_argument("--w1", required=True, help="a=BIT,b=BIT")
    p.set_defaults(func=_cmd_integral_lift)

    p = sub.add_parser("chain-verify", help="projection diagram between chain models")
    p.add_argument("--source", type=int, required=True, help=f"k of the source group Z/2k; k >= 1 and 2k <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--target", type=int, required=True, help="k of the target group Z/2k; k >= 1 and the source is an odd multiple of k")
    p.set_defaults(func=_cmd_chain_verify)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise _CliInput("a subcommand is required")
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
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

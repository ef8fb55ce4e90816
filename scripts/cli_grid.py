#!/usr/bin/env python3
"""Run a fixed grid of CLI commands and print each exit code and stdout.

The grid covers the subcommands whose answers come from group-ring
products and `rho`: `homology` for Z/n with n 1..64, both twists, Z and
Z/2 coefficients and degrees 0..6, for Z/2, Z/6, Z/64 and Z/1000 at
degrees 20, 63 and 64, where the resolution repeats its period many
times, and for Z4, trivial and Z with both twists and coefficients;
`sq2w` for Z/1..Z/8, Z4 and trivial with every `--w1` and `--w2`
symbol and an invalid one, and at an unsupported degree;
`model-cohomology` for k 1..12 with every coefficient system; `realizable` for Z/n with n 1..64; `shift` on
the orders 8, 16, 24, 32, 40 (twist w) and 9, 10, 11, 21, 27 (twist 0);
`chain-verify` for targets 2..20 and for a source or target below 1; and the free-word subcommands on a
fixed list of words and presentations: `fibered` for every word of
length 1..4 under five characters, `abelianization` and, with each of
the four mod-2 characters, `integral-lift` for the empty presentation,
every one-relator presentation with a relator of length 1..3, every
two-relator presentation with relators of length 2, and a few longer
and malformed ones; `order-graph` for `--max-exp` -1..17, with and
without `--combined`, in both formats; and `leq` on every ordered pair
of a fixed list of type payloads, canonical, non-canonical and invalid,
which are written to a temporary directory (the command lines print
their file names only); and argv that the parser refuses: none, an
unknown subcommand, a missing required option, a non-integer `--degree`
and invalid choices.  Commands run in-process, through
`immorder.cli.run`; the whole grid takes about 0.6 s with CPython 3.11 on
a 2-core x86-64 machine.  Comparing the output of two versions byte for
byte shows whether a refactor changed any answer, error message or exit
code:

    PYTHONPATH=src python3 scripts/cli_grid.py > grid.txt
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

from immorder import cli

PHIS = ("a=1,b=1", "a=1,b=-1", "a=2,b=-1", "a=-3,b=2", "a=0,b=1")
EXTRA_PRESENTATIONS = (
    "<a,b|aaaBAAAbbaaababb,aaabAAbbaaaBABAAAB>",
    "<a,b|aaaaaabb,aaBBBB>",
    "<a,b|aaaa,bbbbbb,abAB>",
    "<a,b|aabbaabb>",
    "<a,b|aA>",
    "<a,b|ax>",
    "<a,c|ab>",
    "a,b|ab",
    "<a,b|ab,,b>",
)

PAYLOADS = (
    {"group": "trivial"},
    {"group": "trivial", "w2": "inf"},
    {"group": "Z", "w1": 1},
    {"group": "Z", "w1": 1, "w2": "inf"},
    {"group": "Z", "w2": "0"},
    {"group": "cyclic", "n": 2, "w2": "1"},
    {"group": "cyclic", "n": 4, "w2": "1"},
    {"group": "cyclic", "n": 12, "w2": "1"},
    {"group": "cyclic", "n": 3},
    {"group": "cyclic", "n": 6, "w2": "inf"},
    {"group": "cyclic", "n": 2, "w1": 1, "w2": "0"},
    {"group": "cyclic", "n": 4, "w1": 1, "w2": "1", "c": 1},
    {"group": "cyclic", "n": 12, "w1": 1, "w2": "1", "c": 0},
    {"group": "cyclic", "n": 8, "w1": 1, "w2": "inf", "c": 1},
    {"group": "cyclic", "n": 6, "w1": 1, "w2": "inf", "c": -1},
    {"group": "cyclic", "n": 4, "w1": 1, "w2": "inf", "c": 6},
    {"group": "cyclic", "n": 3, "w1": 1},
    {"group": "Z4", "w2": "0"},
    {"group": "Z4", "w2": "e12"},
    {"group": "Z4", "w2": "e12", "c": 2},
    {"group": "Z4", "w2": "e12+e34", "c": 4},
    {"group": "Z4", "w2": "e12+e34", "c": -6},
)

# every w1 and w2 symbol of the cyclic and rank-4 families, and one of neither
SQ2W_W1 = ("0", "t", "x")
SQ2W_W2 = ("0", "s", "e12", "e12+e34", "x")
# argv that the parser refuses before any handler runs
PARSER_FAILURES = (
    [],
    ["no-such-command"],
    ["homology", "--twist", "0"],
    ["homology", "--group", "Z/4", "--degree", "two"],
    ["homology", "--group", "Z/4", "--degree", "2", "--coeff", "Q"],
    ["realizable", "--group", "Z/4", "--w1", "2"],
)


def words(length):
    return ("".join(w) for w in itertools.product("aAbB", repeat=length))


def presentations():
    yield "<a,b|>"
    for length in (1, 2, 3):
        for w in words(length):
            yield f"<a,b|{w}>"
    for u, v in itertools.product(list(words(2)), repeat=2):
        yield f"<a,b|{u},{v}>"
    yield from EXTRA_PRESENTATIONS


def grid(payload_dir):
    for n in range(1, 65):
        for twist in ("0", "w"):
            for coeff in ("Z", "Z2"):
                for degree in range(7):
                    yield ["homology", "--group", f"Z/{n}", "--twist", twist, "--coeff", coeff, "--degree", str(degree)]
    for n in (2, 6, 64, 1000):
        for twist in ("0", "w"):
            for coeff in ("Z", "Z2"):
                for degree in (20, 63, 64):
                    yield ["homology", "--group", f"Z/{n}", "--twist", twist, "--coeff", coeff, "--degree", str(degree)]
    for group in ("Z4", "trivial", "Z"):
        for twist in ("0", "w"):
            for coeff in ("Z", "Z2"):
                for degree in (0, 2, 4, 5):
                    yield ["homology", "--group", group, "--twist", twist, "--coeff", coeff, "--degree", str(degree)]
    for group in [f"Z/{n}" for n in range(1, 9)] + ["Z4", "trivial"]:
        for w1 in SQ2W_W1:
            for w2 in SQ2W_W2:
                yield ["sq2w", "--group", group, "--w1", w1, "--w2", w2]
    yield ["sq2w", "--group", "Z/4", "--degree", "3"]
    for k in range(1, 13):
        for coeff in ("Z", "Z2", "ZZ2w"):
            yield ["model-cohomology", "--k", str(k), "--coeff", coeff]
    for n in range(1, 65):
        for w1 in ("0", "1"):
            for w2 in ("0", "1"):
                yield ["realizable", "--group", f"Z/{n}", "--w1", w1, "--w2", w2]
    for n, w in [(n, "w") for n in (8, 16, 24, 32, 40)] + [(n, "0") for n in (9, 10, 11, 21, 27)]:
        for c in ("1", "-3", "7"):
            for seed in ("0", "17"):
                yield ["shift", "--group", f"Z/{n}", "--w", w, "--c", c, "--seed", seed]
    for target in range(2, 21):
        for source in (3 * target, 5 * target):
            yield ["chain-verify", "--source", str(source), "--target", str(target)]
    for source, target in ((-2, 1), (0, 0)):
        yield ["chain-verify", "--source", str(source), "--target", str(target)]
    for length in (1, 2, 3, 4):
        for w in words(length):
            for phi in PHIS:
                yield ["fibered", "--relator", w, "--phi", phi]
    for p in presentations():
        yield ["abelianization", "--presentation", p]
        for w1 in ("a=0,b=0", "a=1,b=0", "a=0,b=1", "a=1,b=1"):
            yield ["integral-lift", "--presentation", p, "--w1", w1]
    for max_exp in range(-1, 18):
        for fmt in ("dot", "json"):
            yield ["order-graph", "--max-exp", str(max_exp), "--format", fmt]
            yield ["order-graph", "--max-exp", str(max_exp), "--combined", "--format", fmt]
    files = []
    for i, payload in enumerate(PAYLOADS):
        files.append(os.path.join(payload_dir, f"type{i:02d}.json"))
        with open(files[-1], "w") as f:
            json.dump(payload, f)
    for a, b in itertools.product(files, repeat=2):
        yield ["leq", a, b]
    yield from PARSER_FAILURES


def main() -> None:
    with tempfile.TemporaryDirectory() as payload_dir:
        for argv in grid(payload_dir):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.run(argv)
            line = " ".join(argv).replace(payload_dir + os.sep, "")
            sys.stdout.write(f"$ {line}\nexit {code}\n{buf.getvalue()}")


if __name__ == "__main__":
    main()

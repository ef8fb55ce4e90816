#!/usr/bin/env python3
"""Run a fixed grid of CLI commands and print each exit code and stdout.

The grid covers the subcommands whose answers come from group-ring
products and `rho`: `homology` for Z/n with n 1..64, both twists, Z and
Z/2 coefficients and degrees 0..6; `model-cohomology` for k 1..12 with
every coefficient system; `realizable` for Z/n with n 1..64; `shift` on
the orders 8, 16, 24, 32, 40 (twist w) and 9, 10, 11, 21, 27 (twist 0);
`chain-verify` for targets 2..20; and the free-word subcommands on a
fixed list of words and presentations: `fibered` for every word of
length 1..4 under five characters, `abelianization` and, with each of
the four mod-2 characters, `integral-lift` for the empty presentation,
every one-relator presentation with a relator of length 1..3, every
two-relator presentation with relators of length 2, and a few longer
and malformed ones.  Commands run in-process, through
`immorder.cli.run`.  Comparing the output of two versions byte for byte
shows whether a refactor changed any answer, error message or exit code:

    PYTHONPATH=src python3 scripts/cli_grid.py > grid.txt
"""

from __future__ import annotations

import io
import itertools
import sys
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


def grid():
    for n in range(1, 65):
        for twist in ("0", "w"):
            for coeff in ("Z", "Z2"):
                for degree in range(7):
                    yield ["homology", "--group", f"Z/{n}", "--twist", twist, "--coeff", coeff, "--degree", str(degree)]
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
    for length in (1, 2, 3, 4):
        for w in words(length):
            for phi in PHIS:
                yield ["fibered", "--relator", w, "--phi", phi]
    for p in presentations():
        yield ["abelianization", "--presentation", p]
        for w1 in ("a=0,b=0", "a=1,b=0", "a=0,b=1", "a=1,b=1"):
            yield ["integral-lift", "--presentation", p, "--w1", w1]


def main() -> None:
    for argv in grid():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(argv)
        sys.stdout.write(f"$ {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")


if __name__ == "__main__":
    main()

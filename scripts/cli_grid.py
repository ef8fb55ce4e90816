#!/usr/bin/env python3
"""Run a fixed grid of CLI commands and print each exit code and stdout.

The grid covers the subcommands whose answers come from group-ring
products and `rho`: `homology` for Z/n with n 1..64, both twists, Z and
Z/2 coefficients and degrees 0..6; `model-cohomology` for k 1..12 with
every coefficient system; `realizable` for Z/n with n 1..64; `shift` on
the orders 8, 16, 24, 32, 40 (twist w) and 9, 10, 11, 21, 27 (twist 0);
and `chain-verify` for targets 2..20.  Commands run in-process, through
`immorder.cli.run`.  Comparing the output of two versions byte for byte
shows whether a refactor changed any answer, error message or exit code:

    PYTHONPATH=src python3 scripts/cli_grid.py > grid.txt
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout

from immorder import cli


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


def main() -> None:
    for argv in grid():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(argv)
        sys.stdout.write(f"$ {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Print the Smith forms, cokernels, kernels and solutions of a fixed grid.

For each matrix of a seeded grid it prints `d`, `U`, `V`, `uinv` and
`vinv` from `smith_normal_form` and the bit length of the largest entry of
the four transforms, then `cokernel`, the kernel lattice of
`kernel_basis` as its column Hermite basis, and the verdict of
`solve_linear` with whether A x == b holds (one consistent right-hand
side and one random one).  The kernel and solve lines do not depend on
the basis or the particular solution that an elimination picks.  The
grid holds dense matrices with entries in -9..9 in the shapes of the
`dense-snf` benchmark, up to 18x18 and 16x20, and zero, empty,
rank-deficient, 1 x n and n x 1 matrices.  Comparing the output of two
versions byte for byte shows whether a change to the elimination moved
any transform or any answer:

    PYTHONPATH=src python3 scripts/snf_grid.py > snf.txt
"""

from __future__ import annotations

import random
import sys

from immorder.intalg import IntMatrix, cokernel, kernel_basis, smith_normal_form, solve_linear

DENSE_SHAPES = ((8, 8), (6, 10), (12, 12), (14, 10), (10, 14), (15, 15), (13, 17), (18, 18), (16, 20))
ENTRY_BOUND = 9


def _dense(rng, r, c, bound=ENTRY_BOUND):
    return IntMatrix(r, c, tuple(rng.randint(-bound, bound) for _ in range(r * c)))


def grid():
    rng = random.Random(20221)
    for r, c in DENSE_SHAPES:
        for _ in range(3):
            yield f"dense {r}x{c}", _dense(rng, r, c)
    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 4), (5, 2)):
        yield f"zero {r}x{c}", IntMatrix.zeros(r, c)
    for r, c, k in ((6, 6, 3), (8, 5, 2), (5, 9, 4), (12, 12, 7), (10, 14, 1)):
        for _ in range(2):
            yield f"rank<={k} {r}x{c}", _dense(rng, r, k, 4) @ _dense(rng, k, c, 4)
    for k in (1, 2, 5, 12, 20):
        yield f"row 1x{k}", _dense(rng, 1, k)
        yield f"column {k}x1", _dense(rng, k, 1)
    yield "divisibility 3x3", IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])


def _rows(m: IntMatrix | None) -> str:
    return "None" if m is None else repr(m.to_rows())


def _max_bits(*mats: IntMatrix) -> int:
    return max((abs(x).bit_length() for m in mats for x in m.entries), default=0)


def hermite_columns(basis: IntMatrix) -> list[list[int]]:
    """The column Hermite basis of the lattice spanned by the columns of
    `basis`: row echelon form of its transpose over Z, each pivot
    positive and the entries above it reduced modulo it.  Two bases of
    one lattice give the same list."""
    vecs = [basis.col_list(j) for j in range(basis.cols)]
    out: list[list[int]] = []
    for i in range(basis.rows):
        live = [v for v in vecs if v[i]]
        vecs = [v for v in vecs if not v[i]]
        while len(live) > 1:
            live.sort(key=lambda v: abs(v[i]))
            p = live[0]
            reduced = [[x - (v[i] // p[i]) * y for x, y in zip(v, p)] for v in live[1:]]
            vecs += [w for w in reduced if not w[i]]
            live = [p] + [w for w in reduced if w[i]]
        if live:
            p = live[0] if live[0][i] > 0 else [-x for x in live[0]]
            out = [[x - (v[i] // p[i]) * y for x, y in zip(v, p)] for v in out] + [p]
    return out


def _verdict(a: IntMatrix, b: list[int]) -> str:
    x = solve_linear(a, b)
    return "None" if x is None else f"solvable, A x == b {a.apply_vec(list(x)) == b}"


def main() -> None:
    rng = random.Random(7)
    out = sys.stdout
    for label, a in grid():
        s = smith_normal_form(a)
        out.write(f"# {label}\n{_rows(a)}\n")
        out.write(f"d {list(s.d)}\nU {_rows(s.U)}\nV {_rows(s.V)}\n")
        out.write(f"uinv {_rows(s.uinv)}\nvinv {_rows(s.vinv)}\n")
        out.write(f"transform bits {_max_bits(s.U, s.V, s.uinv, s.vinv)}\n")
        out.write(f"cokernel {cokernel(a).pretty()}\n")
        out.write(f"kernel {hermite_columns(kernel_basis(a))}\n")
        x = [rng.randint(-5, 5) for _ in range(a.cols)]
        b = [rng.randint(-9, 9) for _ in range(a.rows)]
        out.write(f"solve consistent {_verdict(a, a.apply_vec(x))}\n")
        out.write(f"solve random {_verdict(a, b)}\n")


if __name__ == "__main__":
    main()

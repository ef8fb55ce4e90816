"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; no floating
point is ever involved.  The module provides immutable integer matrices,
Smith normal form with unimodular transform tracking, exact linear solving
over Z, finitely generated abelian group invariants, and a
small "subquotient" engine that presents groups of the form L / R (L a
sublattice of Z^n, R a subgroup of L) together with canonical coordinates
and explicit generator vectors.  The subquotient engine is what lets the
rest of the package name homology classes, not just their isomorphism
types.

There is one Smith elimination, `smith_normal_form`, and each caller
asks it to track only the transforms it reads (see `SmithForm`), so a
caller that reads only the invariant factors pays for no transform.  On a
matrix whose sides are both at least 5 it starts with a Hermite pass in
the reduced order of Kannan and Bachem (SIAM J. Comput. 8, 1979), along
the shorter side and then the other: every entry stays bounded by minors
of the matrix, and the Euclid loop that follows finds a generic matrix
already diagonal.  Without the pass the loop's entries grow by the length
of the elimination, the blow-up that Havas and Majewski (J. Symb. Comput.
24, 1997) describe: on dense 18x18 matrices with entries in -9..9, whose
invariant factors need at most 74 bits, the transforms reached 27,481
bits, and they now stay under 200.  With CPython 3.11 on x86-64 a dense
40x40 matrix takes about 0.025 s with all four transforms, where the loop
alone had not finished after 270 s.

Every solve and kernel goes through one path, `Factorization`: one
Smith form U a V = D of the whole matrix.  `solve` takes a block of
right-hand sides, solves D y = U b with one product by U and one by V,
and checks the whole block with one certificate product with the matrix;
`kernel` is the columns of V past the rank.  `solve_linear`,
`kernel_basis`, `homology_data` and `subquotient` all factor through it,
once per call.  Code that solves against the same matrix again and again
keeps a factorization on the object that owns the matrix (a `Subquotient`
keeps one of its sublattice basis for `class_of`), so it dies with its
owner; nothing caches Smith forms beyond that.

Mod-2 questions take one path, the F2 elimination `_f2_echelon`:
`f2_rank`, `f2_solvable` and the cycle lattice of `homology_data_mod2`
are read off its reduced echelon form.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Collection
from itertools import chain, compress, repeat
from math import gcd
from operator import add, attrgetter, index, mul


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class NotAComplex(ValueError):
    """Composite of consecutive boundary maps is nonzero."""


# ---------------------------------------------------------------------------
# records

# a record's `__init__` sets each field with this, past the frozen `__setattr__`
set_field = object.__setattr__


class Record:
    """Base of the package's immutable records.

    A record lists its fields in `__slots__`.  The base `__init__` binds its
    arguments to them in order, by position or keyword; a field left out
    takes its value from the class keyword `defaults` (field -> value), and
    too many arguments or a missing, unknown or repeated field raise
    TypeError.  A record has its own `__init__`, which sets each field with
    `set_field` and so skips the binder's cost, exactly when it checks its
    arguments.  The base gives equality only between instances of the same
    class whose compared fields are equal, the hash of the tuple of those
    fields, the repr `Name(field=value, ...)`, and AttributeError on
    assigning or deleting an attribute.  The fields named by the class
    keyword `hidden` are left out of all three.  Nothing is generated: a
    class decorator that wrote and compiled these methods for each record,
    with the modules it imports, took about a third of `import immorder.cli`
    from source.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), defaults: dict[str, object] | None = None) -> None:
        fields = tuple(f for f in cls.__slots__ if f not in hidden)
        values = attrgetter(*fields)
        cls._fields = fields
        cls._defaults = defaults or {}
        # the tuple of the compared fields, also for a record of one field
        cls._values = staticmethod(values if len(fields) > 1 else lambda self: (values(self),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, defaults = self.__slots__, self._defaults
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {problem} argument {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # pickle and copy restore the slots through this, as `__setattr__` refuses
        for name, value in state[1].items():
            set_field(self, name, value)


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Record):
    """Immutable integer matrix, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"entry count {len(entries)} != {rows}x{cols}")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
        return IntMatrix(r, c, tuple(map(index, chain.from_iterable(rows))))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def diagonal(diag: list[int] | tuple, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        n = len(diag)
        r = n if rows is None else rows
        c = n if cols is None else cols
        diag, k = tuple(map(index, diag)), min(n, r, c)
        ent = [0] * (r * c)
        ent[: k * (c + 1) : c + 1] = diag[:k]
        return IntMatrix(r, c, tuple(ent))

    @staticmethod
    def column(vec: list[int] | tuple) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple(map(index, vec)))

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col_list(self, j: int) -> list[int]:
        return list(self.entries[j :: self.cols])

    def to_rows(self) -> list[list[int]]:
        return [self.row_list(i) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if other.cols == 1:
            # one column: a dot product per row in C beats skipping zeros
            return IntMatrix(self.rows, 1, tuple(self.apply_vec(other.entries)))
        a, b = self.entries, other.entries
        n, m, p = self.rows, self.cols, other.cols
        brows = [b[k * p : (k + 1) * p] for k in range(m)]
        out: list[int] = []
        for arow in (a[i * m : (i + 1) * m] for i in range(n)):
            # row i of the product sums a_ik times row k of other over the nonzero a_ik
            terms = (map(mul, repeat(arow[k]), brows[k]) for k in compress(range(m), arow))
            acc = next(terms, (0,) * p)
            for vec in terms:
                acc = tuple(map(add, acc, vec))
            out.extend(acc)
        return IntMatrix(n, p, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("addition shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(map(mul, repeat(c), self.entries)))

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple(x for j in range(c) for x in e[j::c]))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        rows = [self.row_list(i) + other.row_list(i) for i in range(self.rows)]
        return IntMatrix(self.rows, self.cols + other.cols, tuple(x for row in rows for x in row))

    def apply_vec(self, vec: list[int] | tuple) -> list[int]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        c, e = self.cols, self.entries
        return [sum(map(mul, e[i * c : (i + 1) * c], vec)) for i in range(self.rows)]


# ---------------------------------------------------------------------------
# Smith normal form


TRANSFORMS = ("U", "V", "uinv", "vinv")

# `smith_normal_form` starts with the Hermite passes when both sides of the
# matrix are at least this long.  Below it the Euclid loop alone keeps its
# transforms within a few times the entry size (at most 305 bits on 3 x 3
# matrices with 31-bit entries, 44 bits on 4 x 40 with entries in -9..9),
# and the passes would cost 1.0 to 1.7 times the time of the loop alone on
# 2 x 2 to 6 x 4 matrices.  On 5 x 5 they take 1.07 times the loop and cut
# its largest transform entry from 56 to 39 bits; on 6 x 6 and 8 x 8 they
# take 0.95 and 0.8 times it (152 to 68 bits on 8 x 8).  All with four
# transforms, CPython 3.11, x86-64, entries -9..9 unless stated.
_HERMITE_MIN_SIDE = 5

# what `smith_normal_form` returns for a transform it does not track
_UNTRACKED = IntMatrix(0, 0, ())


class SmithForm(Record):
    """Decomposition U @ A @ V = diag(d), with U, V unimodular.

    `d` lists the nonzero invariant factors only (positive, each dividing
    the next); the rank of A is len(d).  `uinv` and `vinv` are the exact
    inverses of U and V, read off each Hermite pass and kept by the loop.

    When both sides of A are at least 5, every entry of the four
    transforms is bounded by a function of the shape of A and the size of
    its entries (see `smith_normal_form`), not by the length of the
    elimination.

    A transform that `smith_normal_form` was not asked to track is the
    empty 0x0 matrix, so every field stays an IntMatrix and a transform
    is tracked exactly when its side matches A (for a side of 0 the two
    agree).  The callers in this package track what they read:
    `cokernel`, which the abelianization in `fibering` calls, reads only
    `d` and tracks nothing; the character lattice in `fibering` tracks U
    alone and reads its rows past the rank; a `Factorization` tracks V for
    `kernel_basis` and U and V to solve; the relation form of
    `subquotient` names classes with U and generators with U^-1.  The
    default tracks all four, for callers that read them all.
    """

    __slots__ = ("d", "U", "V", "uinv", "vinv", "rows", "cols")

    @property
    def rank(self) -> int:
        return len(self.d)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), for a > 0 and b != 0, and
    0 <= s < |b| / g."""
    g = gcd(a, b)
    a, b = a // g, b // g
    s = pow(a, -1, abs(b)) if b not in (1, -1) else 0
    return g, s, (1 - s * a) // b


def _column_hermite(
    cols: list[list[int]], n: int, track_v: bool, track_vinv: bool
) -> tuple[list[list[int]] | None, list[list[int]] | None]:
    """Bring `cols`, the columns of an n-row matrix A, to column Hermite
    form in place by unimodular column operations, and return V transposed
    and V^-1 (None for one not tracked), with `cols` the columns of A V.

    The columns come in one at a time, in the reduced order of Kannan and
    Bachem (SIAM J. Comput. 8, 1979).  A new column is cleared down its
    rows: at a row that has a pivot, an extended-gcd 2 x 2 operation with
    the pivot's column leaves the gcd as the pivot and a zero in the new
    column (a subtraction when the pivot divides the entry).  The first
    nonzero row with no pivot takes the new column as its pivot, made
    positive.  Each pivot column is zero above its pivot row.  After each
    column, the entries left of each pivot are reduced into [0, pivot), row
    by row from the first row that changed.  The row of the newest pivot
    waits one column, because the next column usually changes that pivot
    and its row is then reduced once, not twice.  So the block built so far
    stays in Hermite form, and its entries are bounded by minors of A, not
    by the length of the elimination.

    When nothing is tracked, a column that clears to zero stays zero.
    While V is tracked, each column carries its column of V as a tail after
    its n entries of A and the scan runs on into the tail, so the pass is
    the column Hermite form of the (n + m) x m matrix [A; I] (Cohen, *A
    Course in Computational Algebraic Number Theory*, 1993, section 2.4).
    A column that clears to zero in A takes its pivot in its tail: the
    columns of V that A sends to zero come out as the Hermite basis of the
    kernel, and every other column of V is reduced against them, which
    keeps V bounded and changes no column of A V.  The tails steer the
    pass, so V is tracked when V^-1 is.  A column operation is one list
    operation from the row where it starts; on the row pass the tails are
    U.  The tails grow by one entry per column brought in and are split off
    at the end, once V^-1 is read off the result (`_hermite_inverse`).
    """
    rows = list(zip(*cols)) if track_vinv else None  # A, for V^-1
    piv: dict[int, int] = {}  # pivot row -> its column
    order: list[int] = []  # the pivot rows, in increasing order

    def addmul(q, p, f, r):
        # col_q += f * col_p, col_p zero above row r
        cq = cols[q]
        cq[r:] = [x + f * y for x, y in zip(cq[r:], cols[p][r:])]

    def combine(p, j, r, s, t, x, y):
        # (col_p, col_j) <- (s col_p + t col_j, x col_p + y col_j), both zero
        # above row r, with s y - t x = 1
        cp, cj = cols[p], cols[j]
        rp, rj = cp[r:], cj[r:]
        cp[r:] = [s * c + t * e for c, e in zip(rp, rj)]
        cj[r:] = [x * c + y * e for c, e in zip(rp, rj)]

    def reduce(first, skip):
        # reduce the entries left of the pivots of rows >= first, row by row,
        # except in row `skip`
        k = bisect_left(order, first)
        for r in order[k:]:
            if r != skip:
                p = piv[r]
                d = cols[p][r]
                for q in map(piv.get, order[:k]):
                    f = cols[q][r] // d
                    if f:
                        addmul(q, p, -f, r)
            k += 1

    late = None  # the row of the newest pivot, reduced one column late
    for j, cj in enumerate(cols):
        if track_v:
            for c in cols[:j]:
                c.append(0)
            cj += [0] * j + [1]
        changed = None  # the first row whose pivot changed
        new = None  # the row of column j's pivot
        for i, x in enumerate(cj):
            if not x:
                continue
            p = piv.get(i)
            if p is None:
                if x < 0:
                    cj[i:] = [-c for c in cj[i:]]
                piv[i] = j
                insort(order, i)
                new = i
                break
            d = cols[p][i]
            if x % d:
                g, s, t = _xgcd(d, x)
                combine(p, j, i, s, t, -x // g, d // g)
                changed = i if changed is None else changed
            else:
                addmul(j, p, -x // d, i)
        starts = [r for r in (changed, new, late) if r is not None]
        if starts:
            reduce(min(starts), new)
        late = new
    if late is not None:
        reduce(late, None)
    vi = _hermite_inverse(rows, cols, n, order, piv) if track_vinv else None
    vt = [c[n:] for c in cols] if track_v else None
    for c in cols:
        del c[n:]
    return vt, vi


def _hermite_inverse(rows, hv, n, order, piv):
    """The rows of V^-1, from the n rows of A and the columns `hv` of the
    Hermite form [A V; V] of [A; I], with pivot rows `order` and `piv` their
    columns.  [A; I] = [A V; V] V^-1, the factor lower triangular on those
    rows: forward substitution, with ArithmeticError on a remainder."""
    vi: list[list[int]] = [[]] * len(hv)
    for k, r in enumerate(order):
        s = list(rows[r]) if r < n else [int(i == r - n) for i in range(len(hv))]
        for q in map(piv.get, order[:k]):
            f = hv[q][r]
            if f:
                s = [x - f * y for x, y in zip(s, vi[q])]
        d = hv[piv[r]][r]
        if any(x % d for x in s):
            raise ArithmeticError(f"pivot {d} at row {r} does not divide its row of [A; I]")
        vi[piv[r]] = [x // d for x in s] if d != 1 else s
    return vi


def smith_normal_form(a: IntMatrix, *, track: Collection[str] = TRANSFORMS) -> SmithForm:
    """Compute the Smith normal form of an integer matrix.

    Returns U, V (and their inverses) with U @ A @ V diagonal, diagonal
    entries non-negative and satisfying the divisibility chain
    d_1 | d_2 | ... .  `track` names the transforms to keep, a subset of
    `TRANSFORMS`; the others come back as the empty 0x0 matrix.  The
    pivots and quotients do not depend on `track`, so each tracked
    transform is the same whatever else is tracked.

    When both sides of A are at least `_HERMITE_MIN_SIDE`, the Hermite
    pass (`_column_hermite`) runs first along the shorter side, then along
    the other on its result; the column pass carries V^T, and the row pass
    U, as tails of the columns and rows it eliminates, and its scan runs on
    into the tails: the column pass leaves the kernel of A in Hermite form
    in V with no second elimination.  The Euclid loop finishes the diagonal
    and its divisibility chain.  Its pivot is the first entry of least
    absolute value in row-major order, so the search ends at an entry +-1,
    and a pivot of 1 divides the block unchecked.
    With k the shorter side and b the bit length of the largest entry, the
    tests check that no transform entry passes 8 k (b + ceil(log2 k) + 1)
    bits.
    """
    unknown = set(track) - set(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown transforms {sorted(unknown)}; choose from {TRANSFORMS}")
    n, m = a.rows, a.cols

    def eye(k, name):
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)] if name in track else None

    # U and V^-1 change by row operations; U^-1 and V change by column
    # operations, so they are kept transposed (uit, vt) and every update
    # of a transform is a row operation on a list of rows.
    w = [a.row_list(i) for i in range(n)]
    if n < _HERMITE_MIN_SIDE or m < _HERMITE_MIN_SIDE:
        u, uit, vt, vi = eye(n, "U"), eye(n, "uinv"), eye(m, "V"), eye(m, "vinv")
    else:
        # The Hermite pass runs first along the shorter side (the columns
        # if square), with fewer vectors and tails, then along the other on
        # its result; a generic matrix comes out diagonal.  The row pass is
        # the one on the columns of A^T: its V^T, carried as tails of the
        # rows, is U, and its V^-1 is U^-1 transposed.
        def by_rows():
            return _column_hermite(w, m, "U" in track or "uinv" in track, "uinv" in track)

        def by_cols():
            cols = [list(col) for col in zip(*w)]
            vt, vi = _column_hermite(cols, n, "V" in track or "vinv" in track, "vinv" in track)
            w[:] = map(list, zip(*cols))
            return vt, vi

        if m <= n:
            vt, vi = by_cols()
            u, uit = by_rows()
        else:
            u, uit = by_rows()
            vt, vi = by_cols()
    # Every step works on the trailing block from row and column t on:
    # rows and columns before t hold finished pivots and are zero off the
    # diagonal, so row operations touch columns >= t of w and column
    # operations rows >= t.
    t = 0

    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
        if uit is not None:
            uit[i], uit[j] = uit[j], uit[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j ; inverse op on uinv: col_j -= c * col_i,
        # which is row j of its transpose
        w[i][t:] = [x + c * y for x, y in zip(w[i][t:], w[j][t:])]
        if u is not None:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        if uit is not None:
            uit[j] = [x - c * y for x, y in zip(uit[j], uit[i])]

    def row_negate(i):
        w[i][t:] = [-x for x in w[i][t:]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if uit is not None:
            uit[i] = [-x for x in uit[i]]

    def col_swap(i, j):
        for k in range(t, n):
            r = w[k]
            r[i], r[j] = r[j], r[i]
        if vt is not None:
            vt[i], vt[j] = vt[j], vt[i]
        if vi is not None:
            vi[i], vi[j] = vi[j], vi[i]

    def col_addmul(i, j, c):
        # col_i += c * col_j (row i of the transpose of V) ; inverse op on
        # vinv: row_j -= c * row_i
        for k in range(t, n):
            r = w[k]
            r[i] += c * r[j]
        if vt is not None:
            vt[i] = [x + c * y for x, y in zip(vt[i], vt[j])]
        if vi is not None:
            vi[j] = [x - c * y for x, y in zip(vi[j], vi[i])]

    lim = min(n, m)
    while t < lim:
        # find the first pivot of minimal absolute value in the trailing
        # submatrix, in row-major order; none is smaller than 1
        piv, best = None, 0
        for i in range(t, n):
            row = w[i][t:]
            low = min(map(abs, filter(None, row)), default=0)
            if low and (not best or low < best):
                best, piv = low, (i, t + next(j for j, x in enumerate(row) if abs(x) == low))
                if low == 1:
                    break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            if w[t][t] < 0:
                row_negate(t)
            p = w[t][t]
            # clear column t, then row t; a remainder strictly smaller than
            # the pivot is promoted to the pivot, and the clearing restarts
            for i in range(t + 1, n):
                if w[i][t] != 0:
                    q = w[i][t] // p
                    if q:
                        row_addmul(i, t, -q)
                    if w[i][t] != 0:
                        row_swap(t, i)
                        break
            else:
                for j in range(t + 1, m):
                    if w[t][j] != 0:
                        q = w[t][j] // p
                        if q:
                            col_addmul(j, t, -q)
                        if w[t][j] != 0:
                            col_swap(t, j)
                            break
                else:
                    # cross is clear; enforce divisibility of the remaining
                    # block, which 1 divides
                    offender = None if p == 1 else next((i for i in range(t + 1, n) if any(x % p for x in w[i][t + 1 :])), None)
                    if offender is None:
                        break
                    row_addmul(t, offender, 1)
        t += 1

    d = tuple(filter(None, (w[i][i] for i in range(lim))))

    def out(name, rows, k, transposed=False):
        if name not in track:
            return _UNTRACKED
        if transposed:
            rows = zip(*rows)
        return IntMatrix(k, k, tuple(chain.from_iterable(rows)))

    return SmithForm(
        d=d, U=out("U", u, n), V=out("V", vt, m, True), uinv=out("uinv", uit, n, True), vinv=out("vinv", vi, m), rows=n, cols=m
    )


def _factor(a: IntMatrix, track: Collection[str]) -> "Factorization":
    """One Smith form of the whole of `a`, tracking `track`."""
    return Factorization(a, smith_normal_form(a, track=track))


class Factorization(Record):
    """A matrix `a` factored to solve a @ X = B for many B and to read its
    kernel: one Smith form U a V = D of the whole matrix.

    So a x = b exactly when D y = U b has an integer solution y, and then
    x = V y; the kernel is spanned by the columns of V past the rank.
    `of` tracks U and V, which `solve` needs; `kernel_basis` builds a
    factorization that tracks V alone, enough for `kernel`.
    """

    __slots__ = ("a", "snf")

    def __init__(self, a: IntMatrix, snf: SmithForm) -> None:
        if (snf.rows, snf.cols) != (a.rows, a.cols):
            raise DimensionMismatch("Smith form does not belong to this matrix")
        if snf.V.rows != snf.cols:
            raise ValueError("a factorization needs a Smith form that tracks V")
        set_field(self, "a", a)
        set_field(self, "snf", snf)

    @staticmethod
    def of(a: IntMatrix) -> "Factorization":
        return _factor(a, ("U", "V"))

    def kernel(self) -> IntMatrix:
        """Columns form a Z-basis of {x : a @ x = 0}."""
        r, m, v = self.snf.rank, self.snf.cols, self.snf.V.entries
        return IntMatrix(m, m - r, tuple(chain.from_iterable(v[i * m + r : (i + 1) * m] for i in range(m))))

    def solve(self, b: IntMatrix) -> list[tuple[int, ...] | None]:
        """One solution of a @ x = b_j for each column b_j of b, or None
        for a column that has no integer solution.

        Every returned solution is checked against a @ x == b_j, on one
        product a @ X for the whole block.
        """
        a, s = self.a, self.snf
        if b.rows != a.rows:
            raise DimensionMismatch("rhs length mismatch")
        if s.U.rows != s.rows:
            raise ValueError("solving needs a Smith form that tracks U")
        p = b.cols
        ok = [True] * p
        cu = (s.U @ b).entries
        y = [0] * (s.cols * p)
        for i in range(s.rows):
            di = s.d[i] if i < s.rank else 0
            for j in range(p):
                cij = cu[i * p + j]
                if di:
                    q, r = divmod(cij, di)
                    if r:
                        ok[j] = False
                    else:
                        y[i * p + j] = q
                elif cij:
                    ok[j] = False
        xm = s.V @ IntMatrix(s.cols, p, tuple(y))
        x, ax, be = xm.entries, (a @ xm).entries, b.entries
        for j in range(p):
            if ok[j] and ax[j::p] != be[j::p]:
                raise AssertionError("solution fails the certificate a @ x == b")
        return [x[j::p] if ok[j] else None for j in range(p)]


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of {x : a @ x = 0}; the Smith form tracks V
    alone."""
    return _factor(a, ("V",)).kernel()


def solve_linear(a: IntMatrix, b: list[int] | tuple) -> tuple[int, ...] | None:
    """Solve a @ x = b exactly over Z.

    Returns one solution as a tuple, or None when the system is
    inconsistent.  Factors a once and solves one column through
    `Factorization`.
    """
    return Factorization.of(a).solve(IntMatrix.column(b))[0]


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FgAbelianGroup(Record):
    """Canonical form of a finitely generated abelian group.

    free_rank copies of Z plus cyclic factors Z/d_i with each d_i >= 2 and
    d_i | d_{i+1}.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]) -> None:
        if free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for x, y in zip(torsion, torsion[1:]):
            if y % x != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)

    @staticmethod
    def zero() -> "FgAbelianGroup":
        return FgAbelianGroup(0, ())

    @staticmethod
    def free(n: int) -> "FgAbelianGroup":
        return FgAbelianGroup(n, ())

    @staticmethod
    def cyclic(n: int) -> "FgAbelianGroup":
        if n == 0:
            return FgAbelianGroup(1, ())
        n = abs(n)
        return FgAbelianGroup(0, ()) if n == 1 else FgAbelianGroup(0, (n,))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def pretty(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.pretty()


def cokernel(a: IntMatrix) -> FgAbelianGroup:
    """Z^rows / (column span of a)."""
    s = smith_normal_form(a, track=())
    torsion = tuple(d for d in s.d if d >= 2)
    return FgAbelianGroup(free_rank=a.rows - s.rank, torsion=torsion)


# ---------------------------------------------------------------------------
# subquotients with named generators


class Subquotient(Record, hidden=("_basis",)):
    """The group L / R with canonical coordinates.

    L is the sublattice of Z^ambient spanned by the columns of sub_basis
    (which must be a basis), and R the subgroup of L generated by the
    columns of the `relations` matrix expressed in ambient coordinates.

    Canonical coordinates list the torsion coordinates first (mod d_i,
    d_i >= 2) and then the free coordinates; this matches the order of
    `group.torsion` followed by `group.free_rank` copies of Z.
    """

    __slots__ = ("sub_basis", "group", "_dfull", "_u", "_uinv", "_basis")

    @property
    def _rank(self) -> int:
        return len(self._dfull)

    def _positions(self) -> list[int]:
        """Map canonical coordinate index -> row index in U-coordinates."""
        tor = [i for i, d in enumerate(self._dfull) if d >= 2]
        free = list(range(self._rank, self.sub_basis.cols))
        return tor + free

    def class_of(self, z: list[int] | tuple) -> tuple[int, ...]:
        """Canonical coordinates of the class of an ambient vector z in L."""
        q = self._basis.solve(IntMatrix.column(z))[0]
        if q is None:
            raise ValueError("vector does not lie in the sublattice (not a cycle)")
        u = self._u.apply_vec(q)
        coords = []
        for pos in self._positions():
            if pos < self._rank:
                coords.append(u[pos] % self._dfull[pos])
            else:
                coords.append(u[pos])
        return tuple(coords)

    def generator(self, idx: int) -> tuple[int, ...]:
        """Ambient vector representing the idx-th canonical generator."""
        positions = self._positions()
        if not 0 <= idx < len(positions):
            raise IndexError("generator index out of range")
        e = [0] * self.sub_basis.cols
        e[positions[idx]] = 1
        q = self._uinv.apply_vec(e)
        return tuple(self.sub_basis.apply_vec(q))


def subquotient(sub_basis: IntMatrix, relations: IntMatrix) -> Subquotient:
    """Present L / R; `relations` columns are ambient vectors inside L."""
    if sub_basis.rows != relations.rows:
        raise DimensionMismatch("sub_basis and relations ambient dims differ")
    s = sub_basis.cols
    basis = Factorization.of(sub_basis)
    cols = basis.solve(relations)
    if any(w is None for w in cols):
        raise ValueError("relation does not lie in the sublattice")
    rel = IntMatrix(s, len(cols), tuple(w[i] for i in range(s) for w in cols))
    sf = smith_normal_form(rel, track=("U", "uinv"))
    dfull = tuple(sf.d)
    torsion = tuple(d for d in dfull if d >= 2)
    grp = FgAbelianGroup(free_rank=s - sf.rank, torsion=torsion)
    return Subquotient(
        sub_basis=sub_basis,
        group=grp,
        _dfull=dfull,
        _u=sf.U,
        _uinv=sf.uinv,
        _basis=basis,
    )


# ---------------------------------------------------------------------------
# homology of integer chain complexes


def _check_complex(d_in: IntMatrix, d_out: IntMatrix) -> None:
    if d_in.rows != d_out.cols:
        raise DimensionMismatch(
            f"boundary shapes incompatible: d_in is {d_in.rows}x{d_in.cols}, d_out is {d_out.rows}x{d_out.cols}"
        )
    if not (d_out @ d_in).is_zero():
        raise NotAComplex("d_out @ d_in != 0")


def homology_data(d_in: IntMatrix, d_out: IntMatrix) -> Subquotient:
    """ker(d_out)/im(d_in) with generator tracking.

    d_in : C_{k+1} -> C_k and d_out : C_k -> C_{k-1} as matrices acting on
    column vectors.
    """
    _check_complex(d_in, d_out)
    k = kernel_basis(d_out)
    return subquotient(k, d_in)


class IntComplex(Record):
    """A bounded chain complex of free modules presented by integer matrices.

    `down[k]` is the boundary C_{k+1} -> C_k.  `modulus` 0 means
    coefficients in Z; modulus 2 means the matrices are to be read mod 2
    (homology is then computed as an integer subquotient that encodes the
    mod-2 groups exactly).  `cohomology` is the homology of the dual
    complex, whose coboundary C^k -> C^{k+1} is `down[k]` transposed.
    """

    __slots__ = ("dims", "down", "modulus")

    def __init__(self, dims: tuple[int, ...], down: tuple[IntMatrix, ...], modulus: int = 0) -> None:
        if modulus not in (0, 2):
            raise ValueError(f"unsupported modulus {modulus}")
        if len(down) != max(len(dims) - 1, 0):
            raise DimensionMismatch("wrong number of structure maps")
        for k, m in enumerate(down):
            if (m.rows, m.cols) != (dims[k], dims[k + 1]):
                raise DimensionMismatch(f"map {k} has shape {m.rows}x{m.cols}")
        set_field(self, "dims", dims)
        set_field(self, "down", down)
        set_field(self, "modulus", modulus)

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def _pair(self, k: int) -> tuple[IntMatrix, IntMatrix]:
        """(d_in, d_out) of the chain complex at degree k."""
        if not 0 <= k <= self.top:
            raise IndexError(f"degree {k} outside complex of top degree {self.top}")
        d_in = self.down[k] if k < self.top else IntMatrix.zeros(self.dims[k], 0)
        d_out = self.down[k - 1] if k >= 1 else IntMatrix.zeros(0, self.dims[0])
        return d_in, d_out

    def _subquotient(self, d_in: IntMatrix, d_out: IntMatrix) -> "Subquotient":
        return (homology_data_mod2 if self.modulus == 2 else homology_data)(d_in, d_out)

    def homology_data(self, k: int) -> "Subquotient":
        return self._subquotient(*self._pair(k))

    def homology(self, k: int) -> FgAbelianGroup:
        return self.homology_data(k).group

    def cohomology(self, k: int) -> FgAbelianGroup:
        """Homology at degree k of the transposed boundaries."""
        d_in, d_out = self._pair(k)
        return self._subquotient(d_out.transpose(), d_in.transpose()).group


def _f2_echelon(a: IntMatrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a mod 2: its nonzero rows, as 0/1
    lists, and their pivot columns, found left to right."""
    rows = [[x % 2 for x in a.row_list(i)] for i in range(a.rows)]
    pivots: list[int] = []
    for j in range(a.cols):
        r = len(pivots)
        sel = next((i for i in range(r, a.rows) if rows[i][j]), None)
        if sel is not None:
            rows[r], rows[sel] = rows[sel], rows[r]
            rows = [[x ^ y for x, y in zip(row, rows[r])] if i != r and row[j] else row for i, row in enumerate(rows)]
            pivots.append(j)
    return rows[: len(pivots)], pivots


def f2_rank(a: IntMatrix) -> int:
    """Rank of a over the field with two elements."""
    return len(_f2_echelon(a)[1])


def f2_solvable(a: IntMatrix, b: list[int] | tuple) -> bool:
    """Is f2_rank([a | b]) == f2_rank(a), that is, has a @ x = b a
    solution mod 2?  Exactly when the last column of [a | b] has no pivot."""
    return a.cols not in _f2_echelon(a.hstack(IntMatrix.column(b)))[1]


def homology_data_mod2(d_in: IntMatrix, d_out: IntMatrix) -> Subquotient:
    """Homology with mod-2 coefficients of integer boundary matrices.

    Presents {z : d_out z = 0 mod 2} / (im d_in + 2 Z^n) as a subquotient
    of Z^n, so classes of integer vectors can be named.  Every element has
    order dividing 2.

    The lattice basis is 2 e_p for each pivot p of the mod-2 echelon form
    of d_out and the 0/1 kernel lift for each free column: the identity
    with row p the echelon row, pivot doubled; det 2^rank is the index.
    """
    if d_in.rows != d_out.cols:
        raise DimensionMismatch("boundary shapes incompatible")
    if not all(x % 2 == 0 for x in (d_out @ d_in).entries):
        raise NotAComplex("d_out @ d_in != 0 mod 2")
    n = d_in.rows
    basis = IntMatrix.identity(n).to_rows()
    for row, p in zip(*_f2_echelon(d_out)):
        basis[p] = row[:p] + [2] + row[p + 1 :]
    return subquotient(IntMatrix.from_rows(basis), d_in.hstack(IntMatrix.diagonal([2] * n)))

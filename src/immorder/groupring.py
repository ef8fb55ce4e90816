"""Integral group rings of finite cyclic groups and resolutions over them.

Elements of Z[Z/n] are stored as coefficient vectors indexed by powers of
the generator a.  The module provides the norm element, its twisted
companion used as the degree-3 boundary of the small model complexes, the
regular representation, free resolutions of Z over Z[Z/n], and the functor
that turns a complex of free Z[Z/n]-modules into an integer chain complex
for a chosen coefficient system; cohomology is read off its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .intalg import IntComplex, IntMatrix


class RingMismatch(ValueError):
    """Operands live over group rings of different cyclic groups."""


class InvalidTwist(ValueError):
    """Requested orientation character does not exist for this group."""


@dataclass(frozen=True)
class GroupRingElement:
    """An element of Z[Z/n]: coeffs[i] is the coefficient of a^i."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("group order must be >= 1")
        if len(self.coeffs) != self.n:
            raise ValueError("coefficient vector length must equal the group order")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "GroupRingElement":
        return GroupRingElement(n, (0,) * n)

    @staticmethod
    def one(n: int) -> "GroupRingElement":
        return GroupRingElement(n, (1,) + (0,) * (n - 1))

    @staticmethod
    def gen(n: int, power: int = 1) -> "GroupRingElement":
        c = [0] * n
        c[power % n] = 1
        return GroupRingElement(n, tuple(c))

    @staticmethod
    def from_coeffs(n: int, coeffs) -> "GroupRingElement":
        c = [0] * n
        for i, x in enumerate(coeffs):
            c[i % n] += int(x)
        return GroupRingElement(n, tuple(c))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "GroupRingElement") -> None:
        if self.n != other.n:
            raise RingMismatch(f"Z[Z/{self.n}] vs Z[Z/{other.n}]")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.n, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.n, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.n, tuple(-x for x in self.coeffs))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = [0] * self.n
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[(i + j) % self.n] += x * y
        return GroupRingElement(self.n, tuple(out))

    def scale(self, c: int) -> "GroupRingElement":
        return GroupRingElement(self.n, tuple(c * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def augmentation(self) -> int:
        """Image under the ring map a -> 1."""
        return sum(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                unit = "1" if i == 0 else ("a" if i == 1 else f"a^{i}")
                terms.append(f"{c}*{unit}")
        return " + ".join(terms) if terms else "0"


def norm(n: int) -> GroupRingElement:
    """The norm element 1 + a + ... + a^(n-1)."""
    return GroupRingElement(n, (1,) * n)


def twisted_norm(n: int) -> GroupRingElement:
    """(1 - a) * (1 + a^2 + a^4 + ... + a^n) for even n = 2k.

    The even-power sum runs over k+1 terms including both a^0 and a^n = 1,
    so the leading coefficient is 2.  The element annihilates and is
    annihilated by the norm.
    """
    if n % 2 != 0:
        raise InvalidTwist("twisted norm requires an even group order")
    k = n // 2
    evens = GroupRingElement.from_coeffs(n, [0] * n)
    for i in range(k + 1):
        evens = evens + GroupRingElement.gen(n, 2 * i)
    return (GroupRingElement.one(n) - GroupRingElement.gen(n)) * evens


def regular_representation(x: GroupRingElement) -> IntMatrix:
    """Matrix of left multiplication by x on Z[Z/n] in the basis (a^i)."""
    n = x.n
    rows = [[x.coeffs[(i - j) % n] for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# coefficient systems


@dataclass(frozen=True)
class CoefficientModule:
    """A Z[Z/n]-module structure on Z^rank (or (Z/2)^rank when modulus=2).

    `action` is the matrix by which the generator a acts.  Supported names:

    - "Z":    rank 1, trivial action.
    - "Zw":   rank 1, a acts by -1 (orientation twist; n must be even).
    - "Z2":   rank 1 with modulus 2, trivial action.
    - "ZZ2w": rank 2, a acts by the swap matrix [[0,1],[1,0]] (the group
      ring of the order-2 quotient with its twist; n must be even).
    """

    name: str
    n: int
    rank: int
    action: IntMatrix
    modulus: int

    def transposed(self) -> "CoefficientModule":
        """The same lattice with a acting by the transposed matrix."""
        return replace(self, action=self.action.transpose())

    def rho(self, x: GroupRingElement) -> IntMatrix:
        """Matrix by which x acts on the module."""
        if x.n != self.n:
            raise RingMismatch("element and module live over different group rings")
        out = IntMatrix.zeros(self.rank, self.rank)
        power = IntMatrix.identity(self.rank)
        for i in range(self.n):
            c = x.coeffs[i]
            if c:
                out = out + power.scale(c)
            if i + 1 < self.n:
                power = self.action @ power
        return out


COEFFICIENT_NAMES = ("Z", "Zw", "Z2", "ZZ2w")


def coefficient_module(name: str, n: int) -> CoefficientModule:
    if name == "Z":
        return CoefficientModule("Z", n, 1, IntMatrix.identity(1), 0)
    if name == "Z2":
        return CoefficientModule("Z2", n, 1, IntMatrix.identity(1), 2)
    if name == "Zw":
        if n % 2 != 0:
            raise InvalidTwist("orientation twist requires an even group order")
        return CoefficientModule("Zw", n, 1, IntMatrix.from_rows([[-1]]), 0)
    if name == "ZZ2w":
        if n % 2 != 0:
            raise InvalidTwist("order-2 quotient module requires an even group order")
        return CoefficientModule("ZZ2w", n, 2, IntMatrix.from_rows([[0, 1], [1, 0]]), 0)
    raise InvalidTwist(f"unknown coefficient system {name!r}")


# ---------------------------------------------------------------------------
# complexes of free modules


GroupRingMatrix = tuple[tuple[GroupRingElement, ...], ...]


def gr_matrix(rows: list[list[GroupRingElement]]) -> GroupRingMatrix:
    return tuple(tuple(row) for row in rows)


def gr_mat_mul(a: GroupRingMatrix, b: GroupRingMatrix, n: int) -> GroupRingMatrix:
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise RingMismatch("group-ring matrix shape mismatch")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = GroupRingElement.zero(n)
            for k in range(ca):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return gr_matrix(out)


@dataclass(frozen=True)
class GroupRingComplex:
    """A bounded complex of finitely generated free Z[Z/n]-modules.

    ranks[k] is the rank of the degree-k module; boundaries[k-1] is the
    matrix of d_k : C_k -> C_{k-1} (entries act on the left of column
    vectors).  Consecutive boundaries must compose to zero.
    """

    n: int
    ranks: tuple[int, ...]
    boundaries: tuple[GroupRingMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            raise ValueError("wrong number of boundary matrices")
        for k, mat in enumerate(self.boundaries):
            want = (self.ranks[k], self.ranks[k + 1])
            got = (len(mat), len(mat[0]) if mat else 0)
            if want[0] == 0 or want[1] == 0:
                continue
            if got != want:
                raise ValueError(f"boundary {k + 1} has shape {got}, expected {want}")
            for row in mat:
                for e in row:
                    if e.n != self.n:
                        raise RingMismatch("boundary entry over wrong group ring")
        for k in range(len(self.boundaries) - 1):
            if self.ranks[k] and self.ranks[k + 2]:
                prod = gr_mat_mul(self.boundaries[k], self.boundaries[k + 1], self.n)
                if not all(e.is_zero() for row in prod for e in row):
                    raise ValueError("consecutive boundaries do not compose to zero")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, k: int) -> GroupRingMatrix:
        """Matrix of d_k : C_k -> C_{k-1} (1 <= k <= top)."""
        if not 1 <= k <= self.top:
            raise IndexError(f"no boundary at degree {k}")
        return self.boundaries[k - 1]


def standard_resolution(n: int, top_degree: int) -> GroupRingComplex:
    """The periodic free resolution of Z over Z[Z/n].

    Rank one in every degree; the boundary alternates between
    multiplication by 1 - a (odd degrees) and by the norm (even degrees).
    """
    if n < 1:
        raise ValueError("group order must be >= 1")
    if top_degree < 0:
        raise ValueError("top degree must be >= 0")
    one_minus_a = GroupRingElement.one(n) - GroupRingElement.gen(n)
    nm = norm(n)
    bounds = []
    for k in range(1, top_degree + 1):
        bounds.append(gr_matrix([[one_minus_a if k % 2 == 1 else nm]]))
    return GroupRingComplex(n=n, ranks=(1,) * (top_degree + 1), boundaries=tuple(bounds))


def _expand(mat: GroupRingMatrix, coeff: CoefficientModule, rows: int, cols: int) -> IntMatrix:
    """Block-expand a group-ring matrix: rho of entry (i, j) at block (i, j)."""
    r = coeff.rank
    if rows == 0 or cols == 0:
        return IntMatrix.zeros(rows * r, cols * r)
    blocks = [[coeff.rho(e) for e in row] for row in mat]
    return IntMatrix.from_rows([[x for b in row for x in b.row_list(i)] for row in blocks for i in range(r)])


def coefficients_complex(cx: GroupRingComplex, coeff: CoefficientModule) -> IntComplex:
    """The integer chain complex M (x) cx for the coefficient module M.

    Each free generator contributes `coeff.rank` integer coordinates, and
    the boundary entry d_ij acts through the module structure, so the
    degree-k boundary has rho(d_ij) at block (i, j).  Its homology is
    H_k(cx; M), independent of how far cx extends beyond the queried
    degree.

    Cohomology needs no second complex.  The coboundary of Hom(cx, M)
    sends f to f o d_k, which puts rho(d_ij) at block (j, i).  That is
    the transpose of the boundary of M' (x) cx, where M' is M with the
    transposed action: rho is a polynomial in the action, so rho'(x) is
    rho(x) transposed.  Hence H^k(cx; M) is
    `coefficients_complex(cx, coeff.transposed()).cohomology(k)`.  A
    symmetric action is its own transpose, but the regular module's is
    not, so the transposed module is always passed.
    """
    if coeff.n != cx.n:
        raise RingMismatch("complex and coefficients over different group rings")
    down = tuple(
        _expand(cx.boundary(k), coeff, cx.ranks[k - 1], cx.ranks[k]) for k in range(1, cx.top + 1)
    )
    return IntComplex(dims=tuple(r * coeff.rank for r in cx.ranks), down=down, modulus=coeff.modulus)

"""Integral group rings of finite cyclic groups and resolutions over them.

Elements of Z[Z/n] are stored as coefficient vectors indexed by powers of
the generator a.  The module provides the norm element, its twisted
companion used as the degree-3 boundary of the small model complexes,
free resolutions of Z over Z[Z/n], and the functor that turns a complex
of free Z[Z/n]-modules into an integer chain complex for a chosen
coefficient system; cohomology is read off its transpose.

Cost.  A product of two elements with t and u nonzero terms, t <= u,
adds t rotations of the longer factor, O(t n) with its loops in C, and is
exact at every size.  The package's own products have a factor of at
most two terms, such as 1 - a, or the norm element N, the sum of the
group, as a factor; N x = augmentation(x) N is read in closed form, and
so is the twisted norm, with no product.

Every complex here has rank one in each degree, so a boundary is one
element.  The resolution of Z has period 2: from degree 1 on, d_k = d_(k-2),
so the homology in any degree k >= 1 is that of degree 1 or 2 and needs no
resolution past top degree 3.  `cohomology.cyclic_homology` builds only
that window; a resolution of top degree t >= 2 costs one product to
check, N (1 - a), and t `rho` calls to expand.

A coefficient module is one of the four named ones, of rank at most 2,
whose generator acts by a symmetric involution, so `rho(x)` is O(n): the
sums of the even and of the odd coefficients of x scale the identity and
the action.  Every solve in `postnikov` works in the ring itself, not in
its regular representation.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import add, mul, neg, sub

from .intalg import IntComplex, IntMatrix, Record, set_field


class RingMismatch(ValueError):
    """Operands live over group rings of different cyclic groups."""


class InvalidTwist(ValueError):
    """Requested orientation character does not exist for this group."""


class GroupRingElement(Record):
    """An element of Z[Z/n]: coeffs[i] is the coefficient of a^i."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError("group order must be >= 1")
        if len(coeffs) != n:
            raise ValueError("coefficient vector length must equal the group order")
        set_field(self, "n", n)
        set_field(self, "coeffs", coeffs)

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

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "GroupRingElement") -> None:
        if self.n != other.n:
            raise RingMismatch(f"Z[Z/{self.n}] vs Z[Z/{other.n}]")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.n, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.n, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.n, tuple(map(neg, self.coeffs)))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        n, a, b = self.n, self.coeffs, other.coeffs
        # the ring is commutative: let a be the factor with fewer terms
        if a.count(0) < b.count(0):
            a, b = b, a
        if 0 not in b:
            # the norm element N, the sum of the group, has x N = augmentation(x) N
            for x, y in ((a, b), (b, a)):
                if y.count(1) == n:
                    return GroupRingElement(n, (sum(x),) * n)
        return GroupRingElement(n, _shift_and_add(a, b))

    def scale(self, c: int) -> "GroupRingElement":
        return GroupRingElement(self.n, tuple(map(mul, repeat(c), self.coeffs)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def augmentation(self) -> int:
        """Image under the ring map a -> 1."""
        return sum(self.coeffs)


def _shift_and_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of coefficient vectors a and b in Z[Z/n]: the sum over
    the nonzero a_i of a_i times b rotated by i."""
    n = len(b)
    # a^i b is b rotated by i, read as a view of b b: a^i a^j = a^(i+j mod n)
    rotations = (map(mul, repeat(a[i]), islice(chain(b, b), n - i, 2 * n - i)) for i in compress(range(n), a))
    acc = next(rotations, (0,) * n)
    for vec in rotations:
        acc = tuple(map(add, acc, vec))
    return tuple(acc)


def norm(n: int) -> GroupRingElement:
    """The norm element 1 + a + ... + a^(n-1)."""
    return GroupRingElement(n, (1,) * n)


def twisted_norm(n: int) -> GroupRingElement:
    """(1 - a) * (1 + a^2 + a^4 + ... + a^n) for even n = 2k.

    The even-power sum runs over k+1 terms including both a^0 and a^n = 1,
    so it is 2 + a^2 + ... + a^(n-2), and the product is read in closed
    form: (1 - a) a^(2i) = a^(2i) - a^(2i+1) gives the coefficients
    (2, -2) followed by (1, -1) k - 1 times.  The element annihilates and
    is annihilated by the norm.
    """
    if n % 2 != 0:
        raise InvalidTwist("twisted norm requires an even group order")
    return GroupRingElement(n, (2, -2) + (1, -1) * (n // 2 - 1))


# ---------------------------------------------------------------------------
# coefficient systems


class CoefficientModule(Record):
    """A Z[Z/n]-module structure on Z^rank (or (Z/2)^rank when modulus=2).

    `action` is the matrix by which the generator a acts: a symmetric
    involution, and the identity when n is odd, or construction raises
    ValueError.  Supported names:

    - "Z":    rank 1, trivial action.
    - "Zw":   rank 1, a acts by -1 (orientation twist; n must be even).
    - "Z2":   rank 1 with modulus 2, trivial action.
    - "ZZ2w": rank 2, a acts by the swap matrix [[0,1],[1,0]] (the group
      ring of the order-2 quotient with its twist; n must be even).
    """

    __slots__ = ("name", "n", "rank", "action", "modulus")

    def __init__(self, name: str, n: int, rank: int, action: IntMatrix, modulus: int) -> None:
        r, a = rank, action
        if (a.rows, a.cols) != (r, r):
            raise ValueError(f"module {name!r}: action must be a {r}x{r} matrix")
        if a != a.transpose() or a @ a != IntMatrix.identity(r):
            raise ValueError(f"module {name!r}: the action is not a symmetric involution")
        if n % 2 and a != IntMatrix.identity(r):
            raise ValueError(f"module {name!r}: a group of odd order {n} acts trivially")
        set_field(self, "name", name)
        set_field(self, "n", n)
        set_field(self, "rank", rank)
        set_field(self, "action", action)
        set_field(self, "modulus", modulus)

    def rho(self, x: GroupRingElement) -> IntMatrix:
        """Matrix by which x acts on the module: a^i acts as the identity
        for even i and as the action for odd i (both the identity when n is
        odd), so the sums of the even and of the odd coefficients of x
        scale them."""
        if x.n != self.n:
            raise RingMismatch("element and module live over different group rings")
        r, even, odd = self.rank, sum(x.coeffs[::2]), sum(x.coeffs[1::2])
        out = [odd * y for y in self.action.entries]
        for i in range(r):
            out[i * r + i] += even
        return IntMatrix(r, r, tuple(out))


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


class GroupRingComplex(Record):
    """A bounded complex of free Z[Z/n]-modules of rank one.

    C_0, ..., C_top are each Z[Z/n], and d_k : C_k -> C_(k-1) is
    multiplication by boundaries[k-1].  Consecutive boundaries must
    compose to zero.  The ring is commutative, so every adjacent pair is
    checked by one product per distinct pair up to order: (1 - a, N, 1 - a)
    takes one.
    """

    __slots__ = ("n", "boundaries")

    def __init__(self, n: int, boundaries: tuple[GroupRingElement, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "boundaries", boundaries)
        self.__post_init__()  # a method of its own: immbench's tracer wraps it to time the check

    def __post_init__(self) -> None:
        if any(d.n != self.n for d in self.boundaries):
            raise RingMismatch("boundary over wrong group ring")
        pairs: list[tuple[GroupRingElement, GroupRingElement]] = []
        for d_out, d_in in zip(self.boundaries, self.boundaries[1:]):
            if (d_out, d_in) not in pairs and (d_in, d_out) not in pairs:
                pairs.append((d_out, d_in))
        if not all((d_out * d_in).is_zero() for d_out, d_in in pairs):
            raise ValueError("consecutive boundaries do not compose to zero")

    @property
    def top(self) -> int:
        return len(self.boundaries)

    def boundary(self, k: int) -> GroupRingElement:
        """The element by which d_k : C_k -> C_{k-1} multiplies (1 <= k <= top)."""
        if not 1 <= k <= self.top:
            raise IndexError(f"no boundary at degree {k}")
        return self.boundaries[k - 1]


def standard_resolution(n: int, top_degree: int) -> GroupRingComplex:
    """The periodic free resolution of Z over Z[Z/n].

    Rank one in every degree; the boundary alternates between
    multiplication by 1 - a (odd degrees) and by the norm (even degrees).
    Homology reads a window of top degree at most 3 (module docstring).
    """
    if n < 1:
        raise ValueError("group order must be >= 1")
    if top_degree < 0:
        raise ValueError("top degree must be >= 0")
    one_minus_a = GroupRingElement(n, (1, -1) + (0,) * (n - 2) if n > 1 else (0,))
    nm = norm(n)
    return GroupRingComplex(n, tuple(one_minus_a if k % 2 else nm for k in range(1, top_degree + 1)))


def coefficients_complex(cx: GroupRingComplex, coeff: CoefficientModule) -> IntComplex:
    """The integer chain complex M (x) cx for the coefficient module M.

    Each degree is M itself, `coeff.rank` integer coordinates, and the
    degree-k boundary is rho(d_k), the matrix by which the boundary element
    acts on M.  Its homology is H_k(cx; M), independent of how far cx
    extends beyond the queried degree.  `rho` runs once per degree.

    Cohomology needs no second complex.  The coboundary of Hom(cx, M)
    sends f to f o d_k, which is f followed by rho(d_k).  rho(d_k) is a
    polynomial in the symmetric action, so it is symmetric and equals the
    transposed boundary that `IntComplex.cohomology` reads: H^k(cx; M) is
    `coefficients_complex(cx, coeff).cohomology(k)`.
    """
    if coeff.n != cx.n:
        raise RingMismatch("complex and coefficients over different group rings")
    down = tuple(coeff.rho(d) for d in cx.boundaries)
    return IntComplex(dims=(coeff.rank,) * (cx.top + 1), down=down, modulus=coeff.modulus)

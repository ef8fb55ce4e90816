"""Group (co)homology in the range needed for 4-dimensional immersion theory.

Two kinds of computation live here:

* exact twisted integral homology of finite cyclic groups, done honestly
  from the periodic resolution with coefficient expansion; and

* the mod-2 cohomology rings of cyclic groups and of the rank-4
  free-abelian group in degrees <= 4, stored in closed form (generators
  and relations are classical), together with cup products, the first two
  Steenrod squares, the twisted square that controls fundamental-class
  realizability, and pullbacks along homomorphisms of cyclic groups.

The closed forms depend only on the 2-part of the group order: odd-order
groups have vanishing positive-degree mod-2 cohomology; orders that are
twice an odd number give a polynomial ring on a degree-1 class; orders
divisible by 4 give an exterior class in degree 1 over a polynomial class
in degree 2.

`cyclic_homology` is the one function that builds a resolution for the
homology of Z/n.  Since d_k = d_(k-2) for k >= 1, it reads any degree on a
window of top degree at most 3, so its cost does not grow with k.  It is
memoized (an unbounded `functools.lru_cache`) keyed on its exact arguments
with their types, so 4 and 4.0 never share an entry: it is a pure function
of them, its `Subquotient` is frozen, and the complexes it builds are not
kept.  The computation stays reachable as `cyclic_homology.__wrapped__`.
"""

from __future__ import annotations

import functools
import itertools

from .groupring import (
    InvalidTwist,
    RingMismatch,
    coefficient_module,
    coefficients_complex,
    standard_resolution,
)
from .intalg import FgAbelianGroup, Record, Subquotient, set_field

TOP_DEGREE = 4


class DegreeOutOfRange(ValueError):
    """Requested operation leaves the tabulated degree range 0..4."""


class IllFormedHom(ValueError):
    """The data do not define a homomorphism of cyclic groups."""


def two_adic_valuation(n: int) -> int:
    """v_2(n): the exponent of the largest power of 2 dividing n >= 1."""
    if n < 1:
        raise ValueError("2-adic valuation needs a positive integer")
    return (n & -n).bit_length() - 1


# ---------------------------------------------------------------------------
# twisted integral homology of cyclic groups


def _check_order_and_degree(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("group order must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")


@functools.lru_cache(maxsize=None, typed=True)
def cyclic_homology(n: int, coeff: str, k: int) -> Subquotient:
    """H_k(Z/n; M) with generators, M named in `groupring.COEFFICIENT_NAMES`.

    Read chain-level, not from a table: the boundaries around degree k are
    those around degree j = k (k < 3) or 2 - k % 2 (k >= 3), so degree j of
    the resolution of top degree j + 1 is the same subquotient.
    """
    _check_order_and_degree(n, k)
    module = coefficient_module(coeff, n)
    j = k if k < 3 else 2 - k % 2
    return coefficients_complex(standard_resolution(n, j + 1), module).homology_data(j)


def h_twisted(n: int, w: int, k: int) -> FgAbelianGroup:
    """H_k(Z/n; Z^w): integral homology with w-twisted coefficients.

    w = 0 is the trivial module; w = 1 twists by the unique surjection to
    {+-1}, which requires n to be even.
    """
    _check_order_and_degree(n, k)
    if w not in (0, 1):
        raise InvalidTwist("w must be 0 or 1")
    return cyclic_homology(n, "Zw" if w else "Z", k).group


# ---------------------------------------------------------------------------
# mod-2 cohomology classes


class CyclicMod2Class(Record):
    """An element of H^degree(Z/n; Z/2), degrees 0..4.

    Each group is Z/2 (even n) or 0 (odd n, positive degree), so a single
    bit suffices.  The generator in degree d is t^d when the 2-part of n
    is exactly 2, and t^eps s^j (d = 2j + eps) when 4 divides n, where t
    is the degree-1 generator and s the degree-2 polynomial generator.
    """

    __slots__ = ("n", "degree", "value")

    def __init__(self, n: int, degree: int, value: int) -> None:
        if n < 2:
            raise ValueError("cyclic group order must be >= 2")
        if not 0 <= degree <= TOP_DEGREE:
            raise DegreeOutOfRange(f"degree {degree} outside 0..{TOP_DEGREE}")
        if value not in (0, 1):
            raise ValueError("mod-2 class value must be 0 or 1")
        if value and degree > 0 and n % 2 == 1:
            raise ValueError("positive-degree mod-2 cohomology of an odd-order cyclic group vanishes")
        set_field(self, "n", n)
        set_field(self, "degree", degree)
        set_field(self, "value", value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "CyclicMod2Class") -> "CyclicMod2Class":
        if not isinstance(other, CyclicMod2Class):
            return NotImplemented
        if self.n != other.n:
            raise RingMismatch("classes over different cyclic groups")
        if self.degree != other.degree:
            raise DegreeOutOfRange("cannot add classes of different degrees")
        return CyclicMod2Class(self.n, self.degree, (self.value + other.value) % 2)

    def pretty(self) -> str:
        if self.value == 0:
            return "0"
        if self.degree == 0:
            return "1"
        v = two_adic_valuation(self.n)
        if v == 1:
            return "t" if self.degree == 1 else f"t^{self.degree}"
        j, eps = divmod(self.degree, 2)
        parts = []
        if eps:
            parts.append("t")
        if j == 1:
            parts.append("s")
        elif j > 1:
            parts.append(f"s^{j}")
        return "*".join(parts)


def cyclic_generator(n: int, degree: int) -> CyclicMod2Class:
    """The canonical generator of H^degree(Z/n; Z/2) (zero class if odd n)."""
    value = 1 if (n % 2 == 0 or degree == 0) else 0
    return CyclicMod2Class(n, degree, value)


def cyclic_zero(n: int, degree: int) -> CyclicMod2Class:
    return CyclicMod2Class(n, degree, 0)


def z4_monomials(degree: int) -> list[tuple[int, ...]]:
    """Sorted exterior monomial basis of H^degree(Z^4; Z/2)."""
    if not 0 <= degree <= TOP_DEGREE:
        raise DegreeOutOfRange(f"degree {degree} outside 0..{TOP_DEGREE}")
    return list(itertools.combinations((1, 2, 3, 4), degree))


class Z4Mod2Class(Record):
    """An element of H^degree(Z^4; Z/2): exterior algebra on e1..e4.

    `bits` are coefficients over the sorted monomial basis of the given
    degree (z4_monomials).
    """

    __slots__ = ("degree", "bits")

    def __init__(self, degree: int, bits: tuple[int, ...]) -> None:
        basis = z4_monomials(degree)
        if len(bits) != len(basis):
            raise ValueError(f"degree {degree} needs {len(basis)} coefficients")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("mod-2 coefficients must be 0 or 1")
        set_field(self, "degree", degree)
        set_field(self, "bits", bits)

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    def __add__(self, other: "Z4Mod2Class") -> "Z4Mod2Class":
        if not isinstance(other, Z4Mod2Class):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeOutOfRange("cannot add classes of different degrees")
        return Z4Mod2Class(self.degree, tuple((a + b) % 2 for a, b in zip(self.bits, other.bits)))

    def monomials(self) -> list[tuple[int, ...]]:
        basis = z4_monomials(self.degree)
        return [m for m, b in zip(basis, self.bits) if b]

    def pretty(self) -> str:
        monos = self.monomials()
        if not monos:
            return "0"
        if self.degree == 0:
            return "1"
        return " + ".join("".join(f"e{i}" for i in m) for m in monos)


def z4_class(degree: int, monomials: list[tuple[int, ...]]) -> Z4Mod2Class:
    """Build a class from a list of exterior monomials (mod-2 sum)."""
    basis = z4_monomials(degree)
    bits = [0] * len(basis)
    for m in monomials:
        key = tuple(sorted(m))
        if len(set(key)) != len(key) or key not in basis:
            raise ValueError(f"not a degree-{degree} monomial: {m}")
        bits[basis.index(key)] ^= 1
    return Z4Mod2Class(degree, tuple(bits))


# ---------------------------------------------------------------------------
# products and Steenrod operations


def cup(x, y):
    """Cup product; total degree must stay within the tabulated range."""
    if isinstance(x, CyclicMod2Class) and isinstance(y, CyclicMod2Class):
        if x.n != y.n:
            raise RingMismatch("classes over different cyclic groups")
        d = x.degree + y.degree
        if d > TOP_DEGREE:
            raise DegreeOutOfRange(f"product degree {d} exceeds {TOP_DEGREE}")
        if x.value == 0 or y.value == 0:
            return cyclic_zero(x.n, d)
        if x.degree == 0 or y.degree == 0:
            return CyclicMod2Class(x.n, d, 1)
        v = two_adic_valuation(x.n)
        if v == 0:
            return cyclic_zero(x.n, d)
        if v >= 2 and x.degree % 2 == 1 and y.degree % 2 == 1:
            # the degree-1 class squares to zero when 4 divides n
            return cyclic_zero(x.n, d)
        return CyclicMod2Class(x.n, d, 1)
    if isinstance(x, Z4Mod2Class) and isinstance(y, Z4Mod2Class):
        d = x.degree + y.degree
        if d > TOP_DEGREE:
            raise DegreeOutOfRange(f"product degree {d} exceeds {TOP_DEGREE}")
        basis = z4_monomials(d)
        bits = [0] * len(basis)
        for mx in x.monomials():
            for my in y.monomials():
                if set(mx) & set(my):
                    continue
                bits[basis.index(tuple(sorted(mx + my)))] ^= 1
        return Z4Mod2Class(d, tuple(bits))
    raise RingMismatch("cup product requires two classes over the same ring")


def sq1(x):
    """First Steenrod square (mod-2 Bockstein).

    On the cyclic rings: zero unless the 2-part of n is exactly 2, where
    the degree-1 generator satisfies Sq^1 t = t^2 and the operation is a
    derivation, so Sq^1(t^k) = k t^(k+1).  On the rank-4 free-abelian
    group every class lifts integrally, so Sq^1 = 0.
    """
    if isinstance(x, CyclicMod2Class):
        if x.degree + 1 > TOP_DEGREE:
            raise DegreeOutOfRange("Sq^1 output degree exceeds the tabulated range")
        if x.value == 0 or x.n % 2 == 1:
            return cyclic_zero(x.n, x.degree + 1)
        v = two_adic_valuation(x.n)
        if v == 1:
            return CyclicMod2Class(x.n, x.degree + 1, x.degree % 2)
        return cyclic_zero(x.n, x.degree + 1)
    if isinstance(x, Z4Mod2Class):
        if x.degree + 1 > TOP_DEGREE:
            raise DegreeOutOfRange("Sq^1 output degree exceeds the tabulated range")
        return Z4Mod2Class(x.degree + 1, (0,) * len(z4_monomials(x.degree + 1)))
    raise RingMismatch("Sq^1 requires a tabulated mod-2 class")


def sq2(x):
    """Second Steenrod square: zero below degree 2, the cup square in degree 2."""
    if isinstance(x, (CyclicMod2Class, Z4Mod2Class)):
        if x.degree + 2 > TOP_DEGREE:
            raise DegreeOutOfRange("Sq^2 output degree exceeds the tabulated range")
        if x.degree < 2:
            if isinstance(x, CyclicMod2Class):
                return cyclic_zero(x.n, x.degree + 2)
            return Z4Mod2Class(x.degree + 2, (0,) * len(z4_monomials(x.degree + 2)))
        return cup(x, x)
    raise RingMismatch("Sq^2 requires a tabulated mod-2 class")


def sq2_w(w1, w2, x):
    """The twisted square Sq^2_w(x) = Sq^2 x + Sq^1 x . w1 + x . w2.

    w1 must be a degree-1 class and w2 a degree-2 class over the same ring
    as x.  This is the operation whose dual gives the differentials of the
    bordism spectral sequence on the 4-line.
    """
    for cls, want in ((w1, 1), (w2, 2)):
        if not isinstance(cls, type(x)):
            raise RingMismatch("characteristic classes and argument live over different rings")
        if cls.degree != want:
            raise DegreeOutOfRange(f"characteristic class of degree {cls.degree}, expected {want}")
    if isinstance(x, CyclicMod2Class) and (w1.n != x.n or w2.n != x.n):
        raise RingMismatch("characteristic classes over a different cyclic group")
    return sq2(x) + cup(sq1(x), w1) + cup(x, w2)


# ---------------------------------------------------------------------------
# homomorphisms of cyclic groups and pullbacks


class CyclicHom(Record):
    """The homomorphism Z/l1 -> Z/l2 sending the generator to m-th power."""

    __slots__ = ("l1", "l2", "m")

    def __init__(self, l1: int, l2: int, m: int) -> None:
        if l1 < 2 or l2 < 2:
            raise IllFormedHom("cyclic group orders must be >= 2")
        if not 0 <= m < l2:
            raise IllFormedHom("power must be reduced modulo the target order")
        if (m * l1) % l2 != 0:
            raise IllFormedHom(f"a -> a^{m} does not define Z/{l1} -> Z/{l2}")
        set_field(self, "l1", l1)
        set_field(self, "l2", l2)
        set_field(self, "m", m)


def pullback(phi: CyclicHom, x: CyclicMod2Class) -> CyclicMod2Class:
    """Pullback of a mod-2 class along a homomorphism of cyclic groups.

    In degree 2j the multiplier is (m*l1/l2)^j, in degree 2j+1 it is
    m*(m*l1/l2)^j, both read mod 2; degree-0 classes restrict unchanged.
    """
    if x.n != phi.l2:
        raise RingMismatch("class does not live over the target group")
    k = x.degree
    if k == 0:
        return CyclicMod2Class(phi.l1, 0, x.value)
    if phi.l1 % 2 == 1:
        return cyclic_zero(phi.l1, k)
    scale = (phi.m * phi.l1) // phi.l2
    j = k // 2
    mult = pow(scale, j, 2)
    if k % 2 == 1:
        mult = (mult * phi.m) % 2
    return CyclicMod2Class(phi.l1, k, (x.value * mult) % 2)

"""Differentials on the 4-line and realizability of fundamental classes.

For the supported fundamental groups (trivial, finite cyclic, infinite
cyclic, free abelian of rank 4) this module computes the two degree-2
differentials of the bordism spectral sequence that act on the 4-line:

* d2_40 : H_4(pi; Z^w1) -> H_2(pi; Z/2), the mod-2 reduction followed by
  the dual of the twisted square x -> Sq^2 x + Sq^1 x . w1 + x . w2; and
* d2_31 : H_3(pi; Z/2) -> H_1(pi; Z/2), the dual of the twisted square on
  degree-1 classes.

Their kernel/cokernel decide which multiples of a fundamental class are
realized by closed 4-manifolds in the given (pi, w1, w2) family: when the
manifold is not almost spin (w2 = inf) everything is realized; otherwise
the realized classes form a subgroup of ker(d2_40), with equality
guaranteed when d2_31 is onto, and in the cyclic non-orientable
almost-spin family an explicit construction realizes the whole kernel.

Cyclic computations are done chain-level on the periodic resolution; the
rank-4 free-abelian computations use the closed-form exterior cohomology
ring (the group is a 4-torus group, so reduction of the fundamental class
is the nonzero mod-2 class and the pairing with degree-4 cohomology is
coefficient extraction).

`realizable_classes` is memoized (an unbounded `functools.lru_cache`,
keyed on its exact arguments with their types), as is
`cohomology.cyclic_homology` underneath it, which holds the degree-4
subquotients that `h_twisted` and `_cyclic_reduction_bit` read.  Both are
pure functions of their arguments, and what is kept is frozen: a
`RealizableSet` and the `Subquotient`s.  The chain complexes are not
kept.  So each distinct family is computed once per process, however many
`ImmersionType`s are built from it, and the computation stays reachable
as `__wrapped__`.
"""

from __future__ import annotations

import functools
from math import gcd

from .cohomology import (
    CyclicMod2Class,
    Z4Mod2Class,
    cyclic_generator,
    cyclic_homology,
    cyclic_zero,
    h_twisted,
    sq2_w,
    z4_class,
    z4_monomials,
)
from .intalg import FgAbelianGroup, IntMatrix, Record, f2_rank, set_field

FAMILIES = ("trivial", "cyclic", "Z", "Z4")

W2_SYMBOLS = ("0", "1", "inf", "e12", "e12+e34")


class UnsupportedFamily(ValueError):
    """Fundamental group outside the supported families."""


def _validate(family: str, n: int | None, w1: int, w2: str) -> None:
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unsupported fundamental group family {family!r}")
    if w1 not in (0, 1):
        raise ValueError("w1 must be 0 or 1")
    if w2 not in W2_SYMBOLS:
        raise ValueError(f"w2 must be one of {W2_SYMBOLS}")
    if family == "cyclic":
        if n is None or n < 2:
            raise ValueError("cyclic family needs an order n >= 2")
        if w1 == 1 and n % 2 == 1:
            raise ValueError("odd-order cyclic groups admit no orientation character")
        if w2 == "1" and n % 2 == 1:
            raise ValueError("odd-order cyclic groups have no nonzero degree-2 class")
    else:
        if n is not None:
            raise ValueError(f"family {family!r} does not take an order parameter")
    if family == "trivial":
        if w1 != 0:
            raise ValueError("the trivial group has no nonzero degree-1 class")
        if w2 == "1":
            raise ValueError("the trivial group has no nonzero degree-2 class")
    if family == "Z":
        if w2 == "1":
            raise ValueError("the infinite cyclic group has no nonzero degree-2 class")
    if family == "Z4":
        if w1 != 0:
            raise ValueError("rank-4 free-abelian types are supported in the orientable case only")
        if w2 == "1":
            raise ValueError("w2 symbols for the rank-4 family are 0, e12, e12+e34, inf")
    elif w2 in ("e12", "e12+e34"):
        raise ValueError("exterior degree-2 symbols require the rank-4 free-abelian family")


class Subgroup(Record):
    """A subgroup of Z (modulus 0) or of Z/modulus, generated by one element.

    modulus = 1 encodes the trivial ambient group.  `generator` is a
    non-negative representative; the subgroup consists of its multiples.
    """

    __slots__ = ("modulus", "generator")

    def __init__(self, modulus: int, generator: int) -> None:
        if modulus < 0 or generator < 0:
            raise ValueError("modulus and generator must be non-negative")
        if modulus:
            if generator >= max(modulus, 1):
                raise ValueError("generator must be reduced modulo the ambient order")
        set_field(self, "modulus", modulus)
        set_field(self, "generator", generator)

    def contains(self, c: int) -> bool:
        if self.modulus == 0:
            return c == 0 if self.generator == 0 else c % self.generator == 0
        g = gcd(self.generator, self.modulus)
        return c % g == 0

    def is_everything(self) -> bool:
        if self.modulus == 0:
            return self.generator == 1
        return gcd(self.generator, self.modulus) == 1

    def is_trivial(self) -> bool:
        if self.modulus == 0:
            return self.generator == 0
        return self.generator == 0 or self.modulus == 1

    def group(self) -> FgAbelianGroup:
        """Isomorphism type of the subgroup itself."""
        if self.modulus == 0:
            return FgAbelianGroup.zero() if self.generator == 0 else FgAbelianGroup.free(1)
        return FgAbelianGroup.cyclic(self.modulus // gcd(self.generator, self.modulus) if self.generator else 1)

    def pretty(self) -> str:
        if self.is_trivial():
            return "0"
        if self.modulus == 0:
            return "Z" if self.generator == 1 else f"{self.generator}Z"
        g = gcd(self.generator, self.modulus)
        return "all" if g == 1 else f"{g}*(Z/{self.modulus})"


class D2Map(Record, defaults={"kernel": None, "cokernel": None}):
    """A differential on the 4-line in canonical mod-2 coordinates.

    `matrix` has one row per codomain coordinate and one column per domain
    generator (entries mod 2).  For the (4,0) differential the kernel is
    recorded as a subgroup of the domain; for the (3,1) differential the
    cokernel is recorded.
    """

    __slots__ = ("domain", "codomain", "matrix", "kernel", "cokernel")


def _w_classes_cyclic(n: int, w1: int, w2: str) -> tuple[CyclicMod2Class, CyclicMod2Class]:
    c1 = cyclic_generator(n, 1) if w1 else cyclic_zero(n, 1)
    c2 = cyclic_generator(n, 2) if w2 == "1" else cyclic_zero(n, 2)
    return c1, c2


def _w2_class_z4(w2: str) -> Z4Mod2Class:
    if w2 == "0":
        return z4_class(2, [])
    if w2 == "e12":
        return z4_class(2, [(1, 2)])
    if w2 == "e12+e34":
        return z4_class(2, [(1, 2), (3, 4)])
    raise ValueError(f"no degree-2 class for symbol {w2!r}")


def _cyclic_reduction_bit(n: int) -> int:
    """Whether the mod-2 reduction H_4(Z/n; Z^w) -> H_4(Z/n; Z/2) is nonzero.

    Computed chain-level: take the canonical generator of the twisted
    degree-4 homology on the periodic resolution and read off its class in
    the mod-2 homology of the same resolution.  n must be even; both
    groups are then Z/2.
    """
    gen = cyclic_homology(n, "Zw", 4).generator(0)
    (bit,) = cyclic_homology(n, "Z2", 4).class_of(list(gen))
    return bit % 2


def d2_40(family: str, n: int | None = None, w1: int = 0, w2: str = "0") -> D2Map:
    """The differential H_4(pi; Z^w1) -> H_2(pi; Z/2) on the 4-line."""
    _validate(family, n, w1, w2)
    if w2 == "inf":
        raise ValueError("the differential is only defined in the almost-spin case (w2 != inf)")
    if family in ("trivial", "Z") or (family == "cyclic" and w1 == 0):
        # H_4 vanishes: trivial/infinite-cyclic groups have no homology up
        # there, and orientable cyclic groups have H_4(Z/n; Z) = 0.
        domain = FgAbelianGroup.zero()
        if family == "cyclic" and n % 2 == 0:
            codomain = FgAbelianGroup.cyclic(2)
        else:
            # trivial and infinite-cyclic groups, and odd cyclic groups,
            # have no mod-2 homology in degree 2
            codomain = FgAbelianGroup.zero()
        return D2Map(domain, codomain, (), kernel=Subgroup(1, 0))
    if family == "cyclic":
        domain = h_twisted(n, 1, 4)
        if domain != FgAbelianGroup.cyclic(2):
            raise AssertionError(f"H_4(Z/{n}; Z^w) is {domain}, expected Z/2")
        red = _cyclic_reduction_bit(n)
        c1, c2 = _w_classes_cyclic(n, w1, w2)
        sq_bit = sq2_w(c1, c2, cyclic_generator(n, 2)).value
        entry = red & sq_bit
        kernel = Subgroup(2, 0 if entry else 1)
        return D2Map(domain, FgAbelianGroup.cyclic(2), ((entry,),), kernel=kernel)
    # rank-4 free abelian, orientable: H_4 = Z, reduction of the generator
    # is the nonzero mod-2 class; pair with the twisted square of each
    # degree-2 monomial.  Degree 4 has the one monomial e1e2e3e4, so the
    # pairing is its coefficient bits[0].
    w2c = _w2_class_z4(w2)
    w1c = Z4Mod2Class(1, (0, 0, 0, 0))
    col = [sq2_w(w1c, w2c, z4_class(2, [mono])).bits[0] for mono in z4_monomials(2)]
    matrix = tuple((b,) for b in col)
    kernel = Subgroup(0, 1 if all(b == 0 for b in col) else 2)
    return D2Map(FgAbelianGroup.free(1), FgAbelianGroup(0, (2,) * 6), matrix, kernel=kernel)


def d2_31(family: str, n: int | None = None, w1: int = 0, w2: str = "0") -> D2Map:
    """The differential H_3(pi; Z/2) -> H_1(pi; Z/2) on the 4-line."""
    _validate(family, n, w1, w2)
    if w2 == "inf":
        raise ValueError("the differential is only defined in the almost-spin case (w2 != inf)")
    if family == "trivial":
        z = FgAbelianGroup.zero()
        return D2Map(z, z, (), cokernel=z)
    if family == "Z":
        # H_3 = 0, H_1 = Z/2: the zero map with cokernel Z/2.
        return D2Map(FgAbelianGroup.zero(), FgAbelianGroup.cyclic(2), ((),), cokernel=FgAbelianGroup.cyclic(2))
    if family == "cyclic":
        if n % 2 == 1:
            z = FgAbelianGroup.zero()
            return D2Map(z, z, (), cokernel=z)
        c1, c2 = _w_classes_cyclic(n, w1, w2)
        bit = sq2_w(c1, c2, cyclic_generator(n, 1)).value
        ck = FgAbelianGroup.zero() if bit else FgAbelianGroup.cyclic(2)
        return D2Map(FgAbelianGroup.cyclic(2), FgAbelianGroup.cyclic(2), ((bit,),), cokernel=ck)
    # rank-4 free abelian: matrix over the dual bases, one column per
    # degree-3 monomial, one row per degree-1 monomial; the (i, J) entry is
    # the J-coefficient of the twisted square of e_i.
    w2c = _w2_class_z4(w2)
    w1c = Z4Mod2Class(1, (0, 0, 0, 0))
    deg3 = z4_monomials(3)
    rows = []
    for i in range(1, 5):
        out = sq2_w(w1c, w2c, z4_class(1, [(i,)]))
        rows.append(tuple(out.bits[deg3.index(j)] for j in deg3))
    mat = IntMatrix.from_rows([list(r) for r in rows])
    rank = f2_rank(mat)
    ck = FgAbelianGroup(0, (2,) * (4 - rank)) if rank < 4 else FgAbelianGroup.zero()
    return D2Map(FgAbelianGroup(0, (2,) * 4), FgAbelianGroup(0, (2,) * 4), tuple(rows), cokernel=ck)


class RealizableSet(Record):
    """Which multiples of a degree-4 class occur for the given family.

    `ambient` is H_4(pi; Z^w1) in canonical form; `subgroup` the set of
    realized (determined = True) or potentially realized (determined =
    False, an upper bound) classes.
    """

    __slots__ = ("ambient", "determined", "subgroup")


def ambient_subgroup_modulus(family: str, n: int | None, w1: int) -> int:
    """Modulus describing H_4(pi; Z^w1): 0 for Z, k for Z/k (1 = trivial)."""
    if family == "Z4":
        return 0
    if family == "cyclic" and w1 == 1:
        order = h_twisted(n, 1, 4).order()
        if order is None:
            raise AssertionError(f"H_4(Z/{n}; Z^w) is infinite, expected a finite group")
        return order
    return 1


@functools.lru_cache(maxsize=None, typed=True)
def realizable_classes(family: str, n: int | None = None, w1: int = 0, w2: str = "0") -> RealizableSet:
    """The set of realized fundamental classes in H_4(pi; Z^w1).

    When w2 = inf the whole group is realized.  Otherwise the realized set
    sits inside ker(d2_40); it equals the kernel when d2_31 is onto and in
    the cyclic non-orientable almost-spin family (explicit construction);
    in the remaining cases the kernel is only an upper bound.
    """
    _validate(family, n, w1, w2)
    modulus = ambient_subgroup_modulus(family, n, w1)
    if modulus == 0:
        ambient = FgAbelianGroup.free(1)
    else:
        ambient = FgAbelianGroup.cyclic(modulus)
    if w2 == "inf":
        full = Subgroup(modulus, 0 if modulus == 1 else 1)
        return RealizableSet(ambient, True, full)
    kernel = d2_40(family, n, w1, w2).kernel
    if kernel is None:
        raise AssertionError("d2_40 recorded no kernel")
    if kernel.is_trivial():
        return RealizableSet(ambient, True, kernel)
    if family == "cyclic" and w1 == 1 and w2 == "1":
        return RealizableSet(ambient, True, kernel)
    if d2_31(family, n, w1, w2).cokernel.is_zero():
        return RealizableSet(ambient, True, kernel)
    return RealizableSet(ambient, False, kernel)

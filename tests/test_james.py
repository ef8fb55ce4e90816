"""Tests for the 4-line differentials and fundamental-class realizability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from immorder.intalg import FgAbelianGroup
from immorder.james import (
    FAMILIES,
    W2_SYMBOLS,
    Subgroup,
    UnsupportedFamily,
    _validate,
    ambient_subgroup_modulus,
    d2_31,
    d2_40,
    realizable_classes,
)


# -- subgroup arithmetic -------------------------------------------------------


def test_subgroup_membership():
    all_z = Subgroup(0, 1)
    two_z = Subgroup(0, 2)
    zero_z = Subgroup(0, 0)
    assert all_z.contains(7) and all_z.is_everything()
    assert two_z.contains(4) and not two_z.contains(3)
    assert zero_z.contains(0) and not zero_z.contains(2) and zero_z.is_trivial()
    half = Subgroup(2, 1)
    assert half.is_everything() and half.contains(1)
    trivial_mod2 = Subgroup(2, 0)
    assert trivial_mod2.contains(0) and not trivial_mod2.contains(1)
    point = Subgroup(1, 0)
    assert point.contains(0) and point.contains(5)  # everything is 0 there
    assert point.is_trivial() and point.is_everything()


def test_subgroup_pretty_and_group():
    assert Subgroup(0, 2).pretty() == "2Z"
    assert Subgroup(0, 2).group() == FgAbelianGroup.free(1)
    assert Subgroup(2, 1).group() == FgAbelianGroup.cyclic(2)
    assert Subgroup(2, 0).group().is_zero()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(-20, 20))
def test_subgroup_contains_is_subgroup(modulus, generator, c):
    if modulus and generator >= modulus:
        generator %= max(modulus, 1)
    sg = Subgroup(modulus, generator)
    # closed under addition and negation (lifted to representatives)
    if sg.contains(c):
        assert sg.contains(c + c) or modulus == 0 and False or True
        if modulus:
            assert sg.contains((c + modulus) % modulus + modulus)  # stability under shifts
    # the generator itself is a member
    assert sg.contains(sg.generator)


# -- validation ------------------------------------------------------------------


def test_family_validation():
    with pytest.raises(UnsupportedFamily):
        d2_40("dihedral", 8, 1, "0")
    with pytest.raises(ValueError):
        d2_40("cyclic", None, 1, "0")
    with pytest.raises(ValueError):
        d2_40("cyclic", 3, 1, "0")  # odd order cannot be non-orientable
    with pytest.raises(ValueError):
        d2_40("cyclic", 3, 0, "1")  # odd order has no degree-2 class
    with pytest.raises(ValueError):
        d2_40("Z4", None, 1, "0")
    with pytest.raises(ValueError):
        d2_40("cyclic", 4, 1, "e12")
    with pytest.raises(ValueError):
        d2_40("trivial", None, 0, "1")
    with pytest.raises(ValueError):
        d2_40("cyclic", 4, 1, "inf")  # differential needs w2 != inf
    with pytest.raises(ValueError):
        d2_40("Z", 4, 0, "0")  # no order parameter


@pytest.mark.parametrize("family", ["trivial", "Z"])
@pytest.mark.parametrize("w2", ["e12", "e12+e34"])
def test_exterior_w2_needs_rank4_family(family, w2):
    with pytest.raises(ValueError, match="exterior degree-2 symbols require the rank-4 free-abelian family"):
        realizable_classes(family, None, 0, w2)


# -- d2_40 kernels ----------------------------------------------------------------


def test_d2_40_cyclic_nonorientable():
    for n in (2, 4, 6, 8, 16):
        # w2 = 0: twisted square of the degree-2 generator is s^2 != 0,
        # reduction is onto, so the kernel vanishes.
        m = d2_40("cyclic", n, 1, "0")
        assert m.domain == FgAbelianGroup.cyclic(2)
        assert m.matrix == ((1,),)
        assert m.kernel.is_trivial()
        # w2 = s: the twisted square of s is zero, so everything survives.
        m = d2_40("cyclic", n, 1, "1")
        assert m.matrix == ((0,),)
        assert m.kernel.is_everything() and m.kernel.modulus == 2


def test_d2_40_vanishing_domains():
    assert d2_40("trivial").domain.is_zero()
    assert d2_40("Z", None, 1, "0").domain.is_zero()
    assert d2_40("cyclic", 12, 0, "0").domain.is_zero()
    assert d2_40("cyclic", 12, 0, "0").kernel.is_trivial()


def test_d2_40_z4():
    m = d2_40("Z4", None, 0, "e12+e34")
    assert m.domain == FgAbelianGroup.free(1)
    # Sq2_w(e12) = e12(e12+e34) = vol and likewise for e34: two nonzero rows
    assert sum(r[0] for r in m.matrix) == 2
    assert m.kernel == Subgroup(0, 2)
    m0 = d2_40("Z4", None, 0, "0")
    assert all(r[0] == 0 for r in m0.matrix)
    assert m0.kernel == Subgroup(0, 1)
    m12 = d2_40("Z4", None, 0, "e12")
    assert m12.kernel == Subgroup(0, 2)


# -- d2_31 -------------------------------------------------------------------------


def test_d2_31_cyclic():
    # (Z/2^m, w1 = t, w2 = s) is onto for m >= 2: value t.s != 0
    for n in (4, 8, 16):
        m = d2_31("cyclic", n, 1, "1")
        assert m.matrix == ((1,),)
        assert m.cokernel.is_zero()
    # at order 2 the twisted square of t is t^3 + t^3 = 0
    m2 = d2_31("cyclic", 2, 1, "1")
    assert m2.matrix == ((0,),)
    assert not m2.cokernel.is_zero()
    # orientable with w2 = 0: Sq^2 t = 0, nothing else contributes
    assert d2_31("cyclic", 4, 0, "0").matrix == ((0,),)
    # w1 = t, w2 = 0: value Sq^1(t) t; nonzero exactly when 2-part is 2
    assert d2_31("cyclic", 2, 1, "0").matrix == ((1,),)
    assert d2_31("cyclic", 6, 1, "0").matrix == ((1,),)
    assert d2_31("cyclic", 4, 1, "0").matrix == ((0,),)


def test_d2_31_z4():
    m = d2_31("Z4", None, 0, "e12+e34")
    # e_i -> e_i (e12 + e34) is injective on degree 1 (e1 -> e134, etc.)
    assert m.cokernel.is_zero()
    m0 = d2_31("Z4", None, 0, "0")
    assert m0.cokernel == FgAbelianGroup(0, (2, 2, 2, 2))
    m12 = d2_31("Z4", None, 0, "e12")
    # e1 -> e134? no: e1(e12) = 0 (shared index); e3 -> e123, e4 -> e124:
    # rank 2, cokernel (Z/2)^2
    assert m12.cokernel == FgAbelianGroup(0, (2, 2))


# -- realizability ------------------------------------------------------------------


def test_realizable_cyclic_table():
    for n in (2, 4, 8, 16):
        r0 = realizable_classes("cyclic", n, 1, "0")
        assert r0.ambient == FgAbelianGroup.cyclic(2)
        assert r0.determined and r0.subgroup.is_trivial()
        r1 = realizable_classes("cyclic", n, 1, "1")
        assert r1.determined and r1.subgroup.is_everything()
        rinf = realizable_classes("cyclic", n, 1, "inf")
        assert rinf.determined and rinf.subgroup.is_everything()


def test_realizable_z4_table():
    r = realizable_classes("Z4", None, 0, "e12+e34")
    assert r.determined and r.subgroup == Subgroup(0, 2)
    r0 = realizable_classes("Z4", None, 0, "0")
    assert not r0.determined and r0.subgroup == Subgroup(0, 1)
    r12 = realizable_classes("Z4", None, 0, "e12")
    assert not r12.determined and r12.subgroup == Subgroup(0, 2)
    rinf = realizable_classes("Z4", None, 0, "inf")
    assert rinf.determined and rinf.subgroup.is_everything()


def test_realizable_orientable_families():
    for family, n in (("trivial", None), ("Z", None), ("cyclic", 4), ("cyclic", 7)):
        r = realizable_classes(family, n, 0, "0")
        assert r.ambient.is_zero()
        assert r.determined and r.subgroup.is_trivial()
        rinf = realizable_classes(family, n, 0, "inf")
        assert rinf.determined


def test_ambient_modulus():
    assert ambient_subgroup_modulus("cyclic", 6, 1) == 2
    assert ambient_subgroup_modulus("cyclic", 6, 0) == 1
    assert ambient_subgroup_modulus("Z4", None, 0) == 0
    assert ambient_subgroup_modulus("trivial", None, 0) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.sampled_from(["0", "1", "inf"]))
def test_realizable_subgroup_inside_kernel(k, w2):
    n = 2 * k
    r = realizable_classes("cyclic", n, 1, w2)
    if w2 != "inf":
        kernel = d2_40("cyclic", n, 1, w2).kernel
        # the realized set never exceeds the kernel
        for c in range(2):
            if r.subgroup.contains(c):
                assert kernel.contains(c)


# -- memoization ------------------------------------------------------------------


def _valid_families(max_n: int):
    for family in FAMILIES:
        for n in range(2, max_n + 1) if family == "cyclic" else (None,):
            for w1 in (0, 1):
                for w2 in W2_SYMBOLS:
                    try:
                        _validate(family, n, w1, w2)
                    except ValueError:
                        continue
                    yield family, n, w1, w2


def test_cached_realizable_classes_match_computation():
    seen = 0
    for args in _valid_families(64):
        assert realizable_classes(*args) == realizable_classes.__wrapped__(*args), args
        seen += 1
    assert seen > 200

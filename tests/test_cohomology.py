"""Tests for twisted homology, tabulated mod-2 rings, and Steenrod squares."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from immorder import cohomology
from immorder.cohomology import (
    CyclicHom,
    CyclicMod2Class,
    DegreeOutOfRange,
    IllFormedHom,
    Z4Mod2Class,
    cup,
    cyclic_generator,
    cyclic_homology,
    cyclic_zero,
    h_twisted,
    pullback,
    sq1,
    sq2,
    sq2_w,
    two_adic_valuation,
    z4_class,
    z4_monomials,
)
from immorder.groupring import COEFFICIENT_NAMES, GroupRingElement, InvalidTwist, RingMismatch, coefficient_module
from immorder.intalg import FgAbelianGroup, IntComplex, IntMatrix

from oracles import DiagonalOracle, bockstein_oracle, pullback_multiplier_oracle, reference_resolution_boundaries


# -- twisted homology ----------------------------------------------------------


def test_h_twisted_degree_four():
    for k in range(1, 9):
        assert h_twisted(2 * k, 1, 4) == FgAbelianGroup.cyclic(2)
    for n in range(2, 13):
        assert h_twisted(n, 0, 4) == FgAbelianGroup.zero()


def test_h_twisted_low_degrees():
    # twisted: H_0 = Z/2, H_1 = ker(0)/im(2)?  degree pattern for even n:
    # coinvariants Z/2 in degree 0, then alternating 0 and Z/2... computed
    # honestly; spot-check the classical values for n = 2.
    assert h_twisted(2, 1, 0) == FgAbelianGroup.cyclic(2)
    assert h_twisted(2, 1, 1) == FgAbelianGroup.zero()
    assert h_twisted(2, 1, 2) == FgAbelianGroup.cyclic(2)
    assert h_twisted(4, 1, 2) == FgAbelianGroup.cyclic(2)


def test_h_twisted_requires_even_order_for_twist():
    with pytest.raises(InvalidTwist):
        h_twisted(3, 1, 4)
    with pytest.raises(InvalidTwist):
        h_twisted(2, 2, 4)


def test_cached_h_twisted_matches_computation():
    for n in range(1, 65):
        for w in (0, 1) if n % 2 == 0 else (0,):
            for k in range(7):
                assert h_twisted(n, w, k) == cyclic_homology.__wrapped__(n, "Zw" if w else "Z", k).group, (n, w, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.sampled_from(COEFFICIENT_NAMES), st.integers(min_value=0, max_value=64))
def test_cyclic_homology_matches_full_length_reference(n, name, k):
    """Degree k read on the window is degree k of the resolution built
    degree by degree up to k + 1, with fresh elements and its own rho in
    each degree: the same subquotient, generators and all."""
    assume(n % 2 == 0 or name in ("Z", "Z2"))
    mod = coefficient_module(name, n)
    ref = tuple(IntMatrix.from_rows(m) for m in reference_resolution_boundaries(n, k + 1, mod.action.to_rows()))
    ref_chain = IntComplex((mod.rank,) * (k + 2), ref, mod.modulus)
    assert cyclic_homology.__wrapped__(n, name, k) == ref_chain.homology_data(k)


@pytest.mark.parametrize("name", COEFFICIENT_NAMES)
def test_cyclic_homology_builds_only_the_window(monkeypatch, name):
    """Any degree up to 64 reads a resolution of top degree at most 3,
    checked with at most two group-ring products."""
    tops, products = [], []
    build, multiply = cohomology.standard_resolution, GroupRingElement.__mul__

    def counting_build(n, top):
        tops.append(top)
        return build(n, top)

    def counting_multiply(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(cohomology, "standard_resolution", counting_build)
    monkeypatch.setattr(GroupRingElement, "__mul__", counting_multiply)
    for k in range(65):
        products.clear()
        cyclic_homology.__wrapped__(12, name, k)
        assert len(products) <= 2, k
    assert len(tops) == 65 and max(tops) <= 3


def test_h_twisted_cache_keys_on_argument_types():
    h_twisted(4, 1, 4)
    # 4.0 is not an order: it fails as the computation fails, cached 4 or not
    with pytest.raises(TypeError):
        h_twisted(4.0, 1, 4)


def test_two_adic_valuation():
    for n in range(1, 200):
        v = two_adic_valuation(n)
        assert n % 2**v == 0 and (n // 2**v) % 2 == 1
    with pytest.raises(ValueError):
        two_adic_valuation(0)


# -- tabulated rings: construction ----------------------------------------------


def test_class_validation():
    with pytest.raises(ValueError):
        CyclicMod2Class(3, 1, 1)  # odd order, positive degree
    with pytest.raises(DegreeOutOfRange):
        CyclicMod2Class(2, 5, 0)
    with pytest.raises(ValueError):
        Z4Mod2Class(2, (1, 0))  # wrong basis length
    assert cyclic_generator(3, 2).is_zero()
    assert cyclic_generator(6, 2).value == 1
    assert len(z4_monomials(2)) == 6
    assert z4_class(2, [(1, 2), (2, 1)]).is_zero()  # same monomial twice


def test_pretty_names():
    assert cyclic_generator(2, 3).pretty() == "t^3"
    assert cyclic_generator(4, 3).pretty() == "t*s"
    assert cyclic_generator(4, 4).pretty() == "s^2"
    assert z4_class(2, [(1, 2), (3, 4)]).pretty() == "e1e2 + e3e4"


# -- cup products -----------------------------------------------------------------


def test_cup_squares_of_degree_one():
    # 2-part exactly 2: t*t = s generator; 2-part >= 4: t*t = 0
    t2 = cyclic_generator(2, 1)
    assert cup(t2, t2).value == 1
    t6 = cyclic_generator(6, 1)
    assert cup(t6, t6).value == 1
    t4 = cyclic_generator(4, 1)
    assert cup(t4, t4).value == 0
    t8 = cyclic_generator(8, 1)
    assert cup(t8, t8).value == 0
    # but t*s is a generator whenever 4 | n
    assert cup(t4, cyclic_generator(4, 2)).value == 1


def test_cup_oracle_solved_diagonal():
    """Compare the tabulated products with a solved diagonal approximation."""
    for n in (2, 4, 8):
        oracle = DiagonalOracle(n, top=4)
        for p in range(0, 5):
            for q in range(0, 5 - p):
                want = oracle.cup_coefficient(p, q)
                got = cup(cyclic_generator(n, p), cyclic_generator(n, q)).value
                assert got == want, (n, p, q, got, want)


def test_cup_errors():
    with pytest.raises(RingMismatch):
        cup(cyclic_generator(2, 1), cyclic_generator(4, 1))
    with pytest.raises(DegreeOutOfRange):
        cup(cyclic_generator(2, 3), cyclic_generator(2, 2))
    with pytest.raises(RingMismatch):
        cup(cyclic_generator(2, 1), z4_class(1, [(1,)]))


def test_z4_cup_is_exterior():
    e1 = z4_class(1, [(1,)])
    e2 = z4_class(1, [(2,)])
    assert cup(e1, e1).is_zero()
    assert cup(e1, e2).monomials() == [(1, 2)]
    e12 = z4_class(2, [(1, 2)])
    e34 = z4_class(2, [(3, 4)])
    assert cup(e12, e34).monomials() == [(1, 2, 3, 4)]
    assert cup(e12, e12).is_zero()
    x = e12 + e34
    # cross terms cancel mod 2
    assert cup(x, x).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 12]), st.data())
def test_cup_commutative_associative_cyclic(n, data):
    degrees = data.draw(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(lambda t: sum(t) <= 4)
    )
    xs = [CyclicMod2Class(n, d, data.draw(st.integers(0, 1))) for d in degrees]
    assert cup(xs[0], xs[1]) == cup(xs[1], xs[0])
    assert cup(cup(xs[0], xs[1]), xs[2]) == cup(xs[0], cup(xs[1], xs[2]))
    one = CyclicMod2Class(n, 0, 1)
    assert cup(one, xs[0]) == xs[0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cup_bilinear_z4(data):
    p = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(1, 2))
    if p + q > 4:
        return
    def rand_class(d):
        nb = len(z4_monomials(d))
        return Z4Mod2Class(d, tuple(data.draw(st.integers(0, 1)) for _ in range(nb)))
    x1, x2, y = rand_class(p), rand_class(p), rand_class(q)
    assert cup(x1 + x2, y) == cup(x1, y) + cup(x2, y)


# -- Steenrod squares ---------------------------------------------------------------


def test_sq1_tabulated_vs_chain_bockstein():
    for n in (2, 4, 6, 8, 12):
        for degree in range(1, 4):
            got = sq1(cyclic_generator(n, degree)).value
            want = bockstein_oracle(n, degree) if n % 2 == 0 else 0
            # bockstein_oracle gives the coefficient on the generator; for
            # odd k it is n/2 mod 2 and for even k it is 0.
            assert got == want, (n, degree, got, want)


def test_sq1_examples():
    assert sq1(cyclic_generator(2, 1)).value == 1  # Sq^1 t = t^2
    assert sq1(cyclic_generator(6, 1)).value == 1
    assert sq1(cyclic_generator(4, 1)).value == 0
    assert sq1(cyclic_generator(4, 2)).value == 0  # Sq^1 s = 0
    assert sq1(cyclic_generator(2, 2)).value == 0  # Sq^1 t^2 = 2t^3 = 0
    assert sq1(z4_class(3, [(1, 2, 3)])).is_zero()
    with pytest.raises(DegreeOutOfRange):
        sq1(cyclic_generator(2, 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 2), st.integers(0, 1))
def test_sq1_squares_to_zero(n, degree, value):
    x = CyclicMod2Class(n, degree, value)
    assert sq1(sq1(x)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.data())
def test_sq1_is_a_derivation(n, data):
    p = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(0, 2))
    if p + q + 1 > 4:
        return
    x = CyclicMod2Class(n, p, data.draw(st.integers(0, 1)))
    y = CyclicMod2Class(n, q, data.draw(st.integers(0, 1)))
    assert sq1(cup(x, y)) == cup(sq1(x), y) + cup(x, sq1(y))


def test_sq2_values():
    assert sq2(cyclic_generator(2, 2)).value == 1  # (t^2)^2 = t^4
    assert sq2(cyclic_generator(4, 2)).value == 1  # s^2
    assert sq2(cyclic_generator(4, 1)).is_zero()  # degree < 2
    assert sq2(z4_class(2, [(1, 2), (3, 4)])).is_zero()
    with pytest.raises(DegreeOutOfRange):
        sq2(cyclic_generator(2, 3))


def test_sq2_w_values():
    # over Z/2^m with w1 = t, w2 = s: the twisted square of s is
    # s^2 + Sq^1(s) t + s s = s^2 + s^2 = 0, so s is in the kernel.
    for n in (2, 4, 8):
        t = cyclic_generator(n, 1)
        s = cyclic_generator(n, 2)
        assert sq2_w(t, s, s).is_zero()
        # with w2 = 0 the twisted square of s is s^2 != 0
        assert not sq2_w(t, cyclic_zero(n, 2), s).is_zero()
    # degree-1 argument, 4 | n, m >= 2: Sq2_w(t) = 0 + 0 + t.s != 0
    for n in (4, 8):
        t = cyclic_generator(n, 1)
        s = cyclic_generator(n, 2)
        assert not sq2_w(t, s, t).is_zero()
    # n = 2: Sq2_w(t) = 0 + Sq1(t).t + t.s = t^3 + t^3 = 0
    assert sq2_w(cyclic_generator(2, 1), cyclic_generator(2, 2), cyclic_generator(2, 1)).is_zero()


def test_sq2_w_validation():
    t = cyclic_generator(4, 1)
    s = cyclic_generator(4, 2)
    with pytest.raises(DegreeOutOfRange):
        sq2_w(s, s, s)
    with pytest.raises(RingMismatch):
        sq2_w(cyclic_generator(2, 1), s, s)


def test_sq2_w_z4():
    e = [None] + [z4_class(1, [(i,)]) for i in range(1, 5)]
    w1 = Z4Mod2Class(1, (0, 0, 0, 0))
    e12 = z4_class(2, [(1, 2)])
    e34 = z4_class(2, [(3, 4)])
    w2 = e12 + e34
    # Sq2_w(e12) = 0 + 0 + e12(e12+e34) = vol
    out = sq2_w(w1, w2, e12)
    assert out.monomials() == [(1, 2, 3, 4)]
    # with w2 = e12 only: Sq2_w(e34) = e34 e12 = vol, Sq2_w(e12) = 0
    assert sq2_w(w1, e12, e12).is_zero()
    assert sq2_w(w1, e12, e34).monomials() == [(1, 2, 3, 4)]


# -- pullbacks ---------------------------------------------------------------------


def test_cyclic_hom_validation():
    CyclicHom(2, 4, 2)
    with pytest.raises(IllFormedHom):
        CyclicHom(2, 4, 1)  # 1*2 != 0 mod 4
    with pytest.raises(IllFormedHom):
        CyclicHom(2, 4, 6)  # not reduced
    with pytest.raises(IllFormedHom):
        CyclicHom(1, 4, 0)


def test_pullback_examples():
    # inclusion Z/2 -> Z/4 (m = 2): degree-2 multiplier 2*2/4 = 1
    phi = CyclicHom(2, 4, 2)
    assert pullback(phi, cyclic_generator(4, 2)).value == 1
    assert pullback(phi, cyclic_generator(4, 1)).value == 0
    # projection Z/4 -> Z/2 (m = 1): degree-2 multiplier 4/2 = 2, i.e. 0
    psi = CyclicHom(4, 2, 1)
    assert pullback(psi, cyclic_generator(2, 2)).value == 0
    assert pullback(psi, cyclic_generator(2, 1)).value == 1
    # Z/6 -> Z/2 (m = 1): degree-2 multiplier 3, odd
    rho = CyclicHom(6, 2, 1)
    assert pullback(rho, cyclic_generator(2, 2)).value == 1
    with pytest.raises(RingMismatch):
        pullback(phi, cyclic_generator(2, 1))


def test_pullback_matches_chain_map_oracle():
    pairs = []
    for l1 in (2, 4, 6, 8):
        for l2 in (2, 4, 8):
            for m in range(l2):
                if (m * l1) % l2 == 0:
                    pairs.append((l1, l2, m))
    for l1, l2, m in pairs:
        phi = CyclicHom(l1, l2, m)
        for degree in range(1, 5):
            want = pullback_multiplier_oracle(l1, l2, m, degree)
            got = pullback(phi, cyclic_generator(l2, degree)).value
            assert got == want, (l1, l2, m, degree, got, want)


def test_pullback_to_odd_order_vanishes():
    phi = CyclicHom(3, 2, 0)  # only the trivial hom exists
    assert pullback(phi, cyclic_generator(2, 2)).is_zero()
    assert pullback(phi, cyclic_generator(2, 0)).value == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_is_a_ring_map(data):
    l1 = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
    l2 = data.draw(st.sampled_from([2, 4, 8]))
    ms = [m for m in range(l2) if (m * l1) % l2 == 0]
    m = data.draw(st.sampled_from(ms))
    phi = CyclicHom(l1, l2, m)
    p = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(0, 2))
    if p + q > 4:
        return
    x = CyclicMod2Class(l2, p, data.draw(st.integers(0, 1)))
    y = CyclicMod2Class(l2, q, data.draw(st.integers(0, 1)))
    assert pullback(phi, cup(x, y)) == cup(pullback(phi, x), pullback(phi, y))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_commutes_with_sq1(data):
    l1 = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
    l2 = data.draw(st.sampled_from([2, 4, 8]))
    ms = [m for m in range(l2) if (m * l1) % l2 == 0]
    m = data.draw(st.sampled_from(ms))
    phi = CyclicHom(l1, l2, m)
    degree = data.draw(st.integers(0, 3))
    x = CyclicMod2Class(l2, degree, data.draw(st.integers(0, 1)))
    assert pullback(phi, sq1(x)) == sq1(pullback(phi, x))

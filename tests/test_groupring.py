"""Tests for cyclic group rings, resolutions, and coefficient expansion."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from immorder import groupring
from immorder.groupring import (
    COEFFICIENT_NAMES,
    CoefficientModule,
    GroupRingComplex,
    GroupRingElement,
    InvalidTwist,
    RingMismatch,
    coefficient_module,
    coefficients_complex,
    norm,
    standard_resolution,
    twisted_norm,
)
from immorder.intalg import FgAbelianGroup, IntComplex, IntMatrix
from immorder.postnikov import model_complex_X
from oracles import action_power_sum, cyclic_convolution, reference_resolution_boundaries, regular_representation


orders = st.integers(min_value=1, max_value=9)
even_orders = st.integers(min_value=1, max_value=5).map(lambda k: 2 * k)


@st.composite
def elements(draw, n=None):
    if n is None:
        n = draw(orders)
    coeffs = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n))
    return GroupRingElement(n, tuple(coeffs))


def test_element_basics():
    a = GroupRingElement.gen(4)
    assert (a * a * a * a) == GroupRingElement.one(4)
    assert norm(3).coeffs == (1, 1, 1)
    assert norm(3).augmentation() == 3
    with pytest.raises(RingMismatch):
        GroupRingElement.one(2) + GroupRingElement.one(3)


def test_twisted_norm_small_values():
    # n = 2: (1 - a)(1 + a^2) = (1 - a) * 2
    assert twisted_norm(2).coeffs == (2, -2)
    # n = 4: (1 - a)(1 + a^2 + a^4) = (1 - a)(2 + a^2)
    assert twisted_norm(4).coeffs == (2, -2, 1, -1)
    assert twisted_norm(6).augmentation() == 0
    with pytest.raises(InvalidTwist):
        twisted_norm(3)


@settings(max_examples=40, deadline=None)
@given(even_orders)
def test_norm_annihilates_twisted_norm(n):
    assert (norm(n) * twisted_norm(n)).is_zero()
    assert (twisted_norm(n) * norm(n)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_absorbs_everything(data):
    n = data.draw(orders)
    x = data.draw(elements(n=n))
    assert (norm(n) * x).coeffs == norm(n).scale(x.augmentation()).coeffs


@st.composite
def sparse_coeffs(draw, n):
    """Length-n coefficients with a chosen number of nonzero terms: few
    (0-3), several (7-11) or any up to n, with magnitudes up to 2^70."""
    terms = draw(
        st.one_of(
            st.integers(min_value=0, max_value=min(n, 3)),
            st.integers(min_value=min(n, 7), max_value=min(n, 11)),
            st.integers(min_value=0, max_value=n),
        )
    )
    bits = draw(st.sampled_from([2, 8, 33, 70]))
    rng = draw(st.randoms(use_true_random=False))
    coeffs = [0] * n
    for i in rng.sample(range(n), terms):
        coeffs[i] = rng.choice([-1, 1]) * rng.randint(1, 2**bits)
    return tuple(coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_matches_dense_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=300))
    a = data.draw(sparse_coeffs(n))
    b = data.draw(sparse_coeffs(n))
    want = cyclic_convolution(a, b)
    x, y = GroupRingElement(n, a), GroupRingElement(n, b)
    assert (x * y).coeffs == want
    assert (y * x).coeffs == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_with_the_norm_matches_dense_reference(data):
    """N x = augmentation(x) N in closed form, against the double loop, with
    N on either side; elements that are all ones but one entry are not N."""
    n = data.draw(st.integers(min_value=1, max_value=120))
    nrm = (1,) * n
    near = list(nrm)
    near[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(st.sampled_from([0, 2, -1]))
    x = data.draw(sparse_coeffs(n) | st.sampled_from([nrm, tuple(near)]))
    for a, b in ((nrm, x), (x, nrm), (tuple(near), x), (x, tuple(near))):
        assert (GroupRingElement(n, a) * GroupRingElement(n, b)).coeffs == cyclic_convolution(a, b)


def test_product_with_the_norm_takes_the_closed_form(monkeypatch):
    """N x = augmentation(x) N with N on either side adds no rotations."""

    def refuse(*args):
        raise AssertionError("shift-and-add product taken")

    monkeypatch.setattr(groupring, "_shift_and_add", refuse)
    n = 4096
    dense = GroupRingElement(n, tuple(random.Random(1).randint(-9, 9) for _ in range(n)))
    for x in (dense, twisted_norm(n), norm(n)):
        want = (x.augmentation(),) * n
        assert (norm(n) * x).coeffs == want
        assert (x * norm(n)).coeffs == want


# coefficient bit lengths at both edges of each whole byte up to 8 and past them
DIGIT_EDGE_BITS = [1, 7, 8, 15, 16, 23, 24, 31, 32, 39, 40, 47, 48, 55, 56, 63, 64, 90]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_kernels_match_dense_reference(data):
    """The product against the double loop: n from 1, zero and one-term
    factors, terms at offsets 0 and n - 1, coefficients at the edges of
    every byte width, and the short factor on either side."""
    n = data.draw(st.sampled_from([1, 2, 8, 9]) | st.integers(min_value=1, max_value=90))
    bits = data.draw(st.sampled_from(DIGIT_EDGE_BITS))
    values = st.integers(min_value=-(2**bits), max_value=2**bits)
    offsets = data.draw(st.sets(st.sampled_from([0, n - 1]) | st.integers(min_value=0, max_value=n - 1), max_size=11))
    short = [0] * n
    for i in offsets:
        short[i] = data.draw(values)
    short = tuple(short)
    other = tuple(data.draw(st.lists(values, min_size=n, max_size=n)))
    want = cyclic_convolution(short, other)
    x, y = GroupRingElement(n, short), GroupRingElement(n, other)
    assert (x * y).coeffs == want
    assert (y * x).coeffs == want


@pytest.mark.parametrize("terms", [7, 8, 9, 40])
@pytest.mark.parametrize("n", [40, 257])
def test_product_on_both_sides_of_the_switch(n, terms):
    """Full-length factors, one with exactly `terms` terms, extreme values."""
    rng = random.Random(n * 100 + terms)
    short = [0] * n
    for i in rng.sample(range(n), terms):
        short[i] = rng.choice([-(2**70), 2**70, -1, 3])
    dense = tuple(rng.choice([-(2**70), -5, -1, 1, 7, 2**70]) for _ in range(n))
    want = cyclic_convolution(tuple(short), dense)
    assert (GroupRingElement(n, tuple(short)) * GroupRingElement(n, dense)).coeffs == want
    assert (GroupRingElement(n, dense) * GroupRingElement(n, tuple(short))).coeffs == want


@pytest.mark.parametrize("n", [9, 16, 100])
@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 71, 72])
def test_product_coefficients_at_the_digit_bound(n, bits):
    """Constant factors make every coefficient reach n max|a| max|b|, just
    below, at and just above a power of two next to a whole number of
    bytes."""
    for target in (2**bits - 1, 2**bits, 2**bits + 1):
        m = max(1, target // n)
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a, b = (sa * m,) * n, (sb,) * n
            want = cyclic_convolution(a, b)
            assert want == (sa * sb * n * m,) * n
            assert (GroupRingElement(n, a) * GroupRingElement(n, b)).coeffs == want
        root = max(1, int((target // n) ** 0.5))
        a = (root,) * n
        assert (GroupRingElement(n, a) * GroupRingElement(n, a)).coeffs == (n * root * root,) * n


@pytest.mark.parametrize("n", range(1, 41))
def test_regular_representation_entries(n):
    """Entry (i, j) is c[(i - j) % n], and the matrix applied to the
    coefficients of y is x * y."""
    rng = random.Random(n)
    c = tuple(rng.randint(-5, 5) for _ in range(n))
    d = tuple(rng.randint(-5, 5) for _ in range(n))
    m = regular_representation(GroupRingElement(n, c))
    assert (m.rows, m.cols) == (n, n)
    assert m.entries == tuple(c[(i - j) % n] for i in range(n) for j in range(n))
    assert (m @ IntMatrix.column(d)).entries == (GroupRingElement(n, c) * GroupRingElement(n, d)).coeffs


def test_regular_representation_of_generator_is_cyclic_permutation():
    m = regular_representation(GroupRingElement.gen(3))
    assert m.to_rows() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regular_representation_is_ring_map(data):
    n = data.draw(orders)
    x = data.draw(elements(n=n))
    y = data.draw(elements(n=n))
    assert (regular_representation(x) @ regular_representation(y)).entries == regular_representation(x * y).entries
    assert (regular_representation(x) + regular_representation(y)).entries == regular_representation(x + y).entries


# -- coefficient modules ------------------------------------------------------


def test_coefficient_module_actions():
    zw = coefficient_module("Zw", 4)
    assert zw.rho(GroupRingElement.one(4) - GroupRingElement.gen(4)).to_rows() == [[2]]
    assert zw.rho(norm(4)).to_rows() == [[0]]
    z = coefficient_module("Z", 4)
    assert z.rho(norm(4)).to_rows() == [[4]]
    zz = coefficient_module("ZZ2w", 2)
    assert zz.rho(norm(2)).to_rows() == [[1, 1], [1, 1]]
    assert zz.rho(GroupRingElement.one(2) - GroupRingElement.gen(2)).to_rows() == [[1, -1], [-1, 1]]
    with pytest.raises(InvalidTwist):
        coefficient_module("Zw", 3)
    with pytest.raises(InvalidTwist):
        coefficient_module("ZZ2w", 5)
    with pytest.raises(InvalidTwist):
        coefficient_module("nonsense", 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rho_is_multiplicative(data):
    n = data.draw(even_orders)
    name = data.draw(st.sampled_from(COEFFICIENT_NAMES))
    mod = coefficient_module(name, n)
    x = data.draw(elements(n=n))
    y = data.draw(elements(n=n))
    assert (mod.rho(x) @ mod.rho(y)).entries == mod.rho(x * y).entries


# name -> (least n, greatest n, step): the twisted modules need even n
REFERENCE_ORDERS = {
    "Z": (1, 64, 1),
    "Z2": (1, 64, 1),
    "Zw": (2, 64, 2),
    "ZZ2w": (2, 64, 2),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rho_matches_power_sum_reference(data):
    name = data.draw(st.sampled_from(sorted(REFERENCE_ORDERS)))
    least, greatest, step = REFERENCE_ORDERS[name]
    n = step * data.draw(st.integers(min_value=least // step, max_value=greatest // step))
    mod = coefficient_module(name, n)
    coeffs = tuple(data.draw(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=n, max_size=n)))
    assert mod.rho(GroupRingElement(n, coeffs)).to_rows() == action_power_sum(mod.action.to_rows(), coeffs)


def test_rho_takes_no_matrix_products(monkeypatch):
    """rho reads the action in closed form, with no matrix product.  The
    modules are built first: the involution check at construction may take
    one."""
    mods = [coefficient_module(name, 64) for name in COEFFICIENT_NAMES]
    calls = []
    original = IntMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    for mod in mods:
        mod.rho(norm(mod.n))
        mod.rho(GroupRingElement.one(mod.n) - GroupRingElement.gen(mod.n))
    assert calls == []


@pytest.mark.parametrize(
    "rows, n",
    [
        ([[2]], 4),  # infinite order
        ([[1, 1], [0, 1]], 4),  # unipotent, infinite order
        ([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4),  # order 3, which does not divide 4
        ([[-1]], 3),  # order 2 on an odd-order group
        ([[0, 1], [1, 0]], 1),  # the trivial group acts trivially
        ([[1, 0], [1, -1]], 4),  # an involution, but not symmetric
    ],
)
def test_module_rejects_action_that_is_not_a_symmetric_involution(rows, n):
    """Every action here is refused: it is not a symmetric involution, or
    it is a nontrivial one on a group of odd order, which acts trivially.
    A named module's action is a symmetric involution of that kind."""
    action = IntMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="'twisted-test'"):
        CoefficientModule("twisted-test", n, action.rows, action, 0)


def test_module_accepts_symmetric_involution_and_checks_shape():
    """A symmetric involution of any rank is accepted; the action must be
    square of the module's rank."""
    swap = IntMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert CoefficientModule("swap", 4, 4, swap, 0).rho(GroupRingElement.gen(4)) == swap
    with pytest.raises(ValueError, match="'wrong-rank'"):
        CoefficientModule("wrong-rank", 2, 2, IntMatrix.identity(1), 0)


def test_twisted_norm_matches_its_definition():
    """The closed form against the product (1 - a)(2 + a^2 + ... + a^(n-2))."""
    for n in range(2, 302, 2):
        one_minus_a = [1, -1] + [0] * (n - 2)
        evens = [0] * n
        for i in range(n // 2 + 1):
            evens[(2 * i) % n] += 1
        assert twisted_norm(n).coeffs == cyclic_convolution(one_minus_a, evens)


# -- resolutions and expansion --------------------------------------------------


def test_standard_resolution_shape():
    r = standard_resolution(4, 5)
    assert r.top == 5
    assert r.boundary(1).coeffs == (1, -1, 0, 0)
    assert r.boundary(2) == norm(4)
    with pytest.raises(IndexError):
        r.boundary(6)


def test_complex_validation_rejects_non_complex():
    n = 4
    one = GroupRingElement.one(n)
    with pytest.raises(ValueError):
        GroupRingComplex(n, (one, one))
    # the pair that fails comes after one that composes to zero
    with pytest.raises(ValueError):
        GroupRingComplex(n, (one - GroupRingElement.gen(n), norm(n), one))
    with pytest.raises(RingMismatch):
        GroupRingComplex(n, (norm(n), GroupRingElement.one(2)))


def test_complex_checks_every_adjacent_pair():
    """Each failing pair is caught, also after a passing pair or when it
    repeats one element: the ring is commutative, so only pairs equal up
    to order share a product."""
    n = 6
    one_minus_a = GroupRingElement.one(n) - GroupRingElement.gen(n)
    with pytest.raises(ValueError, match="do not compose to zero"):
        GroupRingComplex(n, (one_minus_a, one_minus_a))
    with pytest.raises(ValueError, match="do not compose to zero"):
        GroupRingComplex(n, (norm(n), one_minus_a, one_minus_a))
    with pytest.raises(ValueError, match="do not compose to zero"):
        GroupRingComplex(n, (one_minus_a, norm(n), norm(n)))
    assert GroupRingComplex(n, (one_minus_a, norm(n), one_minus_a, norm(n))).top == 4


@pytest.mark.parametrize("k", [1, 2, 5, 64])
def test_complex_check_takes_one_product_per_pair_up_to_order(monkeypatch, k):
    """(1 - a, N, 1 - a) takes one product; (1 - a, N, N_w) takes two."""
    calls = []
    original_mul, original_init = GroupRingElement.__mul__, GroupRingComplex.__post_init__
    checking = []

    def counting_mul(self, other):
        if checking:
            calls.append((self, other))
        return original_mul(self, other)

    def counting_init(self):
        checking.append(1)
        try:
            original_init(self)
        finally:
            checking.pop()

    monkeypatch.setattr(GroupRingElement, "__mul__", counting_mul)
    monkeypatch.setattr(GroupRingComplex, "__post_init__", counting_init)
    standard_resolution(2 * k, 3)
    assert len(calls) == 1
    calls.clear()
    model_complex_X(k)
    assert len(calls) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=5))
def test_untwisted_homology_of_cyclic_groups(n, top):
    """H_k(Z/n; Z) alternates Z/n (odd k) and 0 (even k > 0), H_0 = Z."""
    chain = coefficients_complex(standard_resolution(n, top + 1), coefficient_module("Z", n))
    assert chain.homology(0) == FgAbelianGroup.free(1)
    for k in range(1, top + 1):
        want = FgAbelianGroup.cyclic(n) if k % 2 == 1 else FgAbelianGroup.zero()
        assert chain.homology(k) == want


@settings(max_examples=30, deadline=None)
@given(even_orders, st.sampled_from(COEFFICIENT_NAMES), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_homology_independent_of_padding(n, name, top_a, extra):
    mod = coefficient_module(name, n)
    res_a, res_b = standard_resolution(n, top_a), standard_resolution(n, top_a + extra)
    chain_a, chain_b = coefficients_complex(res_a, mod), coefficients_complex(res_b, mod)
    for k in range(top_a):
        assert chain_a.homology(k) == chain_b.homology(k)
        assert chain_a.cohomology(k) == chain_b.cohomology(k)


@settings(max_examples=40, deadline=None)
@given(even_orders, st.sampled_from(COEFFICIENT_NAMES), st.integers(min_value=2, max_value=5))
def test_expanded_boundaries_compose_to_zero(n, name, top):
    mod = coefficient_module(name, n)
    chain = coefficients_complex(standard_resolution(n, top), mod)
    for k in range(len(chain.down) - 1):
        assert (chain.down[k] @ chain.down[k + 1]).is_zero()
        # the coboundaries that cohomology reads
        assert (chain.down[k + 1].transpose() @ chain.down[k].transpose()).is_zero()
    assert chain.dims == tuple(mod.rank for _ in range(top + 1))


def test_coefficients_complex_ring_mismatch():
    with pytest.raises(RingMismatch):
        coefficients_complex(standard_resolution(4, 2), coefficient_module("Z", 6))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.sampled_from(COEFFICIENT_NAMES))
def test_resolution_homology_matches_full_length_reference(n, name):
    """Homology and cohomology in degrees 0..20 agree with a resolution
    built degree by degree, with fresh elements and its own rho in each
    degree, so sharing the period changes no answer."""
    assume(n % 2 == 0 or name in ("Z", "Z2"))
    mod = coefficient_module(name, n)
    res = standard_resolution(n, 21)
    chain = coefficients_complex(res, mod)
    ref = tuple(IntMatrix.from_rows(m) for m in reference_resolution_boundaries(n, 21, mod.action.to_rows()))
    dims = (mod.rank,) * 22
    ref_chain = IntComplex(dims, ref, mod.modulus)
    # the coboundary Hom(C_(k-1), M) -> Hom(C_k, M) is rho(d_k), and
    # cohomology reads the transposed boundaries
    ref_dual = IntComplex(dims, tuple(m.transpose() for m in ref), mod.modulus)
    for k in range(21):
        assert chain.homology(k) == ref_chain.homology(k)
        assert chain.cohomology(k) == ref_dual.cohomology(k)

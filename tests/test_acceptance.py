"""Acceptance gate: ten numbered criteria, each a single test that prints
one "criterion N: PASS" line on success.

Everything here is exact integer arithmetic — no tolerances anywhere.
The expected values are restated inline (independently of the other test
files) so this file alone certifies the package.
"""

from __future__ import annotations

import itertools

from immorder.cohomology import CyclicHom, cyclic_homology, h_twisted
from immorder.fibering import (
    Presentation,
    ZMap,
    abelianization,
    brown_fibered,
    epimorphisms_to_Z,
    integral_lift_exists,
    parse_word,
)
from immorder.groupring import norm
from immorder.intalg import FgAbelianGroup, homology_data
from immorder.james import d2_40, realizable_classes
from immorder.order import (
    ImmersionType,
    cyclic_family,
    first_principles_leq_cyclic,
    leq,
    node_name,
    order_graph,
)
from immorder.postnikov import (
    factorization_obstruction,
    model_cohomology,
    push_forward,
    shift,
    verify_projection_diagram,
)
from oracles import exhaustive_connecting_classes, reference_shift_data, reference_shift_sequences

ZERO = FgAbelianGroup.zero()
Z2 = FgAbelianGroup.cyclic(2)


def M(n: int) -> ImmersionType:
    return ImmersionType("cyclic", n, 0, "1", 0)


def N(n: int, w2: str, c: int) -> ImmersionType:
    return ImmersionType("cyclic", n, 1, w2, c)


def test_criterion_01_twisted_homology():
    for k in range(1, 9):
        assert h_twisted(2 * k, 1, 4) == Z2, k
    for n in range(2, 13):
        assert h_twisted(n, 0, 4) == ZERO, n
    print("criterion 1: PASS")


def test_criterion_02_james_differential_kernels():
    vol = d2_40("Z4", None, 0, "e12+e34").kernel
    assert vol.modulus == 0 and vol.generator == 2  # the subgroup 2Z
    assert vol.pretty() == "2Z"
    for k in range(1, 9):
        n = 2 * k
        assert d2_40("cyclic", n, 1, "0").kernel.is_trivial(), n
        spin_kernel = d2_40("cyclic", n, 1, "1").kernel
        assert spin_kernel.is_everything() and spin_kernel.group() == Z2, n
    print("criterion 2: PASS")


def test_criterion_03_model_complex_cohomology():
    for k in range(1, 6):
        expected_twisted = ZERO if k == 1 else FgAbelianGroup.cyclic(2 ** (k - 1))
        assert model_cohomology(k, "ZZ2w") == expected_twisted, k
        assert model_cohomology(k, "Z") == FgAbelianGroup.cyclic(2**k), k
        assert model_cohomology(k, "Z2") == Z2, k
    print("criterion 3: PASS")


# The combined order diagram for fundamental groups 1, Z/2, Z/4 (transitive
# reduction), frozen by hand before the engine was written.  Node names:
# M_k has cyclic order 2^k; N_k_w2_c is its non-orientable sibling.
COMBINED_FIGURE_EDGES = {
    ("S4", "M_1"),
    ("S4", "N_2_0_0"),
    ("M_1", "M_2"),
    ("M_1", "N_2_1_0"),
    ("M_2", "CP2"),
    ("CP2", "N_2_inf_0"),
    ("N_2_0_0", "N_1_0_0"),
    ("N_2_0_0", "N_2_inf_0"),
    ("N_2_0_0", "N_1_1_0"),
    ("N_1_0_0", "N_1_inf_0"),
    ("N_2_inf_0", "N_2_inf_1"),
    ("N_2_inf_0", "N_1_inf_0"),
    ("N_1_inf_0", "N_1_inf_1"),
    ("N_2_1_0", "N_2_inf_0"),
    ("N_2_1_0", "N_2_1_1"),
    ("N_1_1_0", "N_1_inf_0"),
    ("N_1_1_0", "N_1_1_1"),
    ("N_2_1_1", "N_2_inf_1"),
    ("N_1_1_1", "N_1_inf_1"),
}


def _nonorientable_rule(ka, w2a, ca, kb, w2b, cb) -> bool:
    """Independent restatement of the five target-shape clauses for
    non-orientable cyclic classes."""
    if w2b == "0":
        return w2a == "0" and ka >= kb
    if w2b == "1" and cb == 0:
        return (w2a == "0" and ka > kb) or (ka, w2a, ca) == (kb, w2b, cb)
    if w2b == "1" and cb == 1:
        return (w2a == "0" and ka > kb) or (w2a == "1" and ka == kb)
    if w2b == "inf" and cb == 0:
        return ca == 0 and ka >= kb
    return ka >= kb and (ka == kb or ca == 0)


def test_criterion_04_order_engine_vs_reference_graphs():
    # (a) combined diagram over groups {1, Z/2, Z/4}: exact edge equality
    graph = order_graph(cyclic_family(2, combined=True))
    assert set(graph.edges) == COMBINED_FIGURE_EDGES
    assert {node_name(t) for t in graph.nodes} == {
        name for edge in COMBINED_FIGURE_EDGES for name in edge
    }
    # (b) orientable family up to exponent 4 is the strict chain
    #     S4 < M(2) < M(4) < M(8) < M(16) < CP2
    chain = order_graph(cyclic_family(4, combined=False))
    assert set(chain.edges) == {
        ("S4", "M_1"),
        ("M_1", "M_2"),
        ("M_2", "M_3"),
        ("M_3", "M_4"),
        ("M_4", "CP2"),
    }
    # (c) non-orientable family up to exponent 3, every ordered pair against
    #     the clause-by-clause predicate, plus the orientable-into-
    #     non-orientable rule
    shapes = [("0", 0), ("1", 0), ("1", 1), ("inf", 0), ("inf", 1)]
    for ka, kb in itertools.product(range(1, 4), repeat=2):
        for (w2a, ca), (w2b, cb) in itertools.product(shapes, repeat=2):
            got = leq(N(2**ka, w2a, ca), N(2**kb, w2b, cb)).answer
            assert got is _nonorientable_rule(ka, w2a, ca, kb, w2b, cb)
        for w2b, cb in shapes:
            got = leq(M(2**ka), N(2**kb, w2b, cb)).answer
            assert got is ((w2b == "1" and kb > ka) or w2b == "inf")
    print("criterion 4: PASS")


def test_criterion_05_first_principles_cross_validation():
    orders = range(2, 17, 2)
    for l1, l2 in itertools.product(orders, repeat=2):
        independent = first_principles_leq_cyclic(l1, l2)
        engine = leq(M(l1), M(l2))
        assert independent.answer is engine.answer, (l1, l2)
    print("criterion 5: PASS")


def test_criterion_06_partial_order_axioms():
    # Family A: every cyclic-type class up to exponent 3 plus the
    # infinite-cyclic twisted product; family B: the rank-4 free-abelian
    # classes.  Mixed A/B pairs are undetermined by design, so each family
    # is checked on its own.
    family_a = cyclic_family(3, combined=True) + [ImmersionType("Z", None, 1, "0", 0)]
    family_b = [
        ImmersionType("Z4", None, 0, w2, c)
        for w2 in ("0", "e12", "e12+e34")
        for c in ((0,) if w2 == "0" else (0, 2, 4))
    ]
    for family in (family_a, family_b):
        rel = {}
        for a, b in itertools.product(family, repeat=2):
            v = leq(a, b)
            assert v.answer is not None, (a, b)
            rel[(a, b)] = v.answer
        for a in family:
            assert rel[(a, a)] is True  # reflexivity
        for a, b in itertools.product(family, repeat=2):
            if rel[(a, b)] and rel[(b, a)]:
                # mutual comparability = equivalence; antisymmetry means the
                # relation must not distinguish equivalent classes
                for x in family:
                    assert rel[(a, x)] == rel[(b, x)]
                    assert rel[(x, a)] == rel[(x, b)]
        for a, b, c in itertools.product(family, repeat=3):
            if rel[(a, b)] and rel[(b, c)]:
                assert rel[(a, c)], (a, b, c)  # transitivity
    print("criterion 6: PASS")


def test_criterion_07_chain_level_diagrams():
    for k, m in itertools.product((1, 2, 3), (3, 5)):
        d = verify_projection_diagram(k * m, k)
        assert d.exists is True
        assert d.index == m
        assert d.witness == d.candidate
        assert d.witness.augmentation() == m
        # independent recheck of the degree-2 commutation identity
        phi = CyclicHom(2 * k * m, 2 * k, 1)
        assert norm(2 * k) * d.witness == push_forward(phi, norm(2 * k * m))
    for k in range(1, 4):
        assert factorization_obstruction(k) is True, k
    print("criterion 7: PASS")


def test_criterion_08_fibering_and_integral_lifts():
    relator = parse_word("aaaBAAAbbaaababb")
    closed = Presentation.parse("<a,b|aaaBAAAbbaaababb,aaabAAbbaaaBABAAAB>")
    cusped = Presentation.parse("<a,b|aaaBAAAbbaaababb>")
    z_plus_z4 = FgAbelianGroup(1, (4,))

    v = brown_fibered(relator, ZMap(-1, 1))
    assert v.fibered is True
    assert (v.min_index, v.min_value) == (4, -4)
    assert (v.max_index, v.max_value) == (9, 1)
    assert v.values.count(v.min_value) == 1 and v.values.count(v.max_value) == 1
    assert set(v.values) <= set(range(-4, 2))

    assert abelianization(closed) == z_plus_z4
    assert abelianization(cusped) == z_plus_z4

    epi = epimorphisms_to_Z(closed)
    assert epi.maps == (ZMap(-1, 1),) and epi.multiple_exist is False
    assert integral_lift_exists(closed, 0, 1) is False
    print("criterion 8: PASS")


def test_criterion_09_shift_self_consistency():
    for n in (2, 4, 8):
        base = shift(n, 1, 1)
        # frozen regression fixture: generator -> generator at all stages
        assert base.groups == (Z2, Z2, Z2, Z2)
        assert base.classes == ((1,), (1,), (1,), (1,))
        # vanishing on zero and linearity over the order-two ambient group
        assert shift(n, 1, 0).classes == ((0,), (0,), (0,), (0,))
        assert shift(n, 1, 2).classes == ((0,), (0,), (0,), (0,))
        assert shift(n, 1, 3).classes == base.classes
        # stability across internal randomized preimage choices
        assert {shift(n, 1, 1, seed=s).classes for s in range(5)} == {base.classes}
    # brute-force snake-lemma oracle: every bounded preimage choice gives
    # the same connecting class at each stage
    for n in (2, 4):
        proj_i, ring, ideal = reference_shift_data(n, 1)
        r = shift(n, 1, 1)
        eps, inclusion_i, _, inclusion_n = reference_shift_sequences(n)
        # ring[k % 2] is the degree-k boundary; degrees 3 and 1 of I^w share theirs
        h3 = h1 = homology_data(ideal[0], ideal[1])
        h2 = cyclic_homology(n, "Zw", 2)
        stages = (
            (eps, inclusion_i, ring[4 % 2], r.cycles[0], h3.class_of),
            (proj_i, inclusion_n, ring[3 % 2], r.cycles[1], h2.class_of),
            (eps, inclusion_i, ring[2 % 2], r.cycles[2], h1.class_of),
        )
        for (proj, incl, bd, cycle, classify), expected in zip(stages, r.classes[1:]):
            assert exhaustive_connecting_classes(proj, incl, bd, cycle, classify, 3) == {expected}
    print("criterion 9: PASS")


def test_criterion_10_realizability():
    # cyclic families, orders <= 16: realized iff c = 0 or w2 != 0
    for n in range(2, 17, 2):
        r0 = realizable_classes("cyclic", n, 1, "0")
        assert r0.determined and r0.subgroup.is_trivial(), n
        assert r0.ambient == Z2
        r1 = realizable_classes("cyclic", n, 1, "1")
        assert r1.determined and r1.subgroup.is_everything(), n
        rinf = realizable_classes("cyclic", n, 1, "inf")
        assert rinf.determined and rinf.subgroup.is_everything(), n
    for n in range(2, 17):
        r = realizable_classes("cyclic", n, 0, "0")
        assert r.determined and r.subgroup.is_trivial() and r.ambient.is_zero(), n
    # rank-4 free-abelian: the symplectic form determines exactly 2Z ...
    vol = realizable_classes("Z4", None, 0, "e12+e34")
    assert vol.determined is True
    assert vol.subgroup.modulus == 0 and vol.subgroup.generator == 2
    # ... while w2 = 0 and w2 = e12 stay upper bounds, never determined
    for w2 in ("0", "e12"):
        r = realizable_classes("Z4", None, 0, w2)
        assert r.determined is False, w2
    print("criterion 10: PASS")

"""Tests for the immersion partial order.

The central fixture is the frozen Hasse diagram of the combined family
for the groups {1, Z/2, Z/4}: 14 classes and exactly 19 cover relations.
It was derived by hand from the comparison rules before this module was
written and is asserted edge-for-edge.  The orientable cyclic rule is
additionally cross-checked against a first-principles enumeration of
group homomorphisms that knows nothing about the packaged rule table.
"""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immorder import james, order
from immorder.cohomology import cyclic_homology
from immorder.order import (
    CP2,
    S4,
    S1XTS3,
    ImmersionType,
    InvalidType,
    LeqVerdict,
    OrderGraph,
    UndecidablePair,
    UndeterminedComparison,
    UnsupportedPair,
    canonicalize,
    cyclic_family,
    emit_dot,
    equivalent,
    first_principles_leq_cyclic,
    leq,
    node_label,
    node_name,
    order_graph,
)

from oracles import hasse_by_pairs


def M(n: int) -> ImmersionType:
    return ImmersionType("cyclic", n, 0, "1", 0)


def N(n: int, w2: str, c: int) -> ImmersionType:
    return ImmersionType("cyclic", n, 1, w2, c)


def parse_dot_edges(text: str) -> set[tuple[str, str]]:
    """Edge set of a DOT digraph as written by emit_dot (round-trip helper)."""
    edges = set()
    for m in re.finditer(r'^\s*"?([A-Za-z0-9_]+)"?\s*->\s*"?([A-Za-z0-9_]+)"?', text, re.MULTILINE):
        edges.add((m.group(1), m.group(2)))
    return edges


# Frozen by hand before implementation: the Hasse diagram of the order on
# {S4, M(2), M(4), CP2} plus all ten non-orientable classes with cyclic
# group of order 2 or 4.  Node names use exponents: N_k_w2_c has order 2^k.
FROZEN_COMBINED_NODES = {
    "S4",
    "M_1",
    "M_2",
    "CP2",
    "N_1_0_0",
    "N_1_1_0",
    "N_1_1_1",
    "N_1_inf_0",
    "N_1_inf_1",
    "N_2_0_0",
    "N_2_1_0",
    "N_2_1_1",
    "N_2_inf_0",
    "N_2_inf_1",
}

FROZEN_COMBINED_EDGES = {
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


# ---------------------------------------------------------------------------
# construction and canonicalization


def test_invalid_types_rejected():
    with pytest.raises(InvalidType):
        ImmersionType("cyclic", 3, 1, "0", 0)  # nonorientable needs even order
    with pytest.raises(InvalidType):
        ImmersionType("cyclic", 3, 0, "1", 0)  # w2 = "1" needs even order
    with pytest.raises(InvalidType):
        ImmersionType("trivial", None, 0, "1", 0)
    with pytest.raises(InvalidType):
        ImmersionType("trivial", None, 1, "0", 0)
    with pytest.raises(InvalidType):
        ImmersionType("Z4", None, 1, "0", 0)
    with pytest.raises(InvalidType):
        ImmersionType("Z4", None, 0, "1", 0)
    with pytest.raises(InvalidType):
        ImmersionType("cyclic", 4, 0, "e12", 0)
    with pytest.raises(InvalidType):
        ImmersionType("nope", None, 0, "0", 0)


def test_unrealizable_class_multiples_rejected():
    # order 2^k, w1 = 1, w2 = 0: only the zero class occurs
    with pytest.raises(InvalidType):
        ImmersionType("cyclic", 2, 1, "0", 1)
    # rank 4, w2 = e12 + e34: classes live in 2Z
    with pytest.raises(InvalidType):
        ImmersionType("Z4", None, 0, "e12+e34", 3)
    # but even multiples are realized
    assert ImmersionType("Z4", None, 0, "e12+e34", 4).c == 4
    # order 2, w1 = 1, w2 = 1: both classes of H_4 = Z/2 are realized
    assert ImmersionType("cyclic", 2, 1, "1", 1).c == 1


def test_class_multiple_normalization():
    assert ImmersionType("cyclic", 4, 1, "inf", -3).c == 1
    assert ImmersionType("cyclic", 4, 1, "inf", 6).c == 0
    assert ImmersionType("Z4", None, 0, "e12+e34", -6).c == 6
    assert ImmersionType("trivial", None, 0, "inf", 14).c == 0  # ambient trivial


def test_canonicalize_examples():
    assert canonicalize(ImmersionType("cyclic", 12, 0, "1", 0)) == M(4)
    assert canonicalize(ImmersionType("cyclic", 3, 0, "inf", 0)) == CP2
    assert canonicalize(ImmersionType("cyclic", 5, 0, "0", 0)) == S4
    assert canonicalize(ImmersionType("cyclic", 6, 1, "inf", 1)) == N(2, "inf", 1)
    assert canonicalize(ImmersionType("Z4", None, 0, "inf", 7)) == CP2
    assert canonicalize(ImmersionType("Z", None, 0, "0", 0)) == S4
    assert canonicalize(ImmersionType("Z", None, 1, "0", 0)) == S1XTS3
    assert canonicalize(ImmersionType("Z4", None, 0, "0", 0)) == S4
    stays = ImmersionType("Z", None, 1, "inf", 0)
    assert canonicalize(stays) == stays


POOL = (
    [S4, CP2, S1XTS3, ImmersionType("Z", None, 1, "inf", 0)]
    + [M(n) for n in (2, 4, 6, 8, 12)]
    + [N(n, w2, c) for n in (2, 4, 8) for w2, c in (("0", 0), ("1", 0), ("1", 1), ("inf", 0), ("inf", 1))]
    + [ImmersionType("cyclic", 10, 1, "1", 1), ImmersionType("cyclic", 3, 0, "0", 0)]
    + [ImmersionType("Z4", None, 0, w2, c) for w2, c in (("0", 0), ("e12", 0), ("e12", 2), ("e12+e34", 0), ("e12+e34", 2), ("e12+e34", 4))]
)


@given(st.sampled_from(POOL))
def test_canonicalize_idempotent(t):
    assert canonicalize(canonicalize(t)) == canonicalize(t)


def test_leq_identity_and_key_tests_agree_with_equality():
    """`leq` tests canonical types against S4, CP2 and S1XTS3 by identity
    and against each other by `key`; both must decide what `==` decides,
    also for types built equal to a constant rather than taken from it."""
    fresh = [ImmersionType("trivial"), ImmersionType("trivial", w2="inf"), ImmersionType("Z", w1=1)]
    types = POOL + fresh
    for t in types:
        c = canonicalize(t)
        for constant in (S4, CP2, S1XTS3):
            assert (c is constant) == (c == constant), (t, constant)
    for a in types:
        for b in types:
            assert (a.key == b.key) == (a == b), (a, b)


@given(st.sampled_from(POOL))
def test_leq_reflexive(t):
    assert leq(t, t).answer is True


@given(st.sampled_from(POOL), st.sampled_from(POOL))
def test_leq_always_traced_or_explained(a, b):
    v = leq(a, b)
    if v.answer is None:
        assert v.reason == "pair-not-covered"
    else:
        assert len(v.trace) == 1 and v.trace[0]


# ---------------------------------------------------------------------------
# individual rules


def test_special_type_rules():
    cases = [
        (S4, M(2), True, "s4-minimum"),
        (S4, N(4, "0", 0), True, "s4-minimum"),
        (M(2), S4, False, "into-s4-iff-spin"),
        (M(2), CP2, True, "into-cp2-iff-orientable"),
        (N(2, "1", 1), CP2, False, "into-cp2-iff-orientable"),
        (CP2, N(4, "inf", 0), True, "cp2-into-iff-not-almost-spin"),
        (CP2, N(4, "1", 0), False, "cp2-into-iff-not-almost-spin"),
        (CP2, S1XTS3, False, "cp2-into-iff-not-almost-spin"),
        (S1XTS3, N(2, "0", 0), True, "s1xts3-into-iff-nonorientable"),
        (S1XTS3, M(2), False, "s1xts3-into-iff-nonorientable"),
        (N(2, "0", 0), S1XTS3, False, "into-s1xts3-iff-w2-zero-and-w1-lifts"),
        (N(2, "1", 0), M(4), False, "orientability-obstruction"),
        (CP2, ImmersionType("Z", None, 1, "inf", 0), True, "cp2-into-iff-not-almost-spin"),
        (ImmersionType("Z", None, 1, "inf", 0), CP2, False, "into-cp2-iff-orientable"),
        (ImmersionType("Z", None, 1, "inf", 0), S1XTS3, False, "into-s1xts3-iff-w2-zero-and-w1-lifts"),
        (S1XTS3, ImmersionType("Z", None, 1, "inf", 0), True, "s1xts3-into-iff-nonorientable"),
    ]
    for a, b, expected, rule in cases:
        v = leq(a, b)
        assert v.answer is expected, (node_label(a), node_label(b), v)
        assert v.trace == (rule,), (node_label(a), node_label(b), v)


def test_orientable_cyclic_rule_is_exponent_comparison():
    for i in range(1, 5):
        for j in range(1, 5):
            v = leq(M(2**i), M(2**j))
            assert v.answer is (i <= j)
    assert leq(M(6), M(2)).answer is True  # odd part stripped
    assert leq(M(6), M(2)).trace == ("equal-after-canonicalization",)
    assert leq(M(12), M(2)).answer is False


def _nonorientable_rule(ka, w2a, ca, kb, w2b, cb) -> bool:
    """The five-clause target-shape predicate, restated independently."""
    if w2b == "0":
        return w2a == "0" and ka >= kb
    if w2b == "1" and cb == 0:
        return (w2a == "0" and ka > kb) or (ka, w2a, ca) == (kb, w2b, cb)
    if w2b == "1" and cb == 1:
        return (w2a == "0" and ka > kb) or (w2a == "1" and ka == kb)
    if w2b == "inf" and cb == 0:
        return ca == 0 and ka >= kb
    return ka >= kb and (ka == kb or ca == 0)


def test_nonorientable_cyclic_pairs_match_predicate():
    shapes = [("0", 0), ("1", 0), ("1", 1), ("inf", 0), ("inf", 1)]
    for ka, kb in itertools.product(range(1, 4), repeat=2):
        for (w2a, ca), (w2b, cb) in itertools.product(shapes, repeat=2):
            a, b = N(2**ka, w2a, ca), N(2**kb, w2b, cb)
            expected = _nonorientable_rule(ka, w2a, ca, kb, w2b, cb)
            assert leq(a, b).answer is expected, (node_label(a), node_label(b))


def test_orientable_into_nonorientable_cyclic():
    for j in range(1, 4):
        for i in range(1, 4):
            for w2, c in (("0", 0), ("1", 0), ("1", 1), ("inf", 0), ("inf", 1)):
                expected = (w2 == "1" and i > j) or w2 == "inf"
                v = leq(M(2**j), N(2**i, w2, c))
                assert v.answer is expected, (j, i, w2, c, v)


def test_rank4_rules():
    e12 = lambda c: ImmersionType("Z4", None, 0, "e12", c)
    vol = lambda c: ImmersionType("Z4", None, 0, "e12+e34", c)
    assert leq(e12(0), vol(2)).answer is True
    assert leq(e12(2), e12(0)).answer is True  # mutual: same class
    assert leq(vol(2), e12(0)).answer is False
    assert leq(vol(4), vol(2)).answer is True
    assert leq(vol(2), vol(4)).answer is False
    assert leq(vol(0), vol(2)).answer is True
    assert leq(vol(2), vol(0)).answer is False
    assert leq(vol(6), vol(2)).answer is True
    assert leq(vol(6), vol(4)).answer is False
    assert leq(e12(0), CP2).answer is True
    assert leq(S4, vol(4)).answer is True


# ---------------------------------------------------------------------------
# undetermined pairs and equivalence


def test_pairs_outside_the_rules_are_undetermined():
    zinf = ImmersionType("Z", None, 1, "inf", 0)
    for other in (N(2, "1", 1), N(4, "inf", 0), M(2)):
        v = leq(zinf, other)
        if other.w1 == 0:
            assert v.answer is False  # orientability obstruction decides it
        else:
            assert v.answer is None and v.reason == "pair-not-covered"
    v = leq(N(2, "1", 1), zinf)
    assert v.answer is None
    # mixed cyclic / rank-4 pairs with matching orientability are not covered
    assert leq(M(2), ImmersionType("Z4", None, 0, "e12", 0)).answer is None
    assert leq(ImmersionType("Z4", None, 0, "e12", 0), M(2)).answer is None
    # ... but the orientability obstruction still decides mixed pairs
    v = leq(N(2, "0", 0), ImmersionType("Z4", None, 0, "e12", 0))
    assert v.answer is False and v.trace == ("orientability-obstruction",)


def test_equivalent():
    assert equivalent(M(6), M(2)) is True
    assert equivalent(M(2), M(4)) is False
    assert equivalent(N(2, "1", 0), N(2, "1", 1)) is False
    e12 = lambda c: ImmersionType("Z4", None, 0, "e12", c)
    assert equivalent(e12(0), e12(2)) is True
    with pytest.raises(UndeterminedComparison):
        equivalent(ImmersionType("Z", None, 1, "inf", 0), N(2, "1", 1))


# ---------------------------------------------------------------------------
# the frozen figure


def test_combined_family_figure_exact():
    graph = order_graph(cyclic_family(2, combined=True))
    assert {node_name(t) for t in graph.nodes} == FROZEN_COMBINED_NODES
    assert set(graph.edges) == FROZEN_COMBINED_EDGES
    assert len(graph.edges) == 19


def test_plain_orientable_chain():
    graph = order_graph(cyclic_family(4))
    names = [node_name(t) for t in graph.nodes]
    assert set(names) == {"S4", "M_1", "M_2", "M_3", "M_4", "CP2"}
    assert set(graph.edges) == {
        ("S4", "M_1"),
        ("M_1", "M_2"),
        ("M_2", "M_3"),
        ("M_3", "M_4"),
        ("M_4", "CP2"),
    }


def test_partial_order_axioms_on_combined_family():
    canon = sorted({canonicalize(t) for t in cyclic_family(3, combined=True)}, key=node_name)
    rel = {(a, b): leq(a, b).answer for a in canon for b in canon}
    for a in canon:
        assert rel[(a, a)] is True
    for a in canon:
        for b in canon:
            if a != b and rel[(a, b)] and rel[(b, a)]:
                raise AssertionError(f"unexpected equivalence {node_name(a)} ~ {node_name(b)}")
            for c in canon:
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)], (node_name(a), node_name(b), node_name(c))


RANK4_FAMILY = [
    S4,
    CP2,
    ImmersionType("Z4", None, 0, "e12", 0),
    ImmersionType("Z4", None, 0, "e12", 2),
    ImmersionType("Z4", None, 0, "e12+e34", 0),
    ImmersionType("Z4", None, 0, "e12+e34", 2),
    ImmersionType("Z4", None, 0, "e12+e34", 4),
]


def test_rank4_family_graph():
    graph = order_graph(RANK4_FAMILY)
    # the two e12 classes are mutually immersable and collapse to one node
    assert {node_name(t) for t in graph.nodes} == {
        "S4",
        "CP2",
        "Z4_e12_0",
        "Z4_e12e34_0",
        "Z4_e12e34_2",
        "Z4_e12e34_4",
    }
    assert set(graph.edges) == {
        ("S4", "Z4_e12_0"),
        ("Z4_e12_0", "Z4_e12e34_0"),
        ("Z4_e12e34_0", "Z4_e12e34_4"),
        ("Z4_e12e34_4", "Z4_e12e34_2"),
        ("Z4_e12e34_2", "CP2"),
    }


def test_order_graph_rejects_undecidable_input():
    with pytest.raises(UndecidablePair):
        order_graph([ImmersionType("Z", None, 1, "inf", 0), N(2, "1", 0)])


def _brute_force_reduction(nodes) -> set[tuple[str, str]]:
    """Transitive reduction by its definition: keep a strict relation a < b
    exactly when b cannot be reached from a once that relation is removed."""
    succ = {a: [b for b in nodes if b != a and leq(a, b).answer] for a in nodes}
    kept = set()
    for a in nodes:
        for b in succ[a]:
            seen, todo = {a}, [a]
            while todo:
                x = todo.pop()
                for y in succ[x]:
                    if (x, y) != (a, b) and y not in seen:
                        seen.add(y)
                        todo.append(y)
            if b not in seen:
                kept.add((node_name(a), node_name(b)))
    return kept


@pytest.mark.parametrize("combined", [False, True])
@pytest.mark.parametrize("max_exp", [1, 2, 3, 4, 5])
def test_cover_relation_is_transitive_reduction(max_exp, combined):
    graph = order_graph(cyclic_family(max_exp, combined=combined))
    assert len(set(graph.edges)) == len(graph.edges)
    assert set(graph.edges) == _brute_force_reduction(graph.nodes)


def test_order_graph_computes_each_family_once():
    for fn in (cyclic_homology, james.realizable_classes):
        fn.cache_clear()
    family = cyclic_family(5, combined=True)
    order_graph(family)
    orders = {t.n for t in family if t.group == "cyclic"}
    assert cyclic_homology.cache_info().misses <= 2 * len(orders)
    families = {(t.group, t.n, t.w1, t.w2) for t in family}
    assert james.realizable_classes.cache_info().misses <= len(families)


def _patched_leq(monkeypatch, holds):
    """Replace the rules by the relation `holds` on node names."""
    monkeypatch.setattr(order, "leq", lambda a, b: LeqVerdict(holds(node_name(a), node_name(b)), ("patched",)))


def test_order_graph_rejects_non_reflexive_relation(monkeypatch):
    _patched_leq(monkeypatch, lambda a, b: a == "S4" and b != "S4")
    with pytest.raises(AssertionError, match="reflexivity"):
        order_graph([S4, CP2])


def test_order_graph_rejects_non_transitive_relation(monkeypatch):
    steps = {("S4", "M_1"), ("M_1", "CP2")}
    _patched_leq(monkeypatch, lambda a, b: a == b or (a, b) in steps)
    with pytest.raises(AssertionError, match="transitivity"):
        order_graph([S4, M(2), CP2])


def test_order_graph_of_empty_family():
    assert order_graph([]) == hasse_by_pairs([], leq) == OrderGraph(nodes=(), edges=())


def _outcome(build, *args):
    """The graph `build(*args)` assembles, or the error it raises."""
    try:
        return build(*args)
    except (AssertionError, UndecidablePair) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60)
@given(
    st.sampled_from([cyclic_family(6, combined=True), RANK4_FAMILY, POOL]).flatmap(
        lambda family: st.lists(st.sampled_from(family), unique=True)
    )
)
def test_order_graph_matches_pair_reference_on_subfamilies(types):
    assert _outcome(order_graph, types) == _outcome(hasse_by_pairs, types, leq)


PLANT_FAMILY = cyclic_family(3, combined=True)
PLANT_SIZE = len(PLANT_FAMILY)
PLANT_INDEX = {node_name(t): i for i, t in enumerate(PLANT_FAMILY)}


def _planted_outcomes(pairs):
    """`order_graph` (through a patched `order.leq`) and the reference on
    the relation given as a set of index pairs of PLANT_FAMILY."""

    def planted(a, b):
        return LeqVerdict((PLANT_INDEX[node_name(a)], PLANT_INDEX[node_name(b)]) in pairs, ("planted",))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "leq", planted)
        return _outcome(order_graph, PLANT_FAMILY), _outcome(hasse_by_pairs, PLANT_FAMILY, planted)


@st.composite
def planted_preorders(draw):
    """Preorders on PLANT_FAMILY: each type gets one of six labels (so some
    labels are shared and mutual classes are non-trivial), and a type lies
    below another when its label reaches theirs in a random digraph."""
    labels = draw(st.lists(st.integers(0, 5), min_size=PLANT_SIZE, max_size=PLANT_SIZE))
    reach = {(x, x) for x in range(6)} | draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))))
    for y, x, z in itertools.product(range(6), repeat=3):
        if (x, y) in reach and (y, z) in reach:
            reach.add((x, z))
    return {(i, j) for i in range(PLANT_SIZE) for j in range(PLANT_SIZE) if (labels[i], labels[j]) in reach}


@given(planted_preorders())
def test_order_graph_matches_pair_reference_on_planted_preorders(pairs):
    graph, reference = _planted_outcomes(pairs)
    assert isinstance(graph, OrderGraph)
    assert len(graph.nodes) < PLANT_SIZE
    assert graph == reference


@given(
    st.sets(st.tuples(st.integers(0, PLANT_SIZE - 1), st.integers(0, PLANT_SIZE - 1))),
    st.lists(st.integers(0, PLANT_SIZE - 1), min_size=3, max_size=3, unique=True),
)
def test_order_graph_matches_pair_reference_on_non_transitive_relations(pairs, triple):
    x, y, z = triple
    pairs = (pairs | {(i, i) for i in range(PLANT_SIZE)} | {(x, y), (y, z)}) - {(x, z)}
    graph, reference = _planted_outcomes(pairs)
    assert graph == reference
    assert graph[0] == "AssertionError" and "transitivity" in graph[1]


@pytest.mark.parametrize("family", [cyclic_family(5, combined=True), RANK4_FAMILY], ids=["cyclic", "rank4"])
def test_canonicalize_returns_canonical_types_themselves(family):
    for t in {canonicalize(t) for t in family}:
        assert canonicalize(t) is t


def test_order_graph_constructs_no_types(monkeypatch):
    family = cyclic_family(8, combined=True)
    post_init = ImmersionType.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ImmersionType, "__post_init__", counted)
    order_graph(family)
    assert calls == []


# ---------------------------------------------------------------------------
# first-principles cross-validation


def test_first_principles_examples():
    assert first_principles_leq_cyclic(2, 4).answer is True
    assert first_principles_leq_cyclic(4, 2).answer is False
    assert first_principles_leq_cyclic(6, 2).answer is True
    assert first_principles_leq_cyclic(2, 2).answer is True
    with pytest.raises(UnsupportedPair):
        first_principles_leq_cyclic(3, 4)
    with pytest.raises(UnsupportedPair):
        first_principles_leq_cyclic(4, 1)


def test_first_principles_matches_rule_table():
    for l1 in range(2, 17, 2):
        for l2 in range(2, 17, 2):
            independent = first_principles_leq_cyclic(l1, l2).answer
            packaged = leq(M(l1), M(l2)).answer
            assert independent is packaged, (l1, l2, independent, packaged)


# ---------------------------------------------------------------------------
# DOT output


def test_emit_dot_roundtrip():
    graph = order_graph(cyclic_family(2, combined=True))
    dot = emit_dot(graph)
    assert dot.startswith("digraph immersion_order {")
    assert parse_dot_edges(dot) == FROZEN_COMBINED_EDGES
    for t in graph.nodes:
        assert f'label="{node_label(t)}"' in dot


@settings(max_examples=30)
@given(st.sampled_from(POOL), st.sampled_from(POOL), st.sampled_from(POOL))
def test_transitivity_where_defined(a, b, c):
    ab, bc, ac = leq(a, b), leq(b, c), leq(a, c)
    if ab.answer and bc.answer and ac.answer is not None:
        assert ac.answer is True

"""Tests for exact integer linear algebra."""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from immorder import fibering, intalg
from immorder.groupring import GroupRingElement
from immorder.intalg import (
    DimensionMismatch,
    Factorization,
    FgAbelianGroup,
    IntComplex,
    IntMatrix,
    NotAComplex,
    SmithForm,
    cokernel,
    f2_rank,
    f2_solvable,
    homology_data,
    homology_data_mod2,
    kernel_basis,
    smith_normal_form,
    solve_linear,
    subquotient,
)

from oracles import (
    DENSE_REFERENCE_ORDER,
    det_int,
    elementary_reachable,
    euclid_invariant_factors,
    in_column_lattice,
    integer_inverse,
    invariant_factors_by_minors,
    oracle_homology_group,
    reference_shift_data,
    regular_representation,
    sympy_invariant_factors,
)


small_entries = st.integers(min_value=-6, max_value=6)


def random_matrix(draw, max_dim=4, entries=small_entries):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    ent = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, tuple(ent))


matrices = st.composite(random_matrix)()


# -- matrices ----------------------------------------------------------------


@st.composite
def product_shapes(draw):
    """A pair of matrices that can be multiplied, with any dimension 0 and
    whole rows or columns of zeros likely."""
    n, m, p = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))

    def matrix(r, c):
        rows = [draw(st.lists(st.sampled_from([0, 0, 1, -1, 7, -(2**70)]), min_size=c, max_size=c)) for _ in range(r)]
        for i in draw(st.sets(st.integers(min_value=0, max_value=max(r - 1, 0)))):
            if i < r:
                rows[i] = [0] * c
        return rows

    return matrix(n, m), matrix(m, p)


@settings(max_examples=200, deadline=None)
@given(product_shapes())
def test_matmul_matches_triple_loop(pair):
    a, b = pair
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    want = [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]
    got = IntMatrix(n, m, tuple(x for row in a for x in row)) @ IntMatrix(m, p, tuple(x for row in b for x in row))
    assert (got.rows, got.cols) == (n, p)
    assert got.to_rows() == want


@pytest.mark.parametrize("n, m, p", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (3, 2, 1), (0, 2, 1)])
def test_matmul_with_empty_shapes(n, m, p):
    """0 x k and k x 0 factors: the product has the outer shape, all zeros."""
    a = IntMatrix(n, m, tuple(range(1, n * m + 1)))
    b = IntMatrix(m, p, tuple(range(1, m * p + 1)))
    got = a @ b
    assert (got.rows, got.cols) == (n, p)
    assert got.to_rows() == [[sum(a.at(i, k) * b.at(k, j) for k in range(m)) for j in range(p)] for i in range(n)]


def test_constructors_accept_integers_of_every_kind():
    import numpy as np

    assert IntMatrix.from_rows([[True, np.int64(-3)], [np.int8(2), 2**80]]).entries == (1, -3, 2, 2**80)
    assert all(type(x) is int for x in IntMatrix.from_rows([[True, np.int64(-3)]]).entries)
    assert IntMatrix.column([np.int32(4), False]).entries == (4, 0)
    assert IntMatrix.diagonal([np.int64(2), True], 2, 3).to_rows() == [[2, 0, 0], [0, 1, 0]]
    assert IntMatrix.diagonal([5, 6, 7], 3, 2).to_rows() == [[5, 0], [0, 6], [0, 0]]
    assert IntMatrix.diagonal([], 2, 0).to_rows() == [[], []]


@pytest.mark.parametrize(
    "build",
    [
        lambda x: IntMatrix.from_rows([[1, x]]),
        lambda x: IntMatrix.column([x]),
        lambda x: IntMatrix.diagonal([1, x]),
        lambda x: solve_linear(IntMatrix.identity(1), [x]),
    ],
    ids=["from_rows", "column", "diagonal", "solve_linear"],
)
@pytest.mark.parametrize("value", [2.7, 3.9, 3.0, "3"])
def test_constructors_refuse_non_integers(build, value):
    """A float or a string is refused, not truncated: solve_linear(a, [3.9])
    once solved for 3."""
    with pytest.raises(TypeError):
        build(value)


# -- Smith normal form -------------------------------------------------------


def test_smith_diag_2_3_equals_1_6_oracle_first():
    # Independent oracle 1: the gcd-of-minors definition of invariant factors.
    assert invariant_factors_by_minors([[2, 0], [0, 3]]) == [1, 6]
    # Independent oracle 2: diag(1,6) is reachable from diag(2,3) by a short
    # product of elementary row/column operations.
    assert elementary_reachable([[2, 0], [0, 3]], [[1, 0], [0, 6]], max_steps=10)
    # The implementation agrees with both.
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.d == (1, 6)


def test_smith_identity():
    s = smith_normal_form(IntMatrix.identity(3))
    assert s.d == (1, 1, 1)


def test_smith_zero_matrix():
    s = smith_normal_form(IntMatrix.zeros(2, 3))
    assert s.d == ()
    assert s.rank == 0


def _assert_valid_smith(a: IntMatrix):
    s = smith_normal_form(a)
    # U A V is the claimed diagonal
    assert (s.U @ a @ s.V).entries == IntMatrix.diagonal(list(s.d), s.rows, s.cols).entries
    # tracked inverses really invert, hence U, V unimodular
    assert (s.U @ s.uinv).entries == IntMatrix.identity(a.rows).entries
    assert (s.uinv @ s.U).entries == IntMatrix.identity(a.rows).entries
    assert (s.V @ s.vinv).entries == IntMatrix.identity(a.cols).entries
    # non-negative divisibility chain
    assert all(d > 0 for d in s.d)
    for x, y in zip(s.d, s.d[1:]):
        assert y % x == 0
    return s


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_smith_properties(a):
    _assert_valid_smith(a)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_smith_matches_minors_oracle(a):
    s = smith_normal_form(a)
    assert list(s.d) == invariant_factors_by_minors(a.to_rows())


@settings(max_examples=8, deadline=None)
@given(st.lists(small_entries, min_size=25, max_size=25))
def test_hermite_path_matches_minors_oracle(entries):
    # 5 x 5 is the smallest shape on which the Hermite passes run
    a = IntMatrix(5, 5, tuple(entries))
    assert list(smith_normal_form(a).d) == invariant_factors_by_minors(a.to_rows())


@st.composite
def shaped_matrices(draw):
    """Matrices up to 7x7 with a zero side allowed, some of low rank."""
    r = draw(st.integers(min_value=0, max_value=7))
    c = draw(st.integers(min_value=0, max_value=7))
    k = draw(st.integers(min_value=0, max_value=max(r, c)))
    left = IntMatrix(r, k, tuple(draw(st.lists(small_entries, min_size=r * k, max_size=r * k))))
    right = IntMatrix(k, c, tuple(draw(st.lists(small_entries, min_size=k * c, max_size=k * c))))
    if draw(st.booleans()):
        return left @ right
    return IntMatrix(r, c, tuple(draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))))


TRANSFORM_SUBSETS = [
    frozenset(sub) for k in range(len(intalg.TRANSFORMS) + 1) for sub in itertools.combinations(intalg.TRANSFORMS, k)
]


@settings(max_examples=60, deadline=None)
@given(shaped_matrices())
def test_tracking_a_subset_changes_no_tracked_transform(a):
    full = smith_normal_form(a)
    empty = IntMatrix.zeros(0, 0)
    for track in TRANSFORM_SUBSETS:
        s = smith_normal_form(a, track=track)
        assert (s.d, s.rows, s.cols) == (full.d, full.rows, full.cols)
        for name in intalg.TRANSFORMS:
            assert getattr(s, name) == (getattr(full, name) if name in track else empty), (track, name)


def test_smith_rejects_unknown_transform_names():
    with pytest.raises(ValueError, match="unknown transforms"):
        smith_normal_form(IntMatrix.identity(2), track=("U", "W"))


def transform_bit_bound(rows: int, cols: int, entry_bits: int) -> int:
    """The stated bound on the bit length of every entry of U, V, U^-1 and
    V^-1 when the Hermite pass runs: 8 k (b + ceil(log2 k) + 1), with k the
    shorter side and b the bit length of the largest entry.  A k x k minor
    has at most k (b + log2(k) / 2) bits (Hadamard), and the transforms of
    the Hermite form are built from a few minors; the elimination alone
    has no such bound (its transforms reach 27,481 bits on dense 18 x 18
    matrices with entries in -9..9, whose minors need at most 82)."""
    k = min(rows, cols)
    return 8 * k * (entry_bits + (k - 1).bit_length() + 1)


def max_transform_bits(s) -> int:
    return max((abs(x).bit_length() for name in intalg.TRANSFORMS for x in getattr(s, name).entries), default=0)


@st.composite
def hermite_matrices(draw, kinds=("dense", "sparse", "diagonal", "low rank")):
    """Matrices whose shorter side is 5 to 9, so the Hermite pass runs, with
    entries of 1 to 64 bits, of one of `kinds`: dense, sparse, diagonal with
    shared factors, or of low rank: an r x k times k x c product with
    k < min(r, c)."""
    r = draw(st.integers(min_value=intalg._HERMITE_MIN_SIDE, max_value=9))
    c = draw(st.integers(min_value=intalg._HERMITE_MIN_SIDE, max_value=9))
    bits = draw(st.sampled_from([1, 4, 16, 64]))
    values = st.integers(min_value=-(2**bits), max_value=2**bits)
    kind = draw(st.sampled_from(kinds))
    if kind == "low rank":
        k = draw(st.integers(min_value=1, max_value=min(r, c) - 1))
        left = IntMatrix(r, k, tuple(draw(st.lists(values, min_size=r * k, max_size=r * k))))
        right = IntMatrix(k, c, tuple(draw(st.lists(values, min_size=k * c, max_size=k * c))))
        return left @ right
    if kind == "diagonal":
        factors = st.sampled_from([1, 2, 6, 12, 60])
        ent = [draw(values) * draw(factors) if i == j else 0 for i in range(r) for j in range(c)]
    else:
        cell = values if kind == "dense" else st.just(0) | values
        ent = draw(st.lists(cell, min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, tuple(ent))


@settings(max_examples=150, deadline=None)
@given(hermite_matrices())
def test_transform_bits_are_bounded_by_shape_and_entry_size(a):
    s = _assert_valid_smith(a)
    bits = max((abs(x).bit_length() for x in a.entries), default=0)
    assert max_transform_bits(s) <= transform_bit_bound(a.rows, a.cols, max(bits, 1))


@pytest.mark.parametrize("n", [30, 40])
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_dense_matrices_against_the_determinant(n, seed):
    """The dense matrices of sides 30 and 40 whose transforms used to reach
    hundreds of thousands of bits (seed 1 at 40 did not finish in 270 s)."""
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    a = IntMatrix.from_rows(rows)
    s = _assert_valid_smith(a)
    det = det_int(rows)
    assert det != 0 and len(s.d) == n
    assert math.prod(s.d) == abs(det)
    assert smith_normal_form(a, track=()).d == s.d
    assert max_transform_bits(s) <= transform_bit_bound(n, n, 4)


def _snf_grid():
    path = Path(__file__).resolve().parent.parent / "scripts" / "snf_grid.py"
    spec = importlib.util.spec_from_file_location("snf_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNF_GRID = _snf_grid()


@pytest.mark.parametrize("name, a", list(SNF_GRID.grid()))
def test_invariant_factors_match_the_euclid_loop_on_the_snf_grid(name, a):
    assert smith_normal_form(a, track=()).d == euclid_invariant_factors(a.to_rows())


@settings(max_examples=120, deadline=None)
@given(shaped_matrices())
@example(IntMatrix.zeros(0, 4))
@example(IntMatrix.zeros(4, 0))
@example(IntMatrix(1, 4, (0, -2, 6, 3)))
@example(IntMatrix(4, 1, (0, -3, 6, 2)))
@example(IntMatrix.from_rows([[2, 0, 4, 1, -3], [1, 0, 2, 5, -1], [0, 0, 0, 2, 2]]))
def test_column_hermite_pass(a):
    """The pass on its own, at every shape: A V is in column Hermite form
    (each pivot positive with zeros above it and entries in [0, pivot) to
    its left, the other columns zero), V V^-1 = I, and V is reduced against
    the zero columns, whose V columns span the kernel.  The examples are
    the edges where the V tails are split off the columns: a side of 0 or
    1, and zero columns, whose pivots lie in their V tails."""
    cols = [a.col_list(j) for j in range(a.cols)]
    vt, vi = intalg._column_hermite(cols, a.rows, True, True)
    assert all(len(col) == a.rows for col in cols)
    v = IntMatrix.from_rows([list(r) for r in zip(*vt)]) if vt else IntMatrix.zeros(a.cols, a.cols)
    h = IntMatrix.from_rows([list(r) for r in zip(*cols)]) if cols else IntMatrix.zeros(a.rows, 0)
    assert (a @ v).entries == h.entries
    assert (v @ IntMatrix.from_rows(vi) if vi else v).entries == IntMatrix.identity(a.cols).entries
    lead = {}
    for j, col in enumerate(cols):
        r = next((i for i, x in enumerate(col) if x), None)
        if r is not None:
            assert r not in lead and col[r] > 0
            lead[r] = j
    for r, p in lead.items():
        for q in (lead[s] for s in lead if s < r):
            assert 0 <= cols[q][r] < cols[p][r]
    zero = [j for j in range(a.cols) if j not in lead.values()]
    assert not any(itertools.chain.from_iterable(cols[j] for j in zero))
    assert kernel_basis(a).cols == len(zero)
    # the kernel columns of V are in Hermite form too, and every other
    # column of V is reduced against them
    kernel_lead = {next(i for i, x in enumerate(vt[z]) if x): z for z in zero}
    assert len(kernel_lead) == len(zero)
    for r, z in kernel_lead.items():
        assert vt[z][r] > 0
        others = [p for p in range(a.cols) if p not in zero] + [kernel_lead[s] for s in kernel_lead if s < r]
        assert all(0 <= vt[p][r] < vt[z][r] for p in others)


@settings(max_examples=120, deadline=None)
@given(shaped_matrices())
@example(IntMatrix.zeros(3, 4))
@example(IntMatrix.from_rows([[0, 1, 2, 0, 3, 1, 2], [0, 2, 4, 1, 0, 3, 5], [0, 3, 6, 1, 3, 4, 7]]))
@example(IntMatrix.from_rows([[3, 0, 6, 1, 0, -3], [1, 0, 2, 4, 0, -1], [2, 0, 4, 2, 0, -2]]))
def test_column_hermite_pass_is_the_hermite_form_of_a_over_the_identity(a):
    """While V is tracked, the pass leaves the columns [A V; V], and sorted
    by pivot row they are the column Hermite basis of the (n + m) x m
    matrix [A; I], which `hermite_columns` of `scripts/snf_grid.py` builds
    by its own elimination.  That basis is unique, so this pins the result
    and not the way the pass reaches it.  The examples put zero columns of
    A V between pivot columns: a 3 x 7 of rank 2 whose first column is
    zero, and a 3 x 6 of rank 2 with two zero columns."""
    cols = [a.col_list(j) for j in range(a.cols)]
    vt, _ = intalg._column_hermite(cols, a.rows, True, True)
    stacked = sorted((c + v for c, v in zip(cols, vt)), key=lambda c: next(i for i, x in enumerate(c) if x))
    a_over_i = IntMatrix(a.rows + a.cols, a.cols, a.entries + IntMatrix.identity(a.cols).entries)
    assert stacked == SNF_GRID.hermite_columns(a_over_i)


def _seeded(rows, cols, seed, bound=9):
    rng = random.Random(seed)
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


@settings(max_examples=100, deadline=None)
@given(shaped_matrices() | hermite_matrices(kinds=("low rank",)))
@example(_seeded(6, 10, 1))
@example(_seeded(10, 6, 2))
@example(_seeded(8, 3, 3, 4) @ _seeded(3, 7, 4, 4))
def test_tracked_inverses_are_the_exact_inverses(a):
    """U^-1 and V^-1 are sympy's exact inverses of U and V.  Each Hermite
    pass reads its inverse off its Hermite form by forward substitution
    over the pivot rows.  When a pass brings in more vectors than the rank
    (the low-rank kind, and the examples: wide, tall, and 8 x 7 of rank 3),
    some of those rows lie in the tails, where the row of [A; I] is a unit
    vector."""
    s = smith_normal_form(a)
    assert s.uinv.to_rows() == integer_inverse(s.U.to_rows())
    assert s.vinv.to_rows() == integer_inverse(s.V.to_rows())


def test_hermite_inverse_refuses_a_pivot_that_does_not_divide():
    """[A; I] = [[1], [1]] is not [H; V] V^-1 for the column [2; 1]: the
    division by the pivot 2 leaves a remainder, and the substitution
    raises instead of truncating, also under python -O."""
    with pytest.raises(ArithmeticError, match="pivot 2 at row 0 does not divide"):
        intalg._hermite_inverse([(1,)], [[2, 1]], 1, [0], {0: 0})
    script = """
from immorder import intalg
try:
    intalg._hermite_inverse([(1,)], [[2, 1]], 1, [0], {0: 0})
except ArithmeticError as e:
    print(e)
"""
    assert _run_under_python_O(script) == "pivot 2 at row 0 does not divide its row of [A; I]"


def test_the_first_hermite_pass_runs_along_the_shorter_side(monkeypatch):
    """The first pass brings in the vectors of the shorter side (the columns
    of a square matrix), so a wide `kernel_basis`, which tracks V alone,
    starts with a row pass that tracks nothing."""
    calls = []
    column_hermite = intalg._column_hermite

    def recorded(cols, n, track_v, track_vinv):
        calls.append(([list(c) for c in cols], track_v, track_vinv))
        return column_hermite(cols, n, track_v, track_vinv)

    monkeypatch.setattr(intalg, "_column_hermite", recorded)
    for a in (_seeded(6, 9, 5), _seeded(9, 6, 6), _seeded(7, 7, 7)):
        calls.clear()
        smith_normal_form(a)
        first = calls[0][0]
        assert first == ([a.col_list(j) for j in range(a.cols)] if a.cols <= a.rows else a.to_rows())
    calls.clear()
    kernel_basis(_seeded(6, 9, 8))
    assert [(len(c), v, vi) for c, v, vi in calls] == [(6, False, False), (9, True, False)]


def test_small_matrices_take_no_hermite_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("Hermite pass on a small matrix")

    monkeypatch.setattr(intalg, "_column_hermite", refuse)
    rng = random.Random(4)
    for r, c in ((1, 1), (1, 39), (39, 1), (2, 2), (3, 3), (6, 4), (4, 6), (4, 40)):
        a = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        _assert_valid_smith(a)


def test_factorization_rejects_a_form_without_u_and_v():
    a = IntMatrix.from_rows([[2, 4], [6, 3]])
    for track in (("U",), ("uinv", "vinv"), ()):
        with pytest.raises(ValueError, match="tracks V"):
            Factorization(a, smith_normal_form(a, track=track))
    # the kernel needs V alone; solving needs U as well
    f = Factorization(a, smith_normal_form(a, track=("V",)))
    assert f.kernel().cols == 0
    with pytest.raises(ValueError, match="tracks U"):
        f.solve(a)


def test_each_caller_tracks_only_what_it_reads(monkeypatch):
    tracked = []
    snf = intalg.smith_normal_form

    def recorded(a, *, track=intalg.TRANSFORMS):
        tracked.append(frozenset(track))
        return snf(a, track=track)

    monkeypatch.setattr(intalg, "smith_normal_form", recorded)
    a = IntMatrix.from_rows([[2, 4, 0], [6, 8, 2]])

    def calls(fn, *args):
        tracked.clear()
        fn(*args)
        return list(tracked)

    assert calls(cokernel, a) == [frozenset()]
    assert calls(fibering.abelianization, fibering.Presentation.parse("<a,b|aab,bbAB>")) == [frozenset()]
    # a factorization is one Smith form of the whole matrix, with or
    # without +-1 entries
    unit = IntMatrix.from_rows([[1, 2], [3, 4]])
    for m in (a, unit):
        assert calls(Factorization.of, m) == [frozenset({"U", "V"})]
        assert calls(kernel_basis, m) == [frozenset({"V"})]
    assert calls(solve_linear, a, [2, 6]) == [frozenset({"U", "V"})]
    assert Factorization.of(unit).snf.d == (1, 2)
    # subquotient factors its sublattice basis to solve, then reads the
    # relation form with U (classes) and U^-1 (generators); an identity
    # basis takes its Smith form too
    rel = IntMatrix.from_rows([[2], [4], [0]])
    for basis in (IntMatrix.from_rows([[2, 0], [0, 1], [0, 0]]), IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])):
        assert calls(subquotient, basis, rel) == [frozenset({"U", "V"}), frozenset({"U", "uinv"})]
    # the mod-2 cycle lattice comes from the F2 elimination (2 on the
    # pivot, 0/1 lifts), and is factored like any basis
    assert calls(homology_data_mod2, IntMatrix.from_rows([[1], [1], [0]]), a) == [
        frozenset({"U", "V"}),
        frozenset({"U", "uinv"}),
    ]
    assert calls(f2_solvable, a, [1, 0]) == []


# -- solving -----------------------------------------------------------------


def test_solve_examples():
    a = IntMatrix.from_rows([[2]])
    assert solve_linear(a, [3]) is None
    assert solve_linear(a, [6]) == (3,)


def test_solve_shape_check():
    with pytest.raises(DimensionMismatch):
        solve_linear(IntMatrix.identity(2), [1, 2, 3])


@settings(max_examples=100, deadline=None)
@given(matrices, st.data())
def test_solve_finds_planted_solutions(a, data):
    x = data.draw(st.lists(small_entries, min_size=a.cols, max_size=a.cols))
    b = a.apply_vec(x)
    got = solve_linear(a, b)
    assert got is not None
    assert a.apply_vec(list(got)) == b


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_solve_none_means_no_solution_mod_m(a, data):
    """If the integer solve fails, exhaustive search mod small m confirms
    there is no solution modulo m either (for at least one small modulus),
    or the failure is a genuine lattice obstruction caught by re-check."""
    b = data.draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=a.rows, max_size=a.rows))
    got = solve_linear(a, b)
    if got is not None:
        assert a.apply_vec(list(got)) == b
        return
    # no integer solution: verify no solution exists in a box, mod nothing
    if a.cols <= 3:
        for cand in itertools.product(range(-8, 9), repeat=a.cols):
            assert a.apply_vec(list(cand)) != b


# -- factorizations ---------------------------------------------------------


@st.composite
def factor_shapes(draw):
    """Tall, wide, square, rank-deficient and zero-column matrices."""
    shape = draw(st.sampled_from(["tall", "wide", "square", "rank_deficient", "zero_column"]))
    if shape == "zero_column":
        return IntMatrix.zeros(draw(st.integers(min_value=0, max_value=4)), 0)
    if shape == "rank_deficient":
        r = draw(st.integers(min_value=2, max_value=4))
        c = draw(st.integers(min_value=2, max_value=4))
        k = draw(st.integers(min_value=0, max_value=min(r, c) - 1))
        left = IntMatrix(r, k, tuple(draw(st.lists(small_entries, min_size=r * k, max_size=r * k))))
        right = IntMatrix(k, c, tuple(draw(st.lists(small_entries, min_size=k * c, max_size=k * c))))
        return left @ right
    k = draw(st.integers(min_value=1, max_value=3))
    extra = draw(st.integers(min_value=1, max_value=2))
    r, c = {"tall": (k + extra, k), "wide": (k, k + extra), "square": (k, k)}[shape]
    return IntMatrix(r, c, tuple(draw(st.lists(small_entries, min_size=r * c, max_size=r * c))))


@st.composite
def systems(draw):
    """A matrix and a block of right-hand sides, some planted in its
    column lattice and some drawn at random."""
    a = draw(factor_shapes())
    cols = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.booleans()):
            cols.append(a.apply_vec(draw(st.lists(small_entries, min_size=a.cols, max_size=a.cols))))
        else:
            cols.append(draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=a.rows, max_size=a.rows)))
    b = IntMatrix(a.rows, len(cols), tuple(col[i] for i in range(a.rows) for col in cols))
    return a, b


@settings(max_examples=120, deadline=None)
@given(systems())
def test_block_solve_matches_single_solves(system):
    a, b = system
    got = Factorization.of(a).solve(b)
    assert len(got) == b.cols
    for j, x in enumerate(got):
        col = b.col_list(j)
        assert x == solve_linear(a, col)
        if x is None:
            assert not in_column_lattice(a, col)
        else:
            assert len(x) == a.cols
            assert a.apply_vec(list(x)) == col


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n), min_size=1, max_size=3),
    )
))
def test_square_consistency_agrees_with_cramer(rows_and_rhs):
    rows, rhs = rows_and_rhs
    det = det_int(rows)
    if det == 0:
        return
    n = len(rows)
    a = IntMatrix.from_rows(rows)
    b = IntMatrix(n, len(rhs), tuple(col[i] for i in range(n) for col in rhs))
    for x, col in zip(Factorization.of(a).solve(b), rhs):
        # Cramer: x_j = det(a with column j replaced by b) / det(a)
        minors = [det_int([row[:j] + [col[i]] + row[j + 1 :] for i, row in enumerate(rows)]) for j in range(n)]
        if all(m % det == 0 for m in minors):
            assert x == tuple(m // det for m in minors)
        else:
            assert x is None


@st.composite
def structured_matrices(draw):
    """Sparse matrices, circulants of group-ring elements, empty shapes, a
    matrix with no +-1 entry, the rank-one all-ones matrix, and the dense
    shift blocks of `oracles.reference_shift_data` up to order 16.  The
    shift blocks come last and small, so that shrinking a failure moves
    away from them and never runs sympy's Smith form on a large block; the
    largest blocks are explicit examples of the test below."""
    kind = draw(st.sampled_from(["sparse", "circulant", "empty", "no_unit", "ones", "shift"]))
    if kind == "shift":
        w = draw(st.sampled_from((0, 1)))
        n = 2 * draw(st.integers(1, 8)) if w else draw(st.integers(2, 16))
        proj_i, ring, ideal = reference_shift_data(n, w)
        return draw(st.sampled_from([proj_i, ring[0], ring[1], ideal[0], ideal[1]]))
    if kind == "circulant":
        n = draw(st.integers(1, 12))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return regular_representation(GroupRingElement(n, tuple(coeffs)))
    if kind == "empty":
        k = draw(st.integers(0, 4))
        return draw(st.sampled_from([IntMatrix.zeros(0, k), IntMatrix.zeros(k, 0), IntMatrix.zeros(k, k)]))
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if kind == "ones":
        return IntMatrix(r, c, (1,) * (r * c))
    values = [0, 0, 0, 2, -2, 3, -3] if kind == "no_unit" else [0, 0, 0, 1, -1, 2, -2, 3, -3]
    return IntMatrix(r, c, tuple(draw(st.lists(st.sampled_from(values), min_size=r * c, max_size=r * c))))


def _with_largest_shift_blocks(test):
    """Each shift block at `DENSE_REFERENCE_ORDER`, for w = 0 and 1, as an
    explicit example with seed 0; the projection block does not depend on
    w, so there are nine."""
    proj_i, ring0, ideal0 = reference_shift_data(DENSE_REFERENCE_ORDER, 0)
    _, ring1, ideal1 = reference_shift_data(DENSE_REFERENCE_ORDER, 1)
    for block in (proj_i, *ring0, *ideal0, *ring1, *ideal1):
        test = example(block, 0)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(structured_matrices(), st.integers(0, 2**32 - 1))
@_with_largest_shift_blocks
def test_factorization_matches_independent_oracles(a, seed):
    """The Smith form of a factorization has sympy's invariant factors, and
    those by minors on small matrices; its kernel is a basis of the kernel
    lattice: it vanishes under a, its rank is the nullity of a and its own
    invariant factors are all 1, by sympy; and a right-hand side has no
    solution exactly when [a | b] has other invariant factors than a.  The
    right-hand sides come from `seed`, so the largest shift blocks can be
    explicit examples."""
    f = Factorization.of(a)
    assert f.snf.d == sympy_invariant_factors(a)
    if max(a.rows, a.cols) <= 4:
        assert list(f.snf.d) == invariant_factors_by_minors(a.to_rows())
    k = f.kernel()
    assert k == kernel_basis(a)
    assert (a @ k).is_zero() and k.cols == a.cols - len(f.snf.d)
    assert sympy_invariant_factors(k) == (1,) * k.cols
    # solve verdicts, on planted and random right-hand sides
    rng = random.Random(seed)
    cols = []
    for _ in range(rng.randint(1, 3)):
        cols.append(a.apply_vec([rng.randint(-3, 3) for _ in range(a.cols)]))
        cols.append([rng.randint(-4, 4) for _ in range(a.rows)])
    b = IntMatrix(a.rows, len(cols), tuple(col[i] for i in range(a.rows) for col in cols))
    for x, col in zip(f.solve(b), cols):
        if x is None:
            assert sympy_invariant_factors(a.hstack(IntMatrix.column(col))) != f.snf.d
        else:
            assert a.apply_vec(list(x)) == col


@pytest.mark.parametrize("k", [0, 1, 5])
def test_zero_matrices_take_no_smith_form(k):
    """Zero matrices, which once skipped the Smith form, factor like any
    other: the kernel of a k x m zero matrix is a basis of Z^m (an
    identity V), and only the zero right-hand side has a solution, 0."""
    for a in (IntMatrix.zeros(k, 0), IntMatrix.zeros(k, k)):
        f = Factorization.of(a)
        assert f.kernel() == kernel_basis(a) and f.kernel().cols == a.cols
        assert abs(det_int(f.kernel().to_rows())) == 1
        cols = [[0] * k] + [[int(i == j) for i in range(k)] for j in range(k)]
        b = IntMatrix(k, len(cols), tuple(col[i] for i in range(k) for col in cols))
        assert f.solve(b) == [(0,) * a.cols] + [None] * k


def test_factorization_kernel_is_the_kernel_basis():
    a = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    f = Factorization.of(a)
    assert f.kernel() == kernel_basis(a)
    assert (a @ f.kernel()).is_zero() and f.kernel().cols == 2


def test_factorization_rejects_a_foreign_smith_form():
    f = Factorization.of(IntMatrix.identity(2))
    assert (f.snf.rows, f.snf.cols, f.snf.d) == (2, 2, (1, 1))
    with pytest.raises(DimensionMismatch):
        Factorization(f.a, smith_normal_form(IntMatrix.identity(3)))
    with pytest.raises(DimensionMismatch):
        Factorization(IntMatrix.identity(3), f.snf)
    with pytest.raises(DimensionMismatch):
        f.solve(IntMatrix.zeros(3, 1))


# a script for a fresh interpreter under python -O, which imports what it uses
_TAMPERED_V = """
from immorder.intalg import Factorization, IntMatrix, SmithForm
a = IntMatrix.from_rows([[2, 1], [0, 3]])
s = Factorization.of(a).snf
bad = Factorization(a, SmithForm(s.d, s.U, s.V.scale(2), s.uinv, s.vinv, s.rows, s.cols))
try:
    bad.solve(a)
except AssertionError as e:
    print(e)
"""


def test_tampered_factorization_fails_its_certificate():
    a = IntMatrix.from_rows([[2, 1], [0, 3]])
    good = Factorization.of(a)
    assert good.snf.d == (1, 6)
    assert good.solve(a) == [(1, 0), (0, 1)]
    # a doubled V or U doubles every solution, which the certificate refuses
    s = good.snf
    for snf in (
        SmithForm(s.d, s.U, s.V.scale(2), s.uinv, s.vinv, s.rows, s.cols),
        SmithForm(s.d, s.U.scale(2), s.V, s.uinv, s.vinv, s.rows, s.cols),
    ):
        bad = Factorization(a, snf)
        with pytest.raises(AssertionError, match="certificate"):
            bad.solve(a)


def _run_under_python_O(script: str) -> str:
    """The stripped stdout of `script` in a fresh interpreter under python -O."""
    src = Path(intalg.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip()


def test_tampered_factorization_fails_under_python_O():
    assert _run_under_python_O(_TAMPERED_V) == "solution fails the certificate a @ x == b"


def test_class_of_reuses_the_subquotient_factorization(monkeypatch):
    sq = homology_data(IntMatrix.from_rows([[2], [0]]), IntMatrix.zeros(0, 2))
    calls = []
    monkeypatch.setattr(intalg, "smith_normal_form", lambda a, **kw: calls.append(a))
    assert sq.class_of([1, 0]) == (1, 0)
    assert sq.class_of([0, 5]) == (0, 5)
    assert calls == []


# -- kernels and column spaces ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_basis_spans_kernel(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero()
    # basis columns are linearly independent: their Smith rank is full
    assert smith_normal_form(k).rank == k.cols
    # every small kernel vector is an integer combination of the basis
    if a.cols <= 3:
        for cand in itertools.product(range(-3, 4), repeat=a.cols):
            if all(v == 0 for v in a.apply_vec(list(cand))):
                assert solve_linear(k, list(cand)) is not None


# -- groups -------------------------------------------------------------------


def test_group_canonical_form_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    g = FgAbelianGroup(1, (2, 4))
    assert g.pretty() == "Z + Z/2 + Z/4"
    assert FgAbelianGroup.zero().pretty() == "0"
    assert FgAbelianGroup.cyclic(1).is_zero()
    assert FgAbelianGroup.cyclic(0) == FgAbelianGroup.free(1)
    assert g.order() is None
    assert FgAbelianGroup(0, (2, 4)).order() == 8


def test_cokernel_example():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    g = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert g == FgAbelianGroup(0, (6,))


# -- homology ------------------------------------------------------------------


def test_homology_rejects_non_complex():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(NotAComplex):
        homology_data(d_in, d_out)


def test_homology_shape_check():
    with pytest.raises(DimensionMismatch):
        homology_data(IntMatrix.zeros(3, 1), IntMatrix.zeros(1, 2))


def test_homology_circle_like():
    # 0 -> Z --0--> Z -> 0 at middle: H = Z
    z01 = IntMatrix.zeros(1, 1)
    assert homology_data(z01, IntMatrix.zeros(0, 1)).group == FgAbelianGroup.free(1)
    # Z --2--> Z: quotient Z/2
    assert homology_data(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 1)).group == FgAbelianGroup.cyclic(2)


@st.composite
def small_complexes(draw):
    """Random three-term complexes C2 --A--> C1 --B--> C0 with B A = 0."""
    n1 = draw(st.integers(min_value=1, max_value=3))
    n0 = draw(st.integers(min_value=0, max_value=3))
    ent = st.integers(min_value=-3, max_value=3)
    b = IntMatrix(n0, n1, tuple(draw(st.lists(ent, min_size=n0 * n1, max_size=n0 * n1))))
    k = kernel_basis(b)
    n2 = draw(st.integers(min_value=0, max_value=3))
    if k.cols == 0 or n2 == 0:
        a = IntMatrix.zeros(n1, n2)
    else:
        coef = draw(st.lists(ent, min_size=k.cols * n2, max_size=k.cols * n2))
        a = k @ IntMatrix(k.cols, n2, tuple(coef))
    return a, b


@settings(max_examples=100, deadline=None)
@given(small_complexes())
def test_homology_matches_independent_formula(ab):
    a, b = ab
    h = homology_data(a, b).group
    free, torsion = oracle_homology_group(a.to_rows(), b.to_rows())
    assert h.free_rank == free
    assert list(h.torsion) == torsion


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_homology_class_machinery(ab, data):
    a, b = ab
    data_h = homology_data(a, b)
    h = data_h.group
    ncoords = len(h.torsion) + h.free_rank
    # generators have unit canonical coordinates and are genuine cycles
    for i in range(ncoords):
        g = data_h.generator(i)
        assert all(v == 0 for v in b.apply_vec(list(g)))
        e = [0] * ncoords
        e[i] = 1
        assert list(data_h.class_of(g)) == e
    # boundaries are null-homologous; classes are translation invariant
    if a.cols:
        x = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=a.cols, max_size=a.cols))
        bd = a.apply_vec(x)
        assert all(c == 0 for c in data_h.class_of(bd))
        if ncoords:
            g0 = list(data_h.generator(0))
            shifted = [p + q for p, q in zip(g0, bd)]
            assert data_h.class_of(shifted) == data_h.class_of(g0)
    # torsion orders annihilate their generators
    for i, t in enumerate(h.torsion):
        g = data_h.generator(i)
        assert all(c == 0 for c in data_h.class_of([t * v for v in g]))


def test_subquotient_rejects_outside_vectors():
    basis = IntMatrix.from_rows([[2], [0]])
    sq = subquotient(basis, IntMatrix.zeros(2, 0))
    with pytest.raises(ValueError):
        sq.class_of([1, 0])
    with pytest.raises(ValueError):
        subquotient(basis, IntMatrix.from_rows([[1], [1]]))


# -- mod 2 ---------------------------------------------------------------------


def _f2_kernel(a: IntMatrix) -> set[tuple[int, ...]]:
    """The mod-2 kernel of a, by exhaustion over {0,1}^cols."""
    return {
        v
        for v in itertools.product((0, 1), repeat=a.cols)
        if all(sum(x * y for x, y in zip(a.row_list(i), v)) % 2 == 0 for i in range(a.rows))
    }


def _f2_span(basis: IntMatrix) -> set[tuple[int, ...]]:
    """Every 0/1 combination of the columns of basis, reduced mod 2."""
    cols = [basis.col_list(j) for j in range(basis.cols)]
    return {
        tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % 2 for i in range(basis.rows))
        for coeffs in itertools.product((0, 1), repeat=len(cols))
    }


def _mod2_cycle_lattice(a: IntMatrix) -> IntMatrix:
    return homology_data_mod2(IntMatrix.zeros(a.cols, 0), a).sub_basis


def test_f2_kernel_and_rank():
    a = IntMatrix.from_rows([[2, 1], [0, 1]])
    # mod 2 this is [[0,1],[0,1]]: kernel = span{(1,0)}, rank 1
    assert f2_rank(a) == 1
    assert _f2_kernel(a) == {(0, 0), (1, 0)}
    assert _f2_span(_mod2_cycle_lattice(a)) == {(0, 0), (1, 0)}


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_f2_kernel_exhaustive(a):
    if a.cols > 4:
        return
    true_kernel = _f2_kernel(a)
    assert len(true_kernel) == 2 ** (a.cols - f2_rank(a))
    assert _f2_span(_mod2_cycle_lattice(a)) == true_kernel


@settings(max_examples=120, deadline=None)
@given(factor_shapes(), st.data())
def test_f2_solvable_agrees_with_exhaustion(a, data):
    b = data.draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=a.rows, max_size=a.rows))
    found = any(
        all((y - z) % 2 == 0 for y, z in zip(a.apply_vec(list(cand)), b))
        for cand in itertools.product((0, 1), repeat=a.cols)
    )
    assert f2_solvable(a, b) == found


def test_f2_solvable_examples():
    a = IntMatrix.from_rows([[2], [3]])
    assert f2_solvable(a, [0, 1]) and f2_solvable(a, [4, -1])
    assert not f2_solvable(a, [1, 1])
    assert f2_solvable(IntMatrix.zeros(2, 0), [2, 0])
    assert not f2_solvable(IntMatrix.zeros(2, 0), [0, 1])
    with pytest.raises(DimensionMismatch):
        f2_solvable(a, [1])


@settings(max_examples=80, deadline=None)
@given(factor_shapes())
def test_homology_mod2_lattice_is_the_mod2_cycles(d_out):
    n = d_out.cols
    lattice = homology_data_mod2(IntMatrix.zeros(n, 0), d_out).sub_basis
    assert (lattice.rows, lattice.cols) == (n, n)
    # every basis column is a mod-2 cycle
    assert all(x % 2 == 0 for x in (d_out @ lattice).entries)
    # index 2^rank in Z^n, so the columns are independent
    assert abs(det_int(lattice.to_rows())) == 2 ** f2_rank(d_out)
    # every mod-2 cycle in a box lies in their span
    cycles = [
        list(z)
        for z in itertools.product(range(-1, 3), repeat=n)
        if all(x % 2 == 0 for x in d_out.apply_vec(list(z)))
    ]
    block = IntMatrix(n, len(cycles), tuple(z[i] for i in range(n) for z in cycles))
    assert all(x is not None for x in Factorization.of(lattice).solve(block))


def test_homology_mod2_of_doubling():
    # Z --2--> Z --0--> 0 : mod-2 homology in the middle is Z/2 (cycle e, relation 2e)
    a = IntMatrix.from_rows([[2]])
    b = IntMatrix.zeros(0, 1)
    sq = homology_data_mod2(a, b)
    assert sq.group == FgAbelianGroup.cyclic(2)
    assert sq.class_of([1]) == (1,)
    assert sq.class_of([2]) == (0,)


def test_homology_mod2_detects_mod2_cycles():
    # Z --1--> Z: over Z the middle homology is 0; mod 2 the boundary is odd,
    # so nothing survives either.
    a = IntMatrix.from_rows([[1]])
    sq = homology_data_mod2(a, IntMatrix.zeros(0, 1))
    assert sq.group.is_zero()
    # Z --0--> Z --2--> Z: middle mod-2 homology Z/2 (kernel of mult-2 mod 2 is everything)
    sq2 = homology_data_mod2(IntMatrix.zeros(1, 1), IntMatrix.from_rows([[2]]))
    assert sq2.group == FgAbelianGroup.cyclic(2)


def test_int_complex_rejects_unsupported_modulus():
    with pytest.raises(ValueError):
        IntComplex(dims=(1, 1), down=(IntMatrix.from_rows([[2]]),), modulus=3)


def test_int_complex_cohomology_is_homology_of_transpose():
    # Z^2 --diag(2, 0)--> Z^2: H_0 = Z/2 + Z, H^1 = Z/2 + Z
    down = (IntMatrix.from_rows([[2, 0], [0, 0]]),)
    cx = IntComplex(dims=(2, 2), down=down)
    assert cx.homology(0) == FgAbelianGroup(1, (2,))
    assert cx.homology(1) == FgAbelianGroup.free(1)
    assert cx.cohomology(0) == FgAbelianGroup.free(1)
    assert cx.cohomology(1) == FgAbelianGroup(1, (2,))
    with pytest.raises(IndexError):
        cx.cohomology(2)

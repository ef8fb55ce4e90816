"""Independent oracles used by the test suite.

These deliberately avoid the code paths of the package under test: minors
are expanded combinatorially, determinants use Bareiss elimination, ranks
come from sympy, group-theoretic answers are derived from classical
formulas rather than from the package's own Smith-form pipeline, and Hasse
diagrams are assembled from a dict on pairs rather than from bitsets.
`euclid_invariant_factors` keeps the elimination that `smith_normal_form`
ran before its Hermite pass.  `regular_representation` is the dense n x n
matrix of a group-ring element, which the package no longer builds:
`reference_shift`, `reference_chain_map` and
`reference_factorization_obstruction` keep the solves against it that
`postnikov.shift`, `postnikov.chain_map_exists` and
`postnikov.factorization_obstruction` replaced with closed forms in the
group ring.  The `code_*` functions keep the signed letter codes (a, A,
b, B as +1, -1, +2, -2) that `fibering` used before it stored words as
their text.  `reference_parse` keeps the argparse parser that
`immorder.cli` built before it read argv from its own option table.
`dataclass_twin` keeps the frozen dataclasses that the package's records
were before they became slotted classes on `intalg.Record`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
from math import gcd
from operator import add, mul

import sympy


def det_int(rows: list[list[int]]) -> int:
    """Integer determinant via exact fraction-free expansion."""
    n = len(rows)
    if n == 0:
        return 1
    m = sympy.Matrix(rows)
    return int(m.det())


def integer_inverse(rows: list[list[int]]) -> list[list[int]]:
    """The inverse of a unimodular integer matrix, from sympy's exact
    rational inverse; ValueError when that inverse is not integral."""
    if not rows:
        return []
    inv = sympy.Matrix(rows).inv()
    if not all(x.is_integer for x in inv):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in inv.row(i)] for i in range(inv.rows)]


def invariant_factors_by_minors(rows: list[list[int]]) -> list[int]:
    """Invariant factors from the classical gcd-of-k-minors definition.

    d_1 ... d_r with d_1...d_k = gcd of all k x k minors; independent of
    any elimination strategy.
    """
    r = len(rows)
    c = len(rows[0]) if r else 0
    mat = sympy.Matrix(rows) if r and c else None
    rank = mat.rank() if mat is not None else 0
    prev = 1
    out = []
    for k in range(1, rank + 1):
        g = 0
        for ri in itertools.combinations(range(r), k):
            for ci in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_int(sub))
        out.append(g // prev)
        prev = g
    return out


def oracle_homology_group(a_rows: list[list[int]], b_rows: list[list[int]]) -> tuple[int, list[int]]:
    """(free_rank, torsion) of ker(B)/im(A) for C2 --A--> C1 --B--> C0.

    Uses the splitting ker B / im A -> Z^n / im A -> im B: the torsion of
    the homology equals the torsion of coker(A), and the free rank is
    null(B) - rank(A).  Ranks come from sympy; torsion from gcd-of-minors.
    """
    n = len(a_rows)
    rank_a = sympy.Matrix(a_rows).rank() if a_rows and a_rows[0] else 0
    rank_b = sympy.Matrix(b_rows).rank() if b_rows and b_rows[0] else 0
    torsion = [d for d in invariant_factors_by_minors(a_rows) if d >= 2] if a_rows and a_rows[0] else []
    free = (n - rank_b) - rank_a
    return free, torsion


def sympy_invariant_factors(a) -> tuple[int, ...]:
    """The nonzero invariant factors of the IntMatrix a, by sympy's Smith
    normal form."""
    from sympy.matrices.normalforms import invariant_factors

    if not (a.rows and a.cols):
        return ()
    return tuple(abs(int(d)) for d in invariant_factors(sympy.Matrix(a.to_rows()), domain=sympy.ZZ) if d)


def in_column_lattice(a, col) -> bool:
    """Does `col` lie in the lattice L(a) spanned by the columns of the
    IntMatrix a?  Exactly when [a | col] has the invariant factors of a,
    by minors: L(a) has finite index in L([a | col]) when the ranks agree,
    and that index is the ratio of the products of the invariant
    factors."""
    if a.cols == 0:
        return not any(col)
    aug = [row + [x] for row, x in zip(a.to_rows(), col)]
    return invariant_factors_by_minors(a.to_rows()) == invariant_factors_by_minors(aug)


def solves_into(basis, vectors) -> bool:
    """Does every column of `vectors` lie in the column span of `basis`
    (by `in_column_lattice`)?"""
    return all(in_column_lattice(basis, vectors.col_list(j)) for j in range(vectors.cols))


def euclid_invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """The nonzero invariant factors of the matrix `rows` by the Euclid loop
    that `intalg.smith_normal_form` ran on the whole matrix before it started
    with a Hermite pass: take an entry of least absolute value in the
    trailing block as the pivot, clear its row and column by quotients,
    promoting any remainder to the pivot, and once the cross is clear add a
    row whose entries the pivot does not divide.  Only the working matrix is
    kept, whose entries grow to hundreds of bits on dense 18 x 18 inputs."""
    w = [list(r) for r in rows]
    n, m = len(w), len(w[0]) if w else 0
    t = 0
    while t < min(n, m):
        nonzero = [(abs(w[i][j]), i, j) for i in range(t, n) for j in range(t, m) if w[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        w[t], w[pi] = w[pi], w[t]
        for r in w[t:]:
            r[t], r[pj] = r[pj], r[t]
        while True:
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
            p = w[t][t]
            for i in range(t + 1, n):
                if w[i][t]:
                    q = w[i][t] // p
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        break
            else:
                for j in range(t + 1, m):
                    if w[t][j]:
                        q = w[t][j] // p
                        for r in w[t:]:
                            r[j] -= q * r[t]
                        if w[t][j]:
                            for r in w[t:]:
                                r[t], r[j] = r[j], r[t]
                            break
                else:
                    offender = next((i for i in range(t + 1, n) if any(x % p for x in w[i][t + 1 :])), None)
                    if offender is None:
                        break
                    w[t] = [x + y for x, y in zip(w[t], w[offender])]
        t += 1
    return tuple(w[i][i] for i in range(min(n, m)) if w[i][i])


def cyclic_convolution(a, b) -> tuple[int, ...]:
    """Coefficients of a * b in Z[Z/n] by the dense double loop.

    The reference for the group-ring product: every pair of nonzero terms
    a_i a^i, b_j a^j contributes a_i b_j to the coefficient of a^((i+j) mod n).
    """
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return tuple(out)


def regular_representation(x):
    """Matrix of left multiplication by the group-ring element x on
    Z[Z/n] in the basis (a^i)."""
    from immorder.intalg import IntMatrix

    # entry (i, j) is c[(i - j) % n]: row i is the reversed c rotated by n - 1 - i
    n, twice = x.n, x.coeffs[::-1] * 2
    return IntMatrix(n, n, tuple(itertools.chain.from_iterable(twice[n - 1 - i : 2 * n - 1 - i] for i in range(n))))


def action_power_sum(action_rows: list[list[int]], coeffs) -> list[list[int]]:
    """sum_i coeffs[i] A^i for the square matrix A, from len(coeffs) products.

    The reference for `CoefficientModule.rho`: it walks through every power
    A^0, ..., A^(n-1) with no use of the order of A.  Each next power A P
    takes one dot product in C per entry, a row of A against a column of P.
    """
    r = len(action_rows)
    out = [[0] * r for _ in range(r)]
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    for c in coeffs:
        if c:
            out = [list(map(add, orow, map(mul, itertools.repeat(c), prow))) for orow, prow in zip(out, power)]
        cols = list(zip(*power))
        power = [[sum(map(mul, row, col)) for col in cols] for row in action_rows]
    return out


def reference_resolution_boundaries(n: int, top: int, action_rows: list[list[int]]) -> list[list[list[int]]]:
    """rho(d_1), ..., rho(d_top) on the periodic resolution of Z over Z[Z/n].

    The full-length reference for `standard_resolution`,
    `coefficients_complex` and the ring and ideal boundary blocks of
    `reference_shift_data`, which share one period: every degree gets a
    fresh coefficient vector, 1 - a in odd degrees and the norm in even
    ones, every adjacent pair is checked to compose to zero by the dense
    convolution, and every degree runs its own `action_power_sum` for the
    module whose generator acts by `action_rows`.
    """

    def one_minus_a():
        d = [0] * n
        d[0] += 1
        d[1 % n] -= 1
        return d

    bounds = [one_minus_a() if k % 2 else [1] * n for k in range(1, top + 1)]
    for d_out, d_in in zip(bounds, bounds[1:]):
        assert not any(cyclic_convolution(d_out, d_in)), "consecutive boundaries do not compose to zero"
    return [action_power_sum(action_rows, d) for d in bounds]


def elementary_reachable(start: list[list[int]], goal: list[list[int]], max_steps: int = 6) -> bool:
    """Breadth-first search over elementary row/column operations.

    Explores products of swaps, negations and single-step transvections
    (row_i += c*row_j, c in {-1, 1}; same for columns) and reports whether
    `goal` is reachable from `start` within max_steps operations.
    """

    def freeze(m):
        return tuple(tuple(r) for r in m)

    r = len(start)
    c = len(start[0])
    goal_t = freeze(goal)
    seen = {freeze(start)}
    frontier = [start]
    if freeze(start) == goal_t:
        return True
    for _ in range(max_steps):
        nxt = []
        for m in frontier:
            candidates = []
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    for s in (1, -1):
                        mm = [list(row) for row in m]
                        mm[i] = [x + s * y for x, y in zip(mm[i], mm[j])]
                        candidates.append(mm)
            for i in range(c):
                for j in range(c):
                    if i == j:
                        continue
                    for s in (1, -1):
                        mm = [list(row) for row in m]
                        for row in mm:
                            row[i] += s * row[j]
                        candidates.append(mm)
            for i in range(r):
                for j in range(i + 1, r):
                    mm = [list(row) for row in m]
                    mm[i], mm[j] = mm[j], mm[i]
                    candidates.append(mm)
            for i in range(c):
                for j in range(i + 1, c):
                    mm = [list(row) for row in m]
                    for row in mm:
                        row[i], row[j] = row[j], row[i]
                    candidates.append(mm)
            for i in range(r):
                mm = [list(row) for row in m]
                mm[i] = [-x for x in mm[i]]
                candidates.append(mm)
            for cand in candidates:
                f = freeze(cand)
                if f == goal_t:
                    return True
                if f not in seen and all(abs(x) <= 12 for row in cand for x in row):
                    seen.add(f)
                    nxt.append(cand)
        frontier = nxt
        if not frontier:
            break
    return False


# ---------------------------------------------------------------------------
# chain-level oracles for the tabulated mod-2 cohomology rings.
#
# These use the package's exact matrix layer (tested independently) but not
# its tabulated ring: products come from solving for an equivariant diagonal
# approximation, Bocksteins from lifting cocycles to Z/4 coefficients, and
# pullback multipliers from solving for equivariant chain maps degree by
# degree.


def solve_mod2(rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """Solve A x = b over the field with two elements (None if inconsistent)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[x % 2 for x in row] + [rhs[i] % 2] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for j in range(n):
        sel = None
        for i in range(r, m):
            if aug[i][j]:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(m):
            if i != r and aug[i][j]:
                aug[i] = [(a + b) % 2 for a, b in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = [0] * n
    for i, j in enumerate(pivots):
        x[j] = aug[i][n]
    return x


def _kron_rows(a_rows, b_rows):
    out = []
    for arow in a_rows:
        for brow in b_rows:
            row = []
            for x in arow:
                row.extend(x * y for y in brow)
            out.append(row)
    return out


class DiagonalOracle:
    """Mod-2 cup products on H^*(Z/n; Z/2) from a solved diagonal map.

    Solves, degree by degree, for an equivariant chain map from the
    periodic resolution to its tensor square (diagonal action) lifting the
    identity, entirely mod 2, and reads cup products off the result.
    """

    def __init__(self, n: int, top: int = 4):
        from immorder.groupring import GroupRingElement, standard_resolution

        self.n = n
        self.top = top
        res = standard_resolution(n, top)
        elts = [None] + [res.boundary(k) for k in range(1, top + 1)]
        rr = [regular_representation(e).to_rows() if e is not None else None for e in elts]
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        gen_rr = regular_representation(GroupRingElement.gen(n)).to_rows()
        # powers of the permutation matrix
        pows = [eye]
        for _ in range(n - 1):
            pows.append([[sum(gen_rr[i][k] * pows[-1][k][j] for k in range(n)) for j in range(n)] for i in range(n)])

        def rho_diag(elt):
            size = n * n
            acc = [[0] * size for _ in range(size)]
            for i, c in enumerate(elt.coeffs):
                if c % 2:
                    kr = _kron_rows(pows[i], pows[i])
                    for r in range(size):
                        for s in range(size):
                            acc[r][s] = (acc[r][s] + kr[r][s]) % 2
            return acc

        nn = n * n
        # delta[d] = list over components u = 0..d of length-(n^2) vectors
        delta = [[[0] * nn]]
        delta[0][0][0] = 1  # 1 (x) 1
        for d in range(1, top + 1):
            # big boundary matrix from degree d to d-1
            src = nn * (d + 1)
            dst = nn * d
            big = [[0] * src for _ in range(dst)]
            for u in range(d + 1):
                v = d - u
                if u >= 1:
                    block = _kron_rows(rr[u], eye)
                    for r in range(nn):
                        for s in range(nn):
                            if block[r][s] % 2:
                                big[(u - 1) * nn + r][u * nn + s] ^= 1
                if v >= 1:
                    block = _kron_rows(eye, rr[v])
                    for r in range(nn):
                        for s in range(nn):
                            if block[r][s] % 2:
                                big[u * nn + r][u * nn + s] ^= 1
            rd = rho_diag(elts[d])
            rhs = []
            for u in range(d):
                vec = delta[d - 1][u]
                rhs.extend(sum(rd[r][s] * vec[s] for s in range(nn)) % 2 for r in range(nn))
            sol = solve_mod2(big, rhs)
            assert sol is not None, f"no diagonal approximation at degree {d}"
            delta.append([sol[u * nn : (u + 1) * nn] for u in range(d + 1)])
        self._delta = delta

    def cup_coefficient(self, p: int, q: int) -> int:
        """Coefficient of gen_(p+q) in gen_p cup gen_q (mod 2)."""
        comp = self._delta[p + q][p]
        return sum(comp) % 2


def bockstein_oracle(n: int, degree: int) -> int:
    """Coefficient of Sq^1 on the degree-`degree` mod-2 generator of Z/n.

    Lifts the cocycle to integer coefficients, applies the integral
    coboundary, divides by two, reduces mod 2 — the chain-level definition
    of the mod-2 Bockstein on the periodic resolution.
    """
    from immorder.groupring import coefficient_module, standard_resolution

    mod = coefficient_module("Z", n)
    res = standard_resolution(n, degree + 2)
    elt = res.boundary(degree + 1)
    delta = mod.rho(elt).at(0, 0)  # integral coboundary multiplier
    assert delta % 2 == 0, "generator rep is not a mod-2 cocycle"
    return (delta // 2) % 2


def pullback_multiplier_oracle(l1: int, l2: int, m: int, degree: int) -> int:
    """Mod-2 pullback multiplier in the given degree along a -> a^m.

    Solves for an equivariant chain map over the group homomorphism
    between the two periodic resolutions and augments it.
    """
    from immorder.groupring import GroupRingElement, standard_resolution
    from immorder.intalg import solve_linear

    def push(elt):
        out = [0] * l2
        for i, c in enumerate(elt.coeffs):
            out[(m * i) % l2] += c
        return GroupRingElement(l2, tuple(out))

    res1 = standard_resolution(l1, degree)
    res2 = standard_resolution(l2, degree)
    u = GroupRingElement.one(l2)
    for k in range(1, degree + 1):
        rhs = push(res1.boundary(k)) * u
        mat = regular_representation(res2.boundary(k))
        sol = solve_linear(mat, list(rhs.coeffs))
        assert sol is not None, "chain map extension failed"
        u = GroupRingElement(l2, tuple(sol))
    return u.augmentation() % 2


def reference_ideal_blocks(n: int):
    """The augmentation ideal I of Z[Z/n] by the general solver.

    The reference for `postnikov.shift`, which reads I by coordinates and
    its H_1 = H_3 in closed form: returns (inclusion, action,
    projection), where the inclusion is `kernel_basis` of the augmentation
    row, and the action of a on I and the projection x -> (1 - a) x are
    solved against one Smith-form factorization of the inclusion.
    """
    from immorder.groupring import GroupRingElement
    from immorder.intalg import Factorization, IntMatrix, kernel_basis

    inclusion = kernel_basis(IntMatrix.from_rows([[1] * n]))
    factored = Factorization.of(inclusion)

    def solved(block):
        cols = factored.solve(block)
        assert all(q is not None for q in cols), "block escaped the augmentation ideal"
        return IntMatrix(n - 1, block.cols, tuple(q[i] for i in range(n - 1) for q in cols))

    gen = regular_representation(GroupRingElement.gen(n))
    one_minus_a = regular_representation(GroupRingElement.one(n) - GroupRingElement.gen(n))
    return inclusion, solved(gen @ inclusion), solved(one_minus_a)


def reference_shift_sequences(n: int):
    """The maps of the three short exact sequences behind `postnikov.shift`.

    Returns (augmentation, inclusion_i, projection_i, inclusion_n): the
    augmentation row R -> Z, which is also x -> N x read in the norm line
    (N); the inclusion of the augmentation ideal I and the projection
    x -> (1 - a) x onto it, from `reference_ideal_blocks`; and the all-ones
    column spanning (N).  `shift_data` keeps none of them, and reads I and
    (N) by coordinates.
    """
    from immorder.intalg import IntMatrix

    inclusion, _, projection = reference_ideal_blocks(n)
    return IntMatrix.from_rows([[1] * n]), inclusion, projection, IntMatrix.column([1] * n)


def reference_pull_back(inclusion, x) -> tuple[int, ...] | None:
    """The preimage of x under an injective inclusion, by a Smith-form
    factorization of the inclusion (None when x is not in its image)."""
    from immorder.intalg import Factorization, IntMatrix

    return Factorization.of(inclusion).solve(IntMatrix.column(x))[0]


def box_chain_witnesses(d2_target, rhs, bound: int):
    """Count and sample degree-2 witnesses with coefficients in [-bound, bound].

    Enumerates every coefficient vector in the box and keeps those whose
    ring product with d2_target equals rhs (the product is computed as the
    regular-representation matrix acting on the coefficient vector, which
    is the definition of multiplication in the group ring).  Returns
    (count, samples) where samples holds at most 50 witnesses as tuples.
    Only supports the rank-one case (single generator in degree 2).
    """
    import numpy as np

    n = d2_target.n
    reg = np.array([regular_representation(d2_target).row_list(i) for i in range(n)], dtype=np.int64)
    target = np.array(list(rhs.coeffs), dtype=np.int64)
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    width = len(values)
    count = 0
    samples: list[tuple[int, ...]] = []
    # chunk over the first two coordinates to keep memory bounded
    tail = np.stack(
        np.meshgrid(*([values] * (n - 2)), indexing="ij"), axis=-1
    ).reshape(-1, n - 2)
    for v0 in values:
        for v1 in values:
            head = np.empty((tail.shape[0], 2), dtype=np.int64)
            head[:, 0] = v0
            head[:, 1] = v1
            cands = np.hstack([head, tail])
            prods = cands @ reg.T
            mask = np.all(prods == target, axis=1)
            count += int(mask.sum())
            if len(samples) < 50:
                for row in cands[mask][: 50 - len(samples)]:
                    samples.append(tuple(int(x) for x in row))
    return count, samples


def exhaustive_connecting_classes(projection, inclusion, boundary, cycle, classify, bound: int):
    """Connecting-map value over *all* bounded preimages of a cycle.

    For every integer vector b in the box with projection(b) == cycle,
    computes boundary(b), pulls it back through the inclusion, and collects
    classify(preimage).  A well-defined connecting map must make this set a
    singleton; the caller asserts that.
    """
    from immorder.intalg import solve_linear

    width = projection.cols
    target = list(cycle)
    classes = set()
    count = 0
    for cand in itertools.product(range(-bound, bound + 1), repeat=width):
        vec = list(cand)
        if projection.apply_vec(vec) != target:
            continue
        count += 1
        image = boundary.apply_vec(vec)
        pre = solve_linear(inclusion, image)
        assert pre is not None, "boundary of a lift left the submodule"
        classes.add(classify(pre))
    assert count > 0, "no preimages found inside the search box"
    return classes


def hasse_by_pairs(types, leq):
    """Hasse diagram by the pair-dict algorithm, the reference for `order_graph`.

    Shares canonicalization, sort order and node names with the package but
    keeps the relation as a dict on pairs of types, checks transitivity by
    the O(N^3) triple loop, groups mutual classes by comparing with each
    class's first member, and finds covers pair by pair.  Raises the same
    errors as `order_graph` on the same axiom failures.
    """
    from immorder.order import OrderGraph, UndecidablePair, canonicalize, node_label, node_name

    def _sort_key(t):
        return t.key

    canon = sorted({canonicalize(t) for t in types}, key=_sort_key)
    rel = {}
    for a in canon:
        for b in canon:
            v = leq(a, b)
            if v.answer is None:
                raise UndecidablePair(f"cannot compare {node_label(a)} and {node_label(b)}: {v.reason}")
            rel[(a, b)] = v.answer
    for a in canon:
        if not rel[(a, a)]:
            raise AssertionError(f"reflexivity failed at {node_label(a)}")
    for a in canon:
        for b in canon:
            if rel[(a, b)]:
                for c in canon:
                    if rel[(b, c)] and not rel[(a, c)]:
                        raise AssertionError(
                            f"transitivity failed: {node_label(a)} <= {node_label(b)} <= {node_label(c)}"
                        )
    groups = []
    for t in canon:
        for cls in groups:
            if rel[(t, cls[0])] and rel[(cls[0], t)]:
                cls.append(t)
                break
        else:
            groups.append([t])
    reps = sorted((min(cls, key=_sort_key) for cls in groups), key=_sort_key)
    above = {a: [b for b in reps if b != a and rel[(a, b)]] for a in reps}
    for a in reps:
        for b in above[a]:
            if rel[(b, a)]:
                raise AssertionError("antisymmetry failed on representatives")
            if len(above[b]) >= len(above[a]):
                raise AssertionError("strict order contains a cycle")
    covers = [(a, b) for a in reps for b in above[a] if not any(rel[(c, b)] for c in above[a] if c != b)]
    edges = tuple(sorted((node_name(u), node_name(v)) for u, v in covers))
    return OrderGraph(nodes=tuple(reps), edges=edges)


# The largest order at which the tests check `postnikov.shift` against the
# dense reference: its (n - 1)^2 blocks and their Smith forms grow fast.
DENSE_REFERENCE_ORDER = 96


@functools.cache
def reference_shift_data(n: int, w: int):
    """The dense presentation that `postnikov.shift` solved against before
    it worked in the group ring, the reference for `postnikov.shift`.
    Built once per (n, w): the blocks are frozen `IntMatrix`, so every
    caller may share them.

    Returns (proj_i, ring, ideal): the projection x -> (1 - a) x onto the
    augmentation ideal I, in the basis [-1 ... -1; I] of I, and the two
    boundaries (degree k in `ring[k % 2]` and `ideal[k % 2]`, k >= 1) of
    R^w = Z[Z/n]^w and of I^w, each the `regular_representation` of the
    norm or of 1 - a with the odd coefficients times (-1)^w, read in that
    basis of I on the ideal.
    """
    from immorder.groupring import GroupRingElement, norm
    from immorder.intalg import IntMatrix

    def in_ideal(block):
        p = block.cols
        assert not any(sum(block.entries[j::p]) for j in range(p)), "block escaped the augmentation ideal"
        return IntMatrix(block.rows - 1, p, block.entries[p:])

    d1 = GroupRingElement.one(n) - GroupRingElement.gen(n)
    proj_i = in_ideal(regular_representation(d1))
    sign = -1 if w else 1
    ring, ideal = [], []
    for d in (norm(n), d1):
        m = regular_representation(GroupRingElement(n, tuple(sign * c if i % 2 else c for i, c in enumerate(d.coeffs))))
        e = m.entries
        # m restricted to I: column j - 1 of the basis is e_j - e_0
        restricted = IntMatrix(n, n - 1, tuple(e[i + j] - e[i] for i in range(0, n * n, n) for j in range(1, n)))
        ring.append(m)
        ideal.append(in_ideal(restricted))
    return proj_i, tuple(ring), tuple(ideal)


def reference_shift(n: int, w: int, c: int, seed: int = 0):
    """`postnikov.shift` by the dense path it replaced: every lift is a
    Smith-form solve against the projection's matrix plus a random
    combination of the columns of its kernel basis (one draw in -4..4 per
    column, in column order), every boundary a dense matrix product, and
    H_1 = H_3 on I^w the `homology_data` of the two ideal blocks.

    Returns (groups, classes, cycles) indexed by stage, as in
    `postnikov.ShiftResult`.
    """
    import random

    from immorder.cohomology import cyclic_homology
    from immorder.intalg import Factorization, IntMatrix, homology_data

    proj_i, ring, ideal = reference_shift_data(n, w)
    rng = random.Random(seed)
    h4 = h2 = cyclic_homology(n, "Zw" if w else "Z", 4)
    z4 = (0,) if h4.group.is_zero() else tuple(c * x for x in h4.generator(0))

    def connecting(boundary, keep, proj, cycle):
        lifted = list(proj.solve(IntMatrix.column(cycle))[0])
        ker = proj.kernel()
        for j in range(ker.cols):
            t = rng.randint(-4, 4)
            lifted = [x + t * y for x, y in zip(lifted, ker.col_list(j))]
        db = boundary.apply_vec(lifted)
        return keep(db)

    def in_ideal(x):
        assert sum(x) == 0, "boundary of the lift escaped the augmentation ideal"
        return tuple(x[1:])

    def in_norm_line(x):
        assert x == [x[0]] * n, "boundary of the lift escaped the norm line"
        return (x[0],)

    eps = Factorization.of(IntMatrix.from_rows([[1] * n]))
    z3 = connecting(ring[0], in_ideal, eps, z4)
    z2 = connecting(ring[1], in_norm_line, Factorization.of(proj_i), z3)
    z1 = connecting(ring[0], in_ideal, eps, z2)
    h1 = h3 = homology_data(ideal[0], ideal[1])
    groups = (h4.group, h3.group, h2.group, h1.group)
    classes = (h4.class_of(z4), h3.class_of(z3), h2.class_of(z2), h1.class_of(z1))
    return groups, classes, (tuple(z4), z3, z2, z1)


def reference_chain_map(c_complex, d_complex, phi, c1):
    """The degree-2 vertical h with d2_D h = c1 phi#(d2_C) by the dense
    path that `postnikov.chain_map_exists` replaced: one `solve_linear`
    against the `regular_representation` of d2_D (None when the system
    has no integer solution)."""
    from immorder.groupring import GroupRingElement
    from immorder.intalg import solve_linear
    from immorder.postnikov import push_forward

    rhs = c1 * push_forward(phi, c_complex.boundary(2))
    sol = solve_linear(regular_representation(d_complex.boundary(2)), rhs.coeffs)
    return None if sol is None else GroupRingElement(d_complex.n, sol)


def reference_factorization_obstruction(k: int, full_module: bool = False) -> bool:
    """`postnikov.factorization_obstruction` by the dense solve it
    replaced: y with (1 - a) y = 1 - a against the `regular_representation`
    of 1 - a, with the row eps(y) = 0 appended unless `full_module`; True
    when the system has no integer solution."""
    from immorder.groupring import GroupRingElement
    from immorder.intalg import IntMatrix, solve_linear

    n = 2 * k
    d1 = GroupRingElement.one(n) - GroupRingElement.gen(n)
    rows = regular_representation(d1).to_rows()
    b = list(d1.coeffs)
    if not full_module:
        rows.append([1] * n)
        b.append(0)
    return solve_linear(IntMatrix.from_rows(rows), b) is None


# ---------------------------------------------------------------------------
# free words by signed letter codes

_LETTER_CODE = {"a": 1, "A": -1, "b": 2, "B": -2}
_CODE_LETTER = {v: k for k, v in _LETTER_CODE.items()}


def _codes(text: str) -> list[int]:
    return [_LETTER_CODE[ch] for ch in text]


def _text(codes) -> str:
    return "".join(_CODE_LETTER[x] for x in codes)


def code_free_reduce(text: str) -> str:
    """Free reduction by a stack of codes: a code cancels its negative."""
    out: list[int] = []
    for x in _codes(text):
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return _text(out)


def code_is_freely_reduced(text: str) -> bool:
    """No two adjacent codes sum to 0."""
    codes = _codes(text)
    return all(map(add, codes, codes[1:]))


def code_inverse(text: str) -> str:
    return _text(-x for x in reversed(_codes(text)))


def code_exponents(text: str) -> tuple[int, int]:
    codes = _codes(text)
    return codes.count(1) - codes.count(-1), codes.count(2) - codes.count(-2)


def code_prefix_values(text: str, a: int, b: int) -> tuple[int, ...]:
    """Prefix sums of the character with phi(a) = a, phi(b) = b."""
    value = {1: a, -1: -a, 2: b, -2: -b}
    return tuple(itertools.accumulate(value[x] for x in _codes(text)))


def cyclically_reduce(w):
    """Shortest word conjugate to the `FreeWord` w: free reduction plus
    end-cancellation (the middle of a freely reduced word is freely
    reduced, so one slice)."""
    from immorder.fibering import FreeWord

    text = code_free_reduce(str(w))
    i, j = 0, len(text)
    while j - i >= 2 and text[i] == text[j - 1].swapcase():
        i, j = i + 1, j - 1
    return FreeWord(text[i:j])


# ---------------------------------------------------------------------------
# the argparse parser of the command line


class _Refused(ValueError):
    """The argparse parser refused an argv."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _Refused(message)


def _word_text(text: str) -> str:
    from immorder.cli import MAX_WORD_TEXT

    if len(text) > MAX_WORD_TEXT:
        raise argparse.ArgumentTypeError(f"text of {len(text)} characters exceeds the budget of {MAX_WORD_TEXT}")
    return text


@functools.cache
def _build_parser() -> _Parser:
    from immorder.cli import (
        MAX_CYCLIC_ORDER,
        MAX_DEGREE,
        _GROUP_HELP,
        _WORD_HELP,
        __doc__,
        _cmd_abelianization,
        _cmd_chain_verify,
        _cmd_fibered,
        _cmd_homology,
        _cmd_integral_lift,
        _cmd_leq,
        _cmd_model_cohomology,
        _cmd_order_graph,
        _cmd_realizable,
        _cmd_shift,
        _cmd_sq2w,
    )

    parser = _Parser(prog="immorder", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("homology", help="twisted homology of a supported group")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--twist", default="0", choices=["0", "w"])
    p.add_argument("--coeff", default="Z", choices=["Z", "Z2"])
    p.add_argument("--degree", type=int, required=True, help=f"0 <= degree <= {MAX_DEGREE}")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("sq2w", help="twisted square on degree-2 classes")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--w1", default="0")
    p.add_argument("--w2", default="0")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=_cmd_sq2w)

    p = sub.add_parser("realizable", help="realizable fundamental classes")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--w1", type=int, default=0, choices=[0, 1])
    p.add_argument("--w2", default="0")
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("leq", help="decide immersion partial order between two types")
    p.add_argument("a", help="JSON file for the source type, or - for stdin")
    p.add_argument("b", help="JSON file for the target type, or - for stdin")
    p.set_defaults(func=_cmd_leq)

    p = sub.add_parser("order-graph", help="Hasse diagram of a family of types")
    p.add_argument("--family", default="cyclic")
    p.add_argument("--max-exp", type=int, required=True, help=f"orders up to 2^max-exp <= {MAX_CYCLIC_ORDER}; max-exp >= 1")
    p.add_argument("--combined", action="store_true")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.set_defaults(func=_cmd_order_graph)

    p = sub.add_parser("model-cohomology", help="degree-2 cohomology of the chain model")
    p.add_argument("--k", type=int, required=True, help=f"the group is Z/2^k; 2^k <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--coeff", required=True, choices=["Z", "Z2", "ZZ2w"])
    p.set_defaults(func=_cmd_model_cohomology)

    p = sub.add_parser("shift", help="composite connecting homomorphism on H_4")
    p.add_argument("--group", required=True, help=f"Z/n with n <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--w", default="w", choices=["0", "w"])
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("fibered", help="unique-extrema fibering criterion")
    p.add_argument("--relator", required=True, type=_word_text, help=_WORD_HELP)
    p.add_argument("--phi", required=True, help="a=INT,b=INT")
    p.set_defaults(func=_cmd_fibered)

    p = sub.add_parser("abelianization", help="abelianization of a presentation")
    p.add_argument("--presentation", required=True, type=_word_text, help=_WORD_HELP)
    p.set_defaults(func=_cmd_abelianization)

    p = sub.add_parser("integral-lift", help="integral lift of a mod-2 character")
    p.add_argument("--presentation", required=True, type=_word_text, help=_WORD_HELP)
    p.add_argument("--w1", required=True, help="a=BIT,b=BIT")
    p.set_defaults(func=_cmd_integral_lift)

    p = sub.add_parser("chain-verify", help="projection diagram between chain models")
    p.add_argument("--source", type=int, required=True, help=f"k of the source group Z/2k; k >= 1 and 2k <= {MAX_CYCLIC_ORDER}")
    p.add_argument("--target", type=int, required=True, help="k of the target group Z/2k; k >= 1 and the source is an odd multiple of k")
    p.set_defaults(func=_cmd_chain_verify)

    return parser


def reference_parse(argv) -> tuple:
    """What the argparse parser made of argv: ("help",), ("error", text) or
    ("ok", handler, values), where values maps each option's dest to its
    value."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        return ("help",)
    except _Refused as e:
        return ("error", str(e))
    if not hasattr(args, "func"):
        return ("error", "a subcommand is required")
    values = vars(args)
    handler = values.pop("func")
    del values["command"]
    return ("ok", handler, values)


# ---------------------------------------------------------------------------
# the records as frozen dataclasses

# each record's fields in order; those after "|" are left out of eq, hash
# and repr, as `field(compare=False, repr=False)` left them
RECORD_FIELDS = {
    "IntMatrix": "rows cols entries",
    "SmithForm": "d U V uinv vinv rows cols",
    "Factorization": "a snf",
    "FgAbelianGroup": "free_rank torsion",
    "Subquotient": "sub_basis group _dfull _u _uinv | _basis",
    "IntComplex": "dims down modulus",
    "GroupRingElement": "n coeffs",
    "CoefficientModule": "name n rank action modulus",
    "GroupRingComplex": "n boundaries",
    "CyclicMod2Class": "n degree value",
    "Z4Mod2Class": "degree bits",
    "CyclicHom": "l1 l2 m",
    "FreeWord": "text",
    "Presentation": "relators",
    "ZMap": "a b",
    "BrownVerdict": "fibered values min_index min_value max_index max_value reason",
    "Epimorphisms": "maps multiple_exist",
    "Subgroup": "modulus generator",
    "D2Map": "domain codomain matrix kernel cokernel",
    "RealizableSet": "ambient determined subgroup",
    "ImmersionType": "group n w1 w2 c | key",
    "LeqVerdict": "answer trace reason",
    "OrderGraph": "nodes edges",
    "ProjectionDiagram": "source_k target_k index exists witness candidate",
    "ShiftData": "n w norm_w",
    "ShiftResult": "n w input_multiple groups classes cycles",
}


def _frozen_dataclass(name: str, spec: str):
    shown, _, hidden = spec.partition("|")
    fields = [(f, object) for f in shown.split()]
    fields += [(f, object, dataclasses.field(compare=False, repr=False)) for f in hidden.split()]
    return dataclasses.make_dataclass(name, fields, frozen=True)


DATACLASS_TWINS = {name: _frozen_dataclass(name, spec) for name, spec in RECORD_FIELDS.items()}


def dataclass_twin(record):
    """The frozen dataclass of the record's class name holding the record's
    field values: what equality, hash, repr and assignment did before the
    records became slotted classes."""
    twin = DATACLASS_TWINS[type(record).__name__]
    return twin(*(getattr(record, f.name) for f in dataclasses.fields(twin)))

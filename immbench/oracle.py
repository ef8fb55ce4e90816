"""Reference answers for the benchmark, computed without the package.

Nothing here imports `immorder`.  Group-theoretic answers come from
classical closed forms (the periodic resolution of a cyclic group collapses
to multiplication by 0, 2 or n once coefficients are fixed), the immersion
order from the paper's rules restated on canonical types, orientable cyclic
pairs from an enumeration of homomorphisms, and integer matrices from
fraction-free (Bareiss) elimination, gcds of entries and of 2x2 minors, and
plain products.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

# ---------------------------------------------------------------------------
# finitely generated abelian groups as the package prints them


def group_str(free_rank: int, torsion=()) -> str:
    """`Z^r + Z/d1 + ...` with the package's spelling ("0" when trivial)."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def cyclic_str(order: int) -> str:
    """The cyclic group of the given order (0 means infinite cyclic)."""
    if order == 0:
        return "Z"
    return "0" if order == 1 else f"Z/{order}"


def two_adic(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


# ---------------------------------------------------------------------------
# homology of cyclic groups and of the rank-4 free-abelian group


def h_cyclic(n: int, w: int, k: int) -> str:
    """H_k(Z/n; Z^w).

    After tensoring the periodic resolution with Z (trivial action) the
    odd boundaries 1 - a become 0 and the even ones N become n; with the
    sign twist (n even) 1 - a becomes 2 and N becomes 0.
    """
    if w:
        if n % 2:
            raise ValueError("the sign twist needs an even order")
        return "Z/2" if k % 2 == 0 else "0"
    if k == 0:
        return "Z"
    return cyclic_str(n) if k % 2 else "0"


def h_cyclic_mod2(n: int, k: int) -> str:
    """H_k(Z/n; Z/2): every degree for even n, degree 0 only for odd n."""
    return "Z/2" if (n % 2 == 0 or k == 0) else "0"


def h_z4(k: int, coeff: str) -> str:
    """H_k of the rank-4 free-abelian group: exterior powers."""
    rank = comb(4, k)
    return group_str(rank) if coeff == "Z" else group_str(0, (2,) * rank)


def homology(group: str, n: int | None, twist: int, coeff: str, k: int) -> str:
    if group == "Z4":
        return h_z4(k, coeff)
    if coeff == "Z2":
        return h_cyclic_mod2(n, k)
    return h_cyclic(n, twist, k)


# ---------------------------------------------------------------------------
# realizable fundamental classes


FAMILIES = ("trivial", "cyclic", "Z", "Z4")
W2_RANK = {"0": 0, "1": 1, "inf": 2, "e12": 3, "e12+e34": 4}


class InvalidType(ValueError):
    """Invariants that name no stable class."""


def ambient_modulus(group: str, n: int | None, w1: int) -> int:
    """H_4(pi; Z^w1) as Z/modulus (0: Z, 1: the zero group)."""
    if group == "Z4":
        return 0
    if group == "cyclic" and w1 == 1:
        return 2
    return 1


def realizable(group: str, n: int | None, w1: int, w2: str) -> dict:
    """The realized (or, when undetermined, realizable) classes.

    Not almost spin: everything.  Non-orientable cyclic: only 0 for w2 = 0,
    everything for w2 = 1.  Rank-4 free abelian: all of Z for w2 = 0 and
    the even classes for w2 = e12 (upper bounds: the (3,1) differential is
    not onto), the even classes for w2 = e12 + e34 (determined).  Every
    other family has a zero ambient group.
    """
    modulus = ambient_modulus(group, n, w1)
    determined = True
    if w2 == "inf":
        generator = 0 if modulus == 1 else 1
    elif group == "cyclic" and w1 == 1:
        generator = 1 if w2 == "1" else 0
    elif group == "Z4":
        generator = 1 if w2 == "0" else 2
        determined = w2 == "e12+e34"
    else:
        generator = 0
    if modulus == 0:
        subgroup = {0: "0", 1: "Z"}.get(generator, f"{generator}Z")
    elif generator == 0 or modulus == 1:
        subgroup = "0"
    else:
        g = gcd(generator, modulus)
        subgroup = "all" if g == 1 else f"{g}*(Z/{modulus})"
    return {
        "ambient": cyclic_str(modulus),
        "kind": "Determined" if determined else "UpperBound",
        "subgroup": subgroup,
        "generator": generator,
        "modulus": modulus,
    }


def _realized(group, n, w1, w2, c) -> bool:
    r = realizable(group, n, w1, w2)
    g, m = r["generator"], r["modulus"]
    if m == 0:
        return c == 0 if g == 0 else c % g == 0
    return c % gcd(g, m) == 0


def check_invariants(group: str, n, w1: int, w2: str) -> None:
    """Raise InvalidType unless (group, n, w1, w2) is a supported family."""
    if group not in FAMILIES:
        raise InvalidType(f"unknown group {group!r}")
    if w1 not in (0, 1) or w2 not in W2_RANK:
        raise InvalidType("bad w1 or w2")
    if group == "cyclic":
        if n is None or n < 2:
            raise InvalidType("cyclic order must be >= 2")
        if n % 2 and (w1 == 1 or w2 == "1"):
            raise InvalidType("odd cyclic orders carry no w1 and no degree-2 class")
        if w2 in ("e12", "e12+e34"):
            raise InvalidType("exterior symbols belong to the rank-4 family")
        return
    if n is not None:
        raise InvalidType("only cyclic groups take an order")
    if group == "trivial" and (w1 or w2 == "1"):
        raise InvalidType("the trivial group has no w1 and no degree-2 class")
    if group == "Z" and w2 not in ("0", "inf"):
        raise InvalidType("the infinite cyclic group has no degree-2 class")
    if group == "Z4" and (w1 or w2 == "1"):
        raise InvalidType("rank-4 types are orientable with exterior w2")


# ---------------------------------------------------------------------------
# canonical types and the immersion order


def make_type(group: str, n=None, w1: int = 0, w2: str = "0", c: int = 0) -> tuple:
    """Validated (group, n, w1, w2, c) with c folded into its sign orbit."""
    check_invariants(group, n, w1, w2)
    c = abs(c)
    modulus = ambient_modulus(group, n, w1)
    if modulus:
        c %= modulus
    if not _realized(group, n, w1, w2, c):
        raise InvalidType("class multiple is not realizable")
    return (group, n, w1, w2, c)


S4 = ("trivial", None, 0, "0", 0)
CP2 = ("trivial", None, 0, "inf", 0)
S1XTS3 = ("Z", None, 1, "0", 0)


def canonical(t: tuple) -> tuple:
    """Odd torsion is invisible; spin -> S4; orientable, not almost spin -> CP2."""
    group, n, w1, w2, c = t
    if group == "cyclic":
        n = 2 ** two_adic(n)
        if n == 1:
            group, n = "trivial", None
    if w1 == 0 and w2 == "0":
        return S4
    if w1 == 0 and w2 == "inf":
        return CP2
    return make_type(group, n, w1, w2, c)


def hom_enumeration_leq(l1: int, l2: int) -> bool:
    """M(l1) <= M(l2) for orientable almost-spin cyclic classes: some
    homomorphism a -> a^m of Z/l1 into Z/l2 pulls the degree-2 generator
    back to an odd multiple (the multiplier is m*l1/l2)."""
    return any((m * l1) % l2 == 0 and (m * l1 // l2) % 2 for m in range(l2))


def _nonorientable_cyclic(ka, w2a, ca, kb, w2b, cb) -> bool:
    """The five target shapes for non-orientable cyclic classes."""
    if w2b == "0":
        return w2a == "0" and ka >= kb
    if w2b == "1":
        if w2a == "0" and ka > kb:
            return True
        return cb == 1 and w2a == "1" and ka == kb or (ka, w2a, ca) == (kb, w2b, cb)
    # w2b == "inf"
    if cb == 0:
        return ca == 0 and ka >= kb
    return ka == kb or (ka > kb and ca == 0)


def leq(a: tuple, b: tuple):
    """True/False from the paper's rules, None where they do not decide."""
    a, b = canonical(a), canonical(b)
    if a == b or a == S4:
        return True
    if b == S4:
        return False
    if b == CP2:
        return a[2] == 0
    if a == CP2:
        return b[3] == "inf"
    if a == S1XTS3:
        return b[2] == 1
    if b == S1XTS3:
        # w1 lifts integrally only when trivial or over the infinite cyclic group
        return a[3] == "0" and (a[2] == 0 or a[0] == "Z")
    if a[2] == 1 and b[2] == 0:
        return False
    if a[0] == b[0] == "cyclic":
        ka, kb = two_adic(a[1]), two_adic(b[1])
        if a[2] == b[2] == 0:
            return hom_enumeration_leq(a[1], b[1])
        if a[2] == b[2] == 1:
            return _nonorientable_cyclic(ka, a[3], a[4], kb, b[3], b[4])
        return b[3] == "inf" or (b[3] == "1" and kb > ka)
    if a[0] == b[0] == "Z4":
        if a[3] == "e12":
            return True  # b is e12 or e12+e34 here
        if b[3] != "e12+e34":
            return False
        return a[4] == 0 if b[4] == 0 else a[4] % b[4] == 0
    return None


# ---------------------------------------------------------------------------
# order diagrams


def cyclic_family(max_exp: int, combined: bool) -> list[tuple]:
    types = [S4, CP2] + [make_type("cyclic", 2**m, 0, "1") for m in range(1, max_exp + 1)]
    if combined:
        for m in range(1, max_exp + 1):
            n = 2**m
            types.append(make_type("cyclic", n, 1, "0"))
            for w2 in ("1", "inf"):
                types += [make_type("cyclic", n, 1, w2, c) for c in (0, 1)]
    return types


def _sort_key(t):
    return (FAMILIES.index(t[0]), t[1] or 0, t[2], W2_RANK[t[3]], t[4])


def node_name(t: tuple) -> str:
    if t == S4:
        return "S4"
    if t == CP2:
        return "CP2"
    if t == S1XTS3:
        return "S1xtS3"
    if t[0] == "cyclic":
        k = two_adic(t[1])
        return f"M_{k}" if t[2] == 0 else f"N_{k}_{t[3]}_{t[4]}"
    raise ValueError("no node name outside the cyclic families")


def node_label(t: tuple) -> str:
    if t[0] == "cyclic":
        return f"M({t[1]})" if t[2] == 0 else f"N({t[1]},{t[3]},{t[4]})"
    return node_name(t)


def cover_graph(types: list[tuple]) -> tuple[set, set]:
    """(nodes as (name, label), edges as (lower, upper)) of the Hasse diagram
    of the order on the classes of `types` modulo mutual immersion."""
    canon = sorted({canonical(t) for t in types}, key=_sort_key)
    rel = {(a, b): leq(a, b) for a in canon for b in canon}
    reps = []
    for t in canon:
        if not any(rel[(t, r)] and rel[(r, t)] for r in reps):
            reps.append(t)
    less = {(a, b) for a in reps for b in reps if a != b and rel[(a, b)]}
    edges = {
        (node_name(a), node_name(b))
        for a, b in less
        if not any((a, c) in less and (c, b) in less for c in reps)
    }
    return {(node_name(t), node_label(t)) for t in reps}, edges


# The combined diagram for the groups 1, Z/2, Z/4, as drawn in the paper.
COMBINED_MAX_EXP_2_EDGES = frozenset(
    {
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
)


# ---------------------------------------------------------------------------
# mod-2 classes, model complexes, the shift homomorphism


def sq2w_values(group: str, n: int | None, w2: str) -> list[dict]:
    """Sq^2_w on the degree-2 generators.

    Cyclic, even order: the generator x is t^2 (2-part exactly 2) or s,
    Sq^1 x = 0 and Sq^2 x = x^2, so Sq^2_w x = x^2 (1 + [w2 = s]); odd
    orders have no positive-degree classes.  Rank 4: squares of exterior
    monomials vanish, so Sq^2_w x = x w2.
    """
    if group == "cyclic":
        if n % 2:
            return [{"x": "0", "value": "0"}]
        square = "t^4" if two_adic(n) == 1 else "s^2"
        x = "t^2" if two_adic(n) == 1 else "s"
        return [{"x": x, "value": "0" if w2 == "s" else square}]
    w2_monos = {"0": [], "e12": [(1, 2)], "e12+e34": [(1, 2), (3, 4)]}[w2]
    out = []
    for mono in itertools.combinations((1, 2, 3, 4), 2):
        hits = sum(1 for m in w2_monos if not set(m) & set(mono)) % 2
        out.append({"x": "".join(f"e{i}" for i in mono), "value": "e1e2e3e4" if hits else "0"})
    return out


def model_cohomology(k: int, coeff: str) -> str:
    """H^2 of the model complex for Z/2^k: Z/2^k with Z, Z/2 with Z/2, and
    Z/2^(k-1) with the order-2 quotient module ZZ2w."""
    if coeff == "Z":
        return cyclic_str(2**k)
    if coeff == "Z2":
        return "Z/2"
    return cyclic_str(2 ** (k - 1))


def shift_answer(n: int, w: int, c: int) -> tuple[list[str], list[list[int]]]:
    """Every stage of the shift is a copy of H_4(Z/n; Z^w) (dimension
    shifting through the three short exact sequences) and the class c
    times the generator is carried along, so each stage holds c mod 2 when
    w is the sign twist and the zero group otherwise."""
    if w:
        return ["Z/2"] * 4, [[c % 2]] * 4
    return ["0"] * 4, [[]] * 4


def cyclic_convolution(x: list[int], y: list[int]) -> list[int]:
    """Product in Z[Z/n] of two coefficient vectors."""
    n = len(x)
    out = [0] * n
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[(i + j) % n] += a * b
    return out


def projection_identity_holds(target_k: int, index: int, witness: list[int]) -> bool:
    """The degree-2 square of the projection X(k m) -> X(k): N h = m N in
    Z[Z/2k], where N is the norm element."""
    norm = [1] * (2 * target_k)
    return cyclic_convolution(norm, witness) == [index] * (2 * target_k)


def retraction_obstructed(k: int) -> bool:
    """No module retraction of Z[Z/2k] onto ker N exists for any k >= 1:
    such a map is fixed by y = f(1) with (1 - a) y = 1 - a, so y = 1 + t N,
    and its augmentation 1 + 2 k t is odd, never the required 0."""
    return k >= 1


# ---------------------------------------------------------------------------
# two-generator presentations


LETTERS = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def exponent_sums(word: str) -> tuple[int, int]:
    return (sum(LETTERS[ch][0] for ch in word), sum(LETTERS[ch][1] for ch in word))


def abelianization(relators: list[str]) -> str:
    """Z^2 modulo the exponent columns: d1 is the gcd of the entries and
    d1 d2 the gcd of the 2x2 minors."""
    cols = [exponent_sums(free_reduce(r)) for r in relators]
    d1 = 0
    for x, y in cols:
        d1 = gcd(d1, gcd(x, y))
    minors = 0
    for (x1, y1), (x2, y2) in itertools.combinations(cols, 2):
        minors = gcd(minors, x1 * y2 - x2 * y1)
    if d1 == 0:
        return group_str(2)
    if minors == 0:
        return group_str(1, (d1,) if d1 > 1 else ())
    return group_str(0, tuple(d for d in (d1, minors // d1) if d > 1))


def is_mod2_character(relators: list[str], wa: int, wb: int) -> bool:
    return all((x * wa + y * wb) % 2 == 0 for x, y in map(exponent_sums, relators))


def integral_lift(relators: list[str], wa: int, wb: int) -> bool:
    """Enumerate the reductions mod 2 of the integer characters that kill
    every relator (they are spanned by one primitive vector when the
    exponent columns have rank one)."""
    cols = [c for c in (exponent_sums(r) for r in relators) if c != (0, 0)]
    if not cols:
        reductions = set(itertools.product((0, 1), repeat=2))
    else:
        x, y = cols[0]
        g = gcd(x, y)
        p, q = y // g, -x // g
        if any(p * cx + q * cy for cx, cy in cols):
            reductions = {(0, 0)}
        else:
            reductions = {(t * p % 2, t * q % 2) for t in (0, 1)}
    return (wa % 2, wb % 2) in reductions


def brown_fibered(relator: str, pa: int, pb: int) -> dict:
    """Prefix sums of the character along the relator; fibered when the
    minimum and the maximum are each attained once (1-based indices)."""
    sums, total = [], 0
    for ch in relator:
        x, y = LETTERS[ch]
        total += x * pa + y * pb
        sums.append(total)
    lo, hi = min(sums), max(sums)
    return {
        "fibered": sums.count(lo) == 1 and sums.count(hi) == 1,
        "min": lo,
        "min_index": sums.index(lo) + 1,
        "max": hi,
        "max_index": sums.index(hi) + 1,
    }


# ---------------------------------------------------------------------------
# integer matrices


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    if not cols:
        return [[] for _ in a]
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, determinant if square else 0) by fraction-free
    elimination: every intermediate entry is a minor of the input."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    prev, rank, sign = 1, 0, 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, n_rows):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, n_cols):
                mi[j] = (mi[j] * p - f * m[rank][j]) // prev
            mi[col] = 0
        prev = p
        rank += 1
        if rank == n_rows:
            break
    square = n_rows == n_cols
    det = sign * prev if square and rank == n_rows else 0
    return rank, det


def entry_gcd(rows: list[list[int]]) -> int:
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    return g


def minor2_gcd(rows: list[list[int]]) -> int:
    """gcd of all 2x2 minors, i.e. d1 * d2 of the invariant factors."""
    g = 0
    for r1, r2 in itertools.combinations(rows, 2):
        for (a, b), (c, d) in itertools.combinations(zip(r1, r2), 2):
            g = gcd(g, a * d - b * c)
            if g == 1:
                return 1
    return g


def maximal_minor_gcd_is_one(cols: list[list[int]]) -> bool:
    """Whether the columns span a saturated lattice: some set of maximal
    minors of the column matrix has gcd 1."""
    k = len(cols)
    if k == 0:
        return True
    rows = list(zip(*cols))
    g = 0
    for pick in itertools.combinations(range(len(rows)), k):
        g = gcd(g, bareiss([list(rows[i]) for i in pick])[1])
        if g == 1:
            return True
    return False

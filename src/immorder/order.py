"""The immersion partial order on stable equivalence classes.

A stable class is recorded as an `ImmersionType`: the fundamental group
(trivial, finite cyclic, infinite cyclic, or free abelian of rank 4), the
orientation character w1, the universal-cover second Stiefel-Whitney
datum w2 (a degree-2 class symbol, or "inf" when the cover is not almost
spin), and the multiple c of the fundamental class that the manifold
realizes.  Two 4-manifolds with punctures immerse into each other exactly
according to a small set of rules in these invariants; `leq` decides the
order where the rules reach, `order_graph` assembles whole families into
a Hasse diagram (after quotienting by mutual immersability), and
`first_principles_leq_cyclic` re-derives the orientable cyclic chain by
enumerating group homomorphisms and their degree-2 pullback multipliers
instead of using the packaged rule.

Canonical representatives: odd torsion never obstructs immersions, so
cyclic orders are replaced by their 2-parts; spin types all collapse to
the 4-sphere class; orientable types that are not almost spin collapse to
the complex-projective-plane class; and the non-orientable infinite-cyclic
type with w2 = 0 is the twisted circle-times-3-sphere class.
"""

from __future__ import annotations

import functools

from . import james
from .cohomology import two_adic_valuation
from .intalg import Record, set_field


class InvalidType(ValueError):
    """The invariants do not describe a realizable stable class."""


class UndeterminedComparison(ValueError):
    """Equivalence query hit a pair the rules do not decide."""


class UndecidablePair(ValueError):
    """Graph construction hit a pair the rules do not decide."""


class UnsupportedPair(ValueError):
    """First-principles comparison outside the orientable cyclic family."""


GROUPS = ("trivial", "cyclic", "Z", "Z4")
_W2_INDEX = {"0": 0, "1": 1, "inf": 2, "e12": 3, "e12+e34": 4}


class ImmersionType(Record, hidden=("key",)):
    """Invariants (pi_1, w1, w2, c) of a stable class.

    `group` is one of "trivial", "cyclic", "Z", "Z4"; `n` the order for
    the cyclic family (None otherwise); `w1` in {0, 1}; `w2` one of
    "0", "1", "inf" (cyclic-type groups) or "0", "e12", "e12+e34", "inf"
    (rank-4 free abelian); `c` an integer naming a class in
    H_4(pi; Z^w1).  On construction, c is folded into the ambient group
    and replaced by the non-negative representative of its sign orbit,
    and membership in the realizable set of the family is enforced.
    `key` encodes all five fields as integers: it sorts graph nodes, and
    `leq` compares it instead of calling the field-by-field `__eq__`.
    """

    __slots__ = ("group", "n", "w1", "w2", "c", "key")

    def __init__(self, group: str, n: int | None = None, w1: int = 0, w2: str = "0", c: int = 0) -> None:
        set_field(self, "group", group)
        set_field(self, "n", n)
        set_field(self, "w1", w1)
        set_field(self, "w2", w2)
        set_field(self, "c", c)
        self.__post_init__()  # a method of its own: immbench's tracer wraps it to count constructions

    def __post_init__(self) -> None:
        try:
            james._validate(self.group, self.n, self.w1, self.w2)
        except ValueError as exc:
            raise InvalidType(str(exc)) from exc
        realizable = james.realizable_classes(self.group, self.n, self.w1, self.w2)
        # the realizable subgroup lives in the ambient H_4, so shares its modulus
        c = abs(self.c)
        if realizable.subgroup.modulus:
            c %= realizable.subgroup.modulus
        if not realizable.subgroup.contains(c):
            kind = "realized" if realizable.determined else "realizable"
            raise InvalidType(
                f"class multiple {self.c} is not {kind} for this family "
                f"(allowed subgroup: {realizable.subgroup.pretty()})"
            )
        set_field(self, "c", c)
        set_field(self, "key", (GROUPS.index(self.group), self.n or 0, self.w1, _W2_INDEX[self.w2], c))

    def exponent(self) -> int:
        """v_2 of the cyclic order (canonical types: n = 2^exponent)."""
        if self.group != "cyclic":
            raise InvalidType("exponent is defined for cyclic types only")
        return two_adic_valuation(self.n)


S4 = ImmersionType("trivial", None, 0, "0", 0)
CP2 = ImmersionType("trivial", None, 0, "inf", 0)
S1XTS3 = ImmersionType("Z", None, 1, "0", 0)


def canonicalize(t: ImmersionType) -> ImmersionType:
    """Canonical representative of the immersion-equivalence class of t.

    Idempotent.  Cyclic orders are replaced by their 2-parts (odd orders
    collapse to the trivial group); spin types become the 4-sphere class;
    orientable non-almost-spin types become the projective-plane class;
    the non-orientable infinite-cyclic type with w2 = 0 is already the
    twisted-product class.  A type that is already canonical is returned
    itself, so comparing canonical types constructs nothing, and a type
    equal to S4, CP2 or S1XTS3 becomes that very object.
    """
    group, n = t.group, t.n
    if group == "cyclic":
        n &= -n  # the 2-part
        if n == 1:
            group, n = "trivial", None
    if t.w1 == 0 and t.w2 == "0":
        return S4
    if t.w1 == 0 and t.w2 == "inf":
        return CP2
    if group == "Z" and t.w2 == "0":  # w1 = 1 here, and c folds to 0
        return S1XTS3
    if group == t.group and n == t.n:
        return t
    return ImmersionType(group, n, t.w1, t.w2, t.c)


class LeqVerdict(Record):
    """Outcome of a comparison: answer True/False/None with a rule trace."""

    __slots__ = ("answer", "trace", "reason")

    def __init__(self, answer: bool | None, trace: tuple[str, ...], reason: str | None = None) -> None:
        set_field(self, "answer", answer)
        set_field(self, "trace", trace)
        set_field(self, "reason", reason)


@functools.cache  # verdicts are frozen, so one object serves each (answer, rule)
def _verdict(answer: bool, rule: str) -> LeqVerdict:
    return LeqVerdict(answer=answer, trace=(rule,))


def leq(a: ImmersionType, b: ImmersionType) -> LeqVerdict:
    """Decide whether every manifold of class a immerses into one of class b.

    Returns answer None (with a reason) on pairs the rules do not cover:
    mixed cyclic/rank-4 pairs and the non-orientable infinite-cyclic type
    with w2 = inf.
    """
    a = canonicalize(a)
    b = canonicalize(b)
    if a.key == b.key:
        return _verdict(True, "equal-after-canonicalization")
    # canonicalize returns the constants themselves, so identity decides them
    if a is S4:
        return _verdict(True, "s4-minimum")
    if b is S4:
        return _verdict(False, "into-s4-iff-spin")
    if b is CP2:
        return _verdict(a.w1 == 0, "into-cp2-iff-orientable")
    if a is CP2:
        return _verdict(b.w2 == "inf", "cp2-into-iff-not-almost-spin")
    if a is S1XTS3:
        return _verdict(b.w1 == 1, "s1xts3-into-iff-nonorientable")
    if b is S1XTS3:
        # w1 lifts to H^1(pi; Z), which is torsion-free (so 0 for finite
        # cyclic pi), exactly when it is trivial or pi = Z
        return _verdict(a.w2 == "0" and (a.w1 == 0 or a.group == "Z"), "into-s1xts3-iff-w2-zero-and-w1-lifts")
    if a.w1 == 1 and b.w1 == 0:
        return _verdict(False, "orientability-obstruction")
    if a.group == "cyclic" and b.group == "cyclic":
        # canonical cyclic orders are powers of 2, so comparing the orders
        # compares the exponents
        if a.w1 == 0 and b.w1 == 0:
            # post-canonical orientable cyclic classes have w2 = "1"
            return _verdict(a.n <= b.n, "orientable-cyclic-exponent-chain")
        if a.w1 == 1 and b.w1 == 1:
            if b.w2 == "0":
                return _verdict(a.w2 == "0" and a.n >= b.n, "nonorientable-target-w2-0")
            if b.w2 == "1" and b.c == 0:
                return _verdict(a.w2 == "0" and a.n > b.n, "nonorientable-target-w2-1-c0")
            if b.w2 == "1" and b.c == 1:
                return _verdict(
                    (a.w2 == "0" and a.n > b.n) or (a.w2 == "1" and a.n == b.n),
                    "nonorientable-target-w2-1-c1",
                )
            if b.w2 == "inf" and b.c == 0:
                return _verdict(a.c == 0 and a.n >= b.n, "nonorientable-target-w2-inf-c0")
            if b.w2 == "inf" and b.c == 1:
                return _verdict(a.n >= b.n and (a.n == b.n or a.c == 0), "nonorientable-target-w2-inf-c1")
        if a.w1 == 0 and b.w1 == 1:
            ans = (b.w2 == "1" and b.n > a.n) or b.w2 == "inf"
            return _verdict(ans, "orientable-into-nonorientable-cyclic")
    if a.group == "Z4" and b.group == "Z4":
        # post-canonical rank-4 types have w2 in {e12, e12+e34}
        if a.w2 == "e12":
            return _verdict(b.w2 != "0", "rank4-free-abelian-w2-classes")
        if a.w2 == "e12+e34":
            ans = b.w2 == "e12+e34" and _is_multiple(a.c, b.c)
            return _verdict(ans, "rank4-free-abelian-w2-classes")
    return LeqVerdict(answer=None, trace=(), reason="pair-not-covered")


def _is_multiple(x: int, y: int) -> bool:
    """Whether x = k*y for some integer k (so 0 is a multiple of every y)."""
    if y == 0:
        return x == 0
    return x % y == 0


def equivalent(a: ImmersionType, b: ImmersionType) -> bool:
    """Mutual immersability; raises when either direction is undetermined."""
    ab = leq(a, b)
    ba = leq(b, a)
    if ab.answer is None or ba.answer is None:
        raise UndeterminedComparison("equivalence undetermined for this pair")
    return ab.answer and ba.answer


def first_principles_leq_cyclic(l1: int, l2: int) -> LeqVerdict:
    """Re-derive M(l1) <= M(l2) for orientable almost-spin, non-spin cyclic
    classes by enumerating homomorphisms Z/l1 -> Z/l2 and asking for one
    whose degree-2 pullback multiplier l1*m/l2 is odd.

    Both orders must be even (the classes only exist there).
    """
    if l1 < 2 or l2 < 2 or l1 % 2 or l2 % 2:
        raise UnsupportedPair("both orders must be even and >= 2")
    ans = any((m * l1) % l2 == 0 and ((m * l1) // l2) % 2 == 1 for m in range(l2))
    return _verdict(ans, "first-principles-cyclic-hom-enumeration")


# ---------------------------------------------------------------------------
# graphs


_CONSTANT_NAMES = {S4: "S4", CP2: "CP2", S1XTS3: "S1xtS3"}  # also their labels


def node_name(t: ImmersionType) -> str:
    """Deterministic identifier-safe node name for graph output."""
    if t in _CONSTANT_NAMES:
        return _CONSTANT_NAMES[t]
    if t.group == "Z":
        return "S1xtS3_CP2"
    if t.group == "cyclic":
        if t.w1 == 0:
            return f"M_{t.exponent()}"
        tag = {"0": "0", "1": "1", "inf": "inf"}[t.w2]
        return f"N_{t.exponent()}_{tag}_{t.c}"
    tag = {"0": "0", "e12": "e12", "e12+e34": "e12e34", "inf": "inf"}[t.w2]
    return f"Z4_{tag}_{t.c}"


def node_label(t: ImmersionType) -> str:
    """Human-readable label."""
    if t in _CONSTANT_NAMES:
        return _CONSTANT_NAMES[t]
    if t.group == "Z":
        return "S1xtS3#CP2"
    if t.group == "cyclic":
        if t.w1 == 0:
            return f"M({t.n})"
        return f"N({t.n},{t.w2},{t.c})"
    return f"Z4({t.w2},{t.c})"


class OrderGraph(Record):
    """Canonical class representatives plus the transitive reduction edges."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[ImmersionType, ...], edges: tuple[tuple[str, str], ...]) -> None:
        set_field(self, "nodes", nodes)
        set_field(self, "edges", edges)


def order_graph(types) -> OrderGraph:
    """Hasse diagram of the immersion order on the given types.

    Canonicalizes, quotients by mutual immersability, checks the partial-
    order axioms on the quotient (a failure raises AssertionError), and
    keeps the cover relation, which is the transitive reduction.  Raises
    UndecidablePair if any required comparison is undetermined.

    The relation on the N sorted canonical types is held as one int
    bitset per type: bit j of up[i] is set when canon[i] <= canon[j].
    Transitivity is "up[j] is a subset of up[i] for every j in up[i]",
    and the classes, the strictly-larger sets and the covers are read off
    the same bitsets, so after the N^2 comparisons the assembly costs
    O(N^2) operations on N-bit integers.
    """
    canon = sorted({canonicalize(t) for t in types}, key=lambda t: t.key)
    up = [0] * len(canon)
    for i, a in enumerate(canon):
        for j, b in enumerate(canon):
            v = leq(a, b)
            if v.answer is None:
                raise UndecidablePair(f"cannot compare {node_label(a)} and {node_label(b)}: {v.reason}")
            if v.answer:
                up[i] |= 1 << j
    for i, a in enumerate(canon):
        if not up[i] >> i & 1:
            raise AssertionError(f"reflexivity failed at {node_label(a)}")
    for i, a in enumerate(canon):
        for j in _bits(up[i]):
            missing = up[j] & ~up[i]
            if missing:
                c = canon[(missing & -missing).bit_length() - 1]
                raise AssertionError(
                    f"transitivity failed: {node_label(a)} <= {node_label(canon[j])} <= {node_label(c)}"
                )
    # a type represents its mutual class when no earlier type is in it
    reps = [i for i in range(len(canon)) if not any(up[j] >> i & 1 for j in _bits(up[i] & ((1 << i) - 1)))]
    rep_mask = sum(1 << i for i in reps)
    above = {i: up[i] & rep_mask & ~(1 << i) for i in reps}
    for i in reps:
        for j in _bits(above[i]):
            if up[j] >> i & 1:
                raise AssertionError("antisymmetry failed on representatives")
            # the number of strictly larger elements falls along every
            # strict relation, so no chain of them can close into a cycle
            if above[j].bit_count() >= above[i].bit_count():
                raise AssertionError("strict order contains a cycle")
    # a < b is a cover when no c sits strictly between them
    edges = []
    for i in reps:
        between = 0
        for j in _bits(above[i]):
            between |= above[j]
        edges.extend((node_name(canon[i]), node_name(canon[j])) for j in _bits(above[i] & ~between))
    return OrderGraph(nodes=tuple(canon[i] for i in reps), edges=tuple(sorted(edges)))


def _bits(mask: int):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def emit_dot(graph: OrderGraph) -> str:
    """Render an order graph in DOT syntax (edges point up the order)."""
    lines = ["digraph immersion_order {", "  rankdir=BT;", "  node [shape=box];"]
    for t in graph.nodes:
        lines.append(f'  {node_name(t)} [label="{node_label(t)}"];')
    for u, v in graph.edges:
        lines.append(f'  {u} -> {v} [label="<"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cyclic_family(max_exp: int, combined: bool = False) -> list[ImmersionType]:
    """Standard families: the orientable cyclic chain, optionally combined
    with all non-orientable cyclic classes up to the same exponent."""
    if max_exp < 1:
        raise ValueError("max_exp must be >= 1")
    types = [S4, CP2]
    for m in range(1, max_exp + 1):
        types.append(ImmersionType("cyclic", 2**m, 0, "1", 0))
    if combined:
        for m in range(1, max_exp + 1):
            n = 2**m
            types.append(ImmersionType("cyclic", n, 1, "0", 0))
            for c in (0, 1):
                types.append(ImmersionType("cyclic", n, 1, "1", c))
                types.append(ImmersionType("cyclic", n, 1, "inf", c))
    return types

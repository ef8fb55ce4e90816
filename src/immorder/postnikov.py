"""Chain-level three-stage models for even cyclic groups.

The model complex X(k) over Z[Z/2k] has rank one in degrees 0..3 with
boundaries 1 - a, the norm N, and the twisted norm N_w.  It encodes the
third Postnikov stage governing almost-spin immersion targets with cyclic
fundamental group.  This module computes its cohomology with module
coefficients, decides when mod-2 degree-2 classes lift along coefficient
reductions, solves for equivariant degree-2 chain maps between models
covering a homomorphism of the groups (the single commutation identity
d2_D . h = c1 . phi#(d2_C) over the pushed-forward ring), certifies the
odd-index projection diagrams with their candidate verticals
(m^2 p, m p, p, p), decides the retraction obstruction for the augmentation
ideal, and evaluates the shift homomorphism
H_4(Z/n; Z^w) -> H_1(Z/n; (ker N)^w) by composing three explicit
snake-lemma connecting homomorphisms.  Every solve works in Z[Z/n], not
in its regular representation: each system is a product with 1 - a, N or a
twist of either, with closed-form kernels, images and preimages (Brown,
Cohomology of Groups, ch. I.6 and II.3), checked in O(n).  H_1 = H_3 on
I^w is Z N^w cut with I, modulo 2 N^w; H_4 = H_2 is `cyclic_homology`.
"""

from __future__ import annotations

import random
from operator import add

from .cohomology import CyclicHom, IllFormedHom, cyclic_homology
from .groupring import (
    COEFFICIENT_NAMES,
    GroupRingComplex,
    GroupRingElement,
    InvalidTwist,
    RingMismatch,
    coefficient_module,
    coefficients_complex,
    norm,
    twisted_norm,
)
from .intalg import FgAbelianGroup, IntMatrix, Record, f2_solvable, kernel_basis, set_field


class UnsupportedCoefficient(ValueError):
    """Coefficient system not available for this computation."""


class InvalidClass(ValueError):
    """The given cohomology-class label is not a valid class."""


# ---------------------------------------------------------------------------
# the model complex and its cohomology


def model_complex_X(k: int) -> GroupRingComplex:
    """The degrees-0..3 model complex over Z[Z/2k].

    Boundaries: d1 = 1 - a, d2 = N (the norm), d3 = N_w (the twisted
    norm); consecutive boundaries compose to zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 2 * k
    d1 = GroupRingElement.one(n) - GroupRingElement.gen(n)
    return GroupRingComplex(n, (d1, norm(n), twisted_norm(n)))


def model_cohomology(k_exp: int, coeff_name: str) -> FgAbelianGroup:
    """H^2 of the equivariant cochain complex Hom(X, A) for the group of
    order 2^k_exp.

    Coefficient names: `groupring.COEFFICIENT_NAMES` ("ZZ2w" is Z[Z/2]
    with the generator acting by the coordinate swap).
    """
    if coeff_name not in COEFFICIENT_NAMES:
        raise UnsupportedCoefficient(f"unknown coefficient system {coeff_name!r}")
    if k_exp < 1:
        raise ValueError("group-order exponent must be >= 1")
    x = model_complex_X(2 ** (k_exp - 1))
    return coefficients_complex(x, coefficient_module(coeff_name, x.n)).cohomology(2)


def lift_exists(k_exp: int, class_bit: int, along: str) -> bool:
    """Does the degree-2 mod-2 class lift along the coefficient reduction?

    `along` names the source of the reduction onto Z/2 coefficients:
    "Z" (reduction mod 2), "ZZ2w" (sum of the two coordinates mod 2), or
    "Z2" (the identity map).  `class_bit` labels the class in
    H^2(X; Z/2) = Z/2.
    """
    if class_bit not in (0, 1):
        raise InvalidClass(f"H^2 with Z/2 coefficients has classes 0 and 1, got {class_bit}")
    if along not in ("Z", "ZZ2w", "Z2"):
        raise UnsupportedCoefficient(f"no reduction to Z/2 from {along!r}")
    if class_bit == 0 or along == "Z2":
        return True
    x = model_complex_X(2 ** (k_exp - 1))
    n = x.n
    # the coboundary C^k -> C^(k+1) of Hom(X, M) is down[k] transposed
    # (see coefficients_complex)
    chain_a = coefficients_complex(x, coefficient_module(along, n))
    chain_2 = coefficients_complex(x, coefficient_module("Z2", n))
    # the label [1] must itself be a mod-2 cocycle in degree 2
    if not all(e % 2 == 0 for e in chain_2.down[2].entries):
        raise AssertionError("degree-2 mod-2 coboundary is nonzero; class labels invalid")
    cocycles = kernel_basis(chain_a.down[2].transpose())
    if along == "Z":
        reduction = IntMatrix.from_rows([[1]])
    else:
        reduction = IntMatrix.from_rows([[1, 1]])
    system = (reduction @ cocycles).hstack(chain_2.down[1].transpose())
    return f2_solvable(system, [class_bit])


# ---------------------------------------------------------------------------
# equivariant chain maps between models


def push_forward(phi: CyclicHom, x: GroupRingElement) -> GroupRingElement:
    """The ring map Z[Z/l1] -> Z[Z/l2] induced by a -> a^m."""
    if x.n != phi.l1:
        raise RingMismatch("element lives over the wrong group ring for this homomorphism")
    # a^i goes to a^(m i mod l2), which depends on i mod l2 alone: fold x
    # over its blocks of length l2, the last one padded with zeros, or past
    # 8 blocks by one C `sum` per residue, which is then cheaper
    l2, m = phi.l2, phi.m
    c = x.coeffs + (0,) * (-phi.l1 % l2)
    if len(c) > 8 * l2:
        folded = [sum(c[r::l2]) for r in range(l2)]
    else:
        folded = c[:l2]
        for k in range(l2, len(c), l2):
            folded = tuple(map(add, folded, c[k : k + l2]))
    if m == 1:
        return GroupRingElement(l2, tuple(folded))
    out = [0] * l2
    for r, y in enumerate(folded):
        out[m * r % l2] += y
    return GroupRingElement(l2, tuple(out))


def chain_map_exists(
    c_complex: GroupRingComplex,
    d_complex: GroupRingComplex,
    phi: CyclicHom,
    c1: GroupRingElement,
) -> GroupRingElement | None:
    """Solve for a degree-2 vertical h with d2_D . h = c1 . phi#(d2_C).

    c1 is the prescribed degree-1 vertical, an element of the target ring.
    The target's degree-2 boundary must be m N with m != 0, as in every
    model complex (ValueError otherwise): m N h = m eps(h) N, so the
    witness is h = (c / m) e_0 when the right side is c N with m | c, and
    None otherwise.  It is re-verified by exact group-ring multiplication.
    """
    if phi.l1 != c_complex.n or phi.l2 != d_complex.n:
        raise IllFormedHom("homomorphism does not connect the two group rings")
    if c_complex.top < 2 or d_complex.top < 2:
        raise ValueError("both complexes need degrees up to 2")
    if c1.n != d_complex.n:
        raise RingMismatch("degree-1 vertical must live over the target ring")
    d2_d = d_complex.boundary(2)
    m = d2_d.coeffs[0]
    if m == 0 or d2_d.coeffs.count(m) != d2_d.n:
        raise ValueError("the target's degree-2 boundary must be a nonzero multiple of the norm")
    rhs = c1 * push_forward(phi, c_complex.boundary(2))
    c = rhs.coeffs[0]
    if rhs.coeffs.count(c) != rhs.n or c % m:
        return None
    h = GroupRingElement.one(d_complex.n).scale(c // m)
    if d2_d * h != rhs:
        raise AssertionError("solver produced a witness that fails the commutation identity")
    return h


class ProjectionDiagram(Record):
    """Result of certifying the odd-index projection diagram X(km) -> X(k).

    The candidate degree-2 vertical is m*p (p the generator-to-generator
    map); the degree-1 and degree-0 verticals are p.  `witness` is the
    solver's degree-2 vertical, which satisfies the same identity and
    agrees with the candidate in augmentation.
    """

    __slots__ = ("source_k", "target_k", "index", "exists", "witness", "candidate")

    def __init__(
        self,
        source_k: int,
        target_k: int,
        index: int,
        exists: bool,
        witness: GroupRingElement | None,
        candidate: GroupRingElement,
    ) -> None:
        set_field(self, "source_k", source_k)
        set_field(self, "target_k", target_k)
        set_field(self, "index", index)
        set_field(self, "exists", exists)
        set_field(self, "witness", witness)
        set_field(self, "candidate", candidate)


def verify_projection_diagram(source_k: int, target_k: int) -> ProjectionDiagram:
    """Certify the projection diagram for source group Z/2km onto Z/2k.

    Requires source_k = m * target_k with m odd.  Checks that the
    degree-1 square commutes with verticals (p, p), that the candidate
    degree-2 vertical m*p satisfies the degree-2 identity exactly, and
    runs the solver, whose witness is forced to share the candidate's
    augmentation m.
    """
    if source_k < 1 or target_k < 1:
        raise ValueError("source and target must be >= 1")
    if source_k % target_k != 0:
        raise ValueError("source must be a multiple of the target")
    m = source_k // target_k
    if m % 2 == 0:
        raise ValueError("projection diagrams are certified for odd indices only")
    c = model_complex_X(source_k)
    d = model_complex_X(target_k)
    phi = CyclicHom(c.n, d.n, 1)
    p = GroupRingElement.one(d.n)
    # degree-1 square with verticals (p, p): phi#(1 - a) = 1 - a
    if push_forward(phi, c.boundary(1)) != d.boundary(1):
        raise AssertionError("degree-1 square fails for the projection")
    # candidate degree-2 vertical m*p satisfies the identity on the nose:
    # N(2k) * (m*p) = p * phi#(N(2km)) = m * N(2k)
    candidate = p.scale(m)
    lhs = d.boundary(2) * candidate
    rhs = p * push_forward(phi, c.boundary(2))
    if lhs != rhs:
        raise AssertionError("candidate degree-2 vertical fails the identity")
    witness = chain_map_exists(c, d, phi, p)
    if witness is not None and witness.augmentation() != m:
        raise AssertionError("witness augmentation disagrees with the diagram index")
    return ProjectionDiagram(
        source_k=source_k,
        target_k=target_k,
        index=m,
        exists=witness is not None,
        witness=witness,
        candidate=candidate,
    )


# ---------------------------------------------------------------------------
# the retraction obstruction


def factorization_obstruction(k: int, full_module: bool = False) -> bool:
    """Is there NO module retraction of Z[Z/2k] onto the kernel of the norm?

    A module map f: Z[Z/2k] -> ker(N) is determined by y = f(1), which
    must satisfy eps(y) = 0, and restricts to the identity on ker(N)
    exactly when (1 - a) y = 1 - a.  Returns True when no integral y
    exists (the extension does not split).  Solved in the ring: (1 - a) y
    = 1 - a exactly when y - 1 lies in ker(1 - a) = Z N, so y = 1 + t N,
    and eps(y) = 1 + t n is never 0 for n = 2k >= 2.  With `full_module`
    the target constraint eps(y) = 0 is dropped (maps to the whole ring),
    and y = 1 works.  Both ring identities behind the solution, (1 - a) 1
    = 1 - a and (1 - a) N = 0, are checked, in O(n).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 2 * k
    one = GroupRingElement.one(n)
    d1 = one - GroupRingElement.gen(n)
    if d1 * one != d1 or not (d1 * norm(n)).is_zero():
        raise AssertionError("1 - a fails to fix 1 or to annihilate the norm")
    return not full_module


# ---------------------------------------------------------------------------
# the shift homomorphism


class ShiftData(Record):
    """The twisted boundaries behind the three short exact sequences.

    Modules: R = Z[Z/n], Z (trivial), I = ker(eps) = ker(N), and the norm
    line (N) = ker(1 - a), all twisted by the character w; s = (-1)^w.
    Sequences:

      0 -> I  -> R -> Z   -> 0   (x -> eps x, the augmentation)
      0 -> (N)-> R -> I   -> 0   (x -> (1-a) x)
      0 -> I  -> R -> (N) -> 0   (x -> N x, read as eps x)

    The standard resolution has period 2, and on R^w its boundary of
    degree k >= 1 is the product with 1 - s a for odd k and with the
    element N^w = sum (s a)^i, coefficients `norm_w`, for even k; N^w x =
    eps_w(x) N^w with eps_w(x) = sum s^i x_i.  Z^w and (N)^w are both the
    trivial module twisted by w, whose homology is `cyclic_homology`; H_1
    = H_3 on I^w is read by `_ideal_class`.
    """

    __slots__ = ("n", "w", "norm_w")

    def __init__(self, n: int, w: int, norm_w: tuple[int, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "w", w)
        set_field(self, "norm_w", norm_w)


def _ideal_coordinates(block: IntMatrix, message: str) -> IntMatrix:
    """Columns of `block` in the basis [-1 ... -1; I] of the augmentation
    ideal: a column x lies in I exactly when its entries sum to 0, and then
    x[1:] are its coordinates.  Raises AssertionError(message) otherwise."""
    p = block.cols
    if any(sum(block.entries[j::p]) for j in range(p)):
        raise AssertionError(message)
    return IntMatrix(block.rows - 1, p, block.entries[p:])


def _norm_line_coordinates(block: IntMatrix, message: str) -> IntMatrix:
    """Columns of `block` in the basis [1 ... 1] of the norm line: a column
    x lies in (N) exactly when its entries are equal, and then its
    coordinate is x[0].  Raises AssertionError(message) otherwise."""
    p, e = block.cols, block.entries
    if any(e[i] != e[i % p] for i in range(p, len(e))):
        raise AssertionError(message)
    return IntMatrix(1, p, e[:p])


def shift_data(n: int, w: int) -> ShiftData:
    if n < 2:
        raise ValueError("group order must be >= 2")
    if w not in (0, 1):
        raise InvalidTwist("the orientation character is 0 or 1")
    if w == 1 and n % 2 != 0:
        raise InvalidTwist("a nontrivial character needs an even group order")
    s = -1 if w else 1
    one, gen = GroupRingElement.one(n), GroupRingElement.gen(n)
    norm_w = GroupRingElement(n, tuple(s if i % 2 else 1 for i in range(n)))
    # (1 - a) N = 0 makes the middle sequence compose, and (1 - s a) N^w = 0
    # makes the twisted boundaries a complex with N^w in the kernel
    if not ((one - gen) * norm(n)).is_zero() or not ((one - gen.scale(s)) * norm_w).is_zero():
        raise AssertionError("the boundaries fail to compose to zero")
    return ShiftData(n, w, norm_w.coeffs)


def _difference(x: list[int], s: int) -> list[int]:
    """(1 - s a) x: coefficient i is x_i - s x_(i-1), indices mod n."""
    return [u - s * v for u, v in zip(x, x[-1:] + x[:-1])]


def _through_augmentation(z: int, norm_w: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Snake-lemma connecting map across N^w, for the sequences onto Z and
    onto (N): lift z through eps by z e_0 plus a random combination of the
    basis a^j - 1 of ker eps (so tests can certify independence of the
    choice), apply N^w as x -> eps_w(x) N^w, and read the result in I,
    whose membership check certifies the preimage."""
    t = rng.choices(range(-4, 5), k=len(norm_w) - 1)
    lift = [z - sum(t), *t]
    e = sum(v * x for v, x in zip(norm_w, lift))
    boundary = IntMatrix.column([e * v for v in norm_w])
    return _ideal_coordinates(boundary, "boundary of the lift escaped the submodule").entries


def _through_difference(y: tuple[int, ...], s: int, rng: random.Random) -> tuple[int, ...]:
    """Snake-lemma connecting map across 1 - s a, for the sequence onto I:
    lift the I-coordinates y through 1 - a by partial sums plus a random
    multiple of N, checked in O(n), apply 1 - s a, and read the result in
    (N), whose membership check certifies the preimage."""
    full = [-sum(y), *y]
    lift, acc = [], rng.randint(-4, 4)
    for v in full:
        acc += v
        lift.append(acc)
    if _difference(lift, 1) != full:
        raise ValueError("representative is not hit by the projection")
    boundary = IntMatrix.column(_difference(lift, s))
    return _norm_line_coordinates(boundary, "boundary of the lift escaped the submodule").entries


def _ideal_class(y: tuple[int, ...], data: ShiftData) -> tuple[int, ...]:
    """The class in H_1 = H_3 on I^w, `_IDEAL_HOMOLOGY[w]`, of the
    I-coordinates y.  On I^w, (1 - s a) x = 0 means x_i = s x_(i-1)
    (Brown, Cohomology of Groups, ch. I.6), so the cycles are I cut with
    the line Z N^w, and the boundaries are spanned by N^w (1 - a) = 2 N^w.
    So y is a cycle exactly when x = [-sum y, *y] is t N^w, and its class
    is t mod 2 in Z N^w / 2 N^w = Z/2 when w = 1; when w = 0 the line cuts
    I in 0 (eps(N) = n), so only y = 0 is a cycle.  Raises ValueError on a
    non-cycle."""
    x = (-sum(y), *y)
    if x != tuple(x[0] * v for v in data.norm_w):
        raise ValueError("vector does not lie in the sublattice (not a cycle)")
    return (x[0] % 2,) if data.w else ()


# H_1 = H_3 on I^w, indexed by w
_IDEAL_HOMOLOGY = (FgAbelianGroup.zero(), FgAbelianGroup.cyclic(2))


class ShiftResult(Record):
    """The shifted class and everything met along the way.

    groups/classes/cycles are indexed by stage: degree 4 with Z^w
    coefficients, degree 3 with I^w, degree 2 with (N)^w, degree 1 with
    I^w.  classes hold canonical coordinates in the corresponding
    homology groups; cycles hold the chain-level representatives (which
    depend on the seed, unlike the classes).
    """

    __slots__ = ("n", "w", "input_multiple", "groups", "classes", "cycles")

    def __init__(
        self,
        n: int,
        w: int,
        input_multiple: int,
        groups: tuple[FgAbelianGroup, FgAbelianGroup, FgAbelianGroup, FgAbelianGroup],
        classes: tuple[tuple[int, ...], ...],
        cycles: tuple[tuple[int, ...], ...],
    ) -> None:
        set_field(self, "n", n)
        set_field(self, "w", w)
        set_field(self, "input_multiple", input_multiple)
        set_field(self, "groups", groups)
        set_field(self, "classes", classes)
        set_field(self, "cycles", cycles)


def shift(n: int, w: int, c: int, seed: int = 0) -> ShiftResult:
    """Evaluate the composite connecting homomorphism on c times the
    generator of H_4(Z/n; Z^w).

    The value lands in H_1(Z/n; I^w) where I is the kernel of the norm;
    the intermediate degree-3 and degree-2 classes are reported as well.
    The homology class of the output is independent of `seed`, which only
    perturbs the chain-level preimage choices.
    """
    data = shift_data(n, w)
    rng = random.Random(seed)
    # Z^w and (N)^w are one module, and the period gives H_2 = H_4 (the
    # subquotient at degree 2 of the window of `cyclic_homology`)
    h4 = h2 = cyclic_homology(n, "Zw" if w else "Z", 4)
    z4 = (0,) if h4.group.is_zero() else tuple(c * x for x in h4.generator(0))
    # the ring boundaries of degrees 4, 3 and 2 are N^w, 1 - s a and N^w
    z3 = _through_augmentation(z4[0], data.norm_w, rng)
    z2 = _through_difference(z3, -1 if w else 1, rng)
    z1 = _through_augmentation(z2[0], data.norm_w, rng)
    # likewise H_3 = H_1 on I^w, in closed form
    h1 = h3 = _IDEAL_HOMOLOGY[w]
    return ShiftResult(
        n=n,
        w=w,
        input_multiple=c,
        groups=(h4.group, h3, h2.group, h1),
        classes=(h4.class_of(z4), _ideal_class(z3, data), h2.class_of(z2), _ideal_class(z1, data)),
        cycles=(z4, z3, z2, z1),
    )

"""Tests for free-word parsing, the fibering criterion, and integral lifts.

The two-relator presentation used throughout (relators
aaaBAAAbbaaababb and aaabAAbbaaaBABAAAB) has abelianization Z + Z/4, a
unique character onto Z up to sign, and prefix sums with unique extrema
on the first relator; those published values are pinned exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from immorder import fibering
from immorder.fibering import (
    BadCharacter,
    FreeWord,
    NotACharacter,
    Presentation,
    PreconditionViolated,
    ZMap,
    abelianization,
    brown_fibered,
    epimorphisms_to_Z,
    free_reduce,
    integral_lift_exists,
    parse_word,
)
from immorder.intalg import FgAbelianGroup, IntMatrix, kernel_basis, solve_linear
from oracles import (
    code_exponents,
    code_free_reduce,
    code_inverse,
    code_is_freely_reduced,
    code_prefix_values,
    cyclically_reduce,
)

R1 = "aaaBAAAbbaaababb"
R2 = "aaabAAbbaaaBABAAAB"
M313 = f"<a,b|{R1},{R2}>"

letters_st = st.text(alphabet="aAbB", max_size=20)


def scan_cyclically_reduced(w: FreeWord) -> bool:
    """Direct-scan oracle: no adjacent cancellation and no wrap cancellation."""
    ls = w.text
    for x, y in zip(ls, ls[1:]):
        if x == y.swapcase():
            return False
    return not (len(ls) >= 2 and ls[0] == ls[-1].swapcase())


# ---------------------------------------------------------------------------
# words


def test_parse_and_reduce_examples():
    assert str(parse_word("aA")) == ""
    assert parse_word("aA").is_empty()
    assert str(cyclically_reduce(parse_word("baaB"))) == "aa"
    assert str(cyclically_reduce(parse_word(R1))) == R1
    assert scan_cyclically_reduced(parse_word(R1))
    assert parse_word(R1).exponents() == (4, 4)
    assert parse_word(R2).exponents() == (0, 0)


def test_cyclic_reduction_of_a_long_conjugate():
    # a^k b a^-k: k end pairs cancel; a reduction quadratic in k takes
    # about 35 s at this k
    k = 20_000
    assert cyclically_reduce(FreeWord("a" * k + "b" + "A" * k)) == FreeWord("b")


def test_parse_rejects_bad_characters():
    with pytest.raises(BadCharacter):
        parse_word("abc")
    with pytest.raises(BadCharacter):
        parse_word("a b")
    # the alphabet is checked before any reduction, so "cC" and "xX"
    # cannot cancel, and a word built directly is checked too
    with pytest.raises(BadCharacter):
        parse_word("acCb")
    with pytest.raises(BadCharacter):
        parse_word("ab\nBA")
    with pytest.raises(BadCharacter):
        FreeWord("ac")
    with pytest.raises(BadCharacter):
        Presentation.parse("<a,b|xX>")


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="aAbB"))
@example(text="")
@example(text="a" * 50 + "A" * 50)
@example(text="abAB" * 25 + "baBA" * 25)
@example(text="bB" * 30 + R1 + "Aa" * 30)
@example(text="aB" * 40)
def test_text_words_match_the_signed_code_reference(text):
    """Every word operation agrees with the signed-code path of
    `oracles`, on reduced and unreduced text alike."""
    w = FreeWord(text)
    assert w.is_freely_reduced() == code_is_freely_reduced(text)
    assert w.exponents() == code_exponents(text)
    assert str(w.inverse()) == code_inverse(text)
    reduced = parse_word(text)
    assert str(reduced) == code_free_reduce(text)
    # a character nonzero on both generators kills r exactly when the
    # exponent sums of r are both zero or both nonzero
    r = cyclically_reduce(reduced)
    ea, eb = r.exponents()
    phi = ZMap(eb, -ea) if ea and eb else ZMap(2, -3)
    if r.is_empty() or (ea == 0) != (eb == 0):
        with pytest.raises(PreconditionViolated):
            brown_fibered(r, phi)
    else:
        assert brown_fibered(r, phi).values == code_prefix_values(str(r), phi.a, phi.b)


@settings(max_examples=150, deadline=None)
@given(letters=letters_st)
def test_word_roundtrip_and_reduction(letters):
    w = FreeWord(free_reduce(letters))
    assert parse_word(str(w)) == w
    cyc = cyclically_reduce(w)
    assert cyclically_reduce(cyc) == cyc
    assert scan_cyclically_reduced(cyc)
    # conjugation preserves exponent sums
    assert cyc.exponents() == w.exponents()
    assert len(cyc) <= len(w)
    # inversion is an involution and negates exponents
    assert w.inverse().inverse() == w
    ea, eb = w.exponents()
    assert w.inverse().exponents() == (-ea, -eb)


# ---------------------------------------------------------------------------
# presentations and abelianization


def test_presentation_parse_and_errors():
    p = Presentation.parse(M313)
    assert len(p.relators) == 2
    assert str(p) == M313
    assert Presentation.parse("<a,b|>").relators == ()
    with pytest.raises(ValueError):
        Presentation.parse("a,b|ab")
    with pytest.raises(ValueError):
        Presentation.parse("<a,c|ab>")
    with pytest.raises(ValueError):
        Presentation.parse("<a,b|ab,,ba>")
    with pytest.raises(ValueError):
        Presentation.parse("<a,b|aA>")  # relator trivial after free reduction


def test_presentation_rejects_unreduced_and_empty_relators_built_directly():
    with pytest.raises(ValueError, match="relators must be freely reduced"):
        Presentation((FreeWord("aAb"),))
    with pytest.raises(ValueError, match="relators must be freely reduced"):
        Presentation((parse_word("ab"), FreeWord("baA")))
    with pytest.raises(ValueError, match="nonempty"):
        Presentation((FreeWord(""),))


@settings(max_examples=200, deadline=None)
@given(letters=letters_st)
def test_reducedness_checks_agree_with_reduction(letters):
    """The scans of Presentation and brown_fibered reject exactly the words
    that free or cyclic reduction would change."""
    w = FreeWord(letters)
    assert w.is_freely_reduced() == (free_reduce(w.text) == w.text)
    if not w.is_freely_reduced():
        with pytest.raises(ValueError, match="freely reduced"):
            Presentation((w,))
    if w.text and cyclically_reduce(w) != w:
        with pytest.raises(PreconditionViolated, match="cyclically reduced"):
            brown_fibered(w, ZMap(1, 1))


def test_abelianization_pinned():
    assert abelianization(Presentation.parse(M313)) == FgAbelianGroup(1, (4,))
    assert abelianization(Presentation.parse(f"<a,b|{R1}>")) == FgAbelianGroup(1, (4,))
    assert abelianization(Presentation.parse("<a,b|>")) == FgAbelianGroup.free(2)
    assert abelianization(Presentation.parse("<a,b|aa,bb>")) == FgAbelianGroup(0, (2, 2))
    assert abelianization(Presentation.parse("<a,b|abAB>")) == FgAbelianGroup.free(2)


@settings(max_examples=80, deadline=None)
@given(letters1=letters_st, letters2=letters_st, conj=letters_st, data=st.data())
def test_abelianization_invariance(letters1, letters2, conj, data):
    w1 = FreeWord(free_reduce(letters1))
    w2 = FreeWord(free_reduce(letters2))
    assume(not w1.is_empty() and not w2.is_empty())
    base = Presentation((w1, w2))
    # conjugate one relator, invert the other, swap the order
    c = FreeWord(free_reduce(conj))
    conjugated = FreeWord(free_reduce(c.text + w1.text + c.inverse().text))
    assume(not conjugated.is_empty())
    modified = Presentation((w2.inverse(), conjugated))
    assert abelianization(modified) == abelianization(base)


# ---------------------------------------------------------------------------
# the fibering criterion


def test_fibering_pinned_example():
    v = brown_fibered(parse_word(R1), ZMap(-1, 1))
    assert v.fibered is True
    assert v.min_index == 4 and v.min_value == -4
    assert v.max_index == 9 and v.max_value == 1
    assert len(v.values) == 16
    assert set(v.values) <= {-4, -3, -2, -1, 0, 1}
    assert v.values.count(v.min_value) == 1
    assert v.values.count(v.max_value) == 1
    assert v.reason is None


def test_fibering_trivial_examples():
    v = brown_fibered(parse_word("abAB"), ZMap(1, 1))
    assert v.values == (1, 2, 1, 0)
    assert v.fibered is True
    w = brown_fibered(parse_word("abab"), ZMap(-1, 1))
    assert w.values == (-1, 0, -1, 0)
    assert w.fibered is False
    assert "minimum" in w.reason and "maximum" in w.reason


def test_fibering_preconditions():
    r = parse_word("abAB")
    with pytest.raises(PreconditionViolated):
        brown_fibered(r, ZMap(0, 1))
    with pytest.raises(PreconditionViolated):
        brown_fibered(r, ZMap(1, 0))
    with pytest.raises(PreconditionViolated):
        brown_fibered(parse_word("abab"), ZMap(1, 1))  # not killed
    with pytest.raises(PreconditionViolated):
        brown_fibered(FreeWord(""), ZMap(1, 1))
    with pytest.raises(PreconditionViolated):
        brown_fibered(FreeWord("baaB"), ZMap(-1, 1))  # not cyclically reduced
    with pytest.raises(PreconditionViolated, match="cyclically reduced"):
        brown_fibered(FreeWord("abBAba"), ZMap(1, -1))  # not freely reduced
    with pytest.raises(PreconditionViolated, match="cyclically reduced"):
        brown_fibered(FreeWord("abA"), ZMap(1, -1))  # first letter inverse to last


def balanced_word(letters, phi: ZMap) -> FreeWord:
    """Append generator letters until phi vanishes, then cyclically reduce.

    Greedy: each appended letter strictly shrinks |phi(word)|, which is
    always possible because the letter values come in +- pairs and the
    running total shares their parity.
    """
    ls = list(letters)
    options = [("a", phi.a), ("A", -phi.a), ("b", phi.b), ("B", -phi.b)]
    total = sum(dict(options)[x] for x in ls)
    while total != 0:
        letter, v = min(options, key=lambda lv: abs(total + lv[1]))
        assert abs(total + v) < abs(total)
        ls.append(letter)
        total += v
    return cyclically_reduce(FreeWord(free_reduce("".join(ls))))


@settings(max_examples=120, deadline=None)
@given(letters=letters_st, pa=st.sampled_from([-2, -1, 1, 2]), pb=st.sampled_from([-2, -1, 1, 2]))
def test_fibering_invariances(letters, pa, pb):
    phi = ZMap(pa, pb)
    w = balanced_word(letters, phi)
    assume(not w.is_empty())
    assert phi.on_word(w) == 0
    v = brown_fibered(w, phi)
    # negating the character swaps the extrema
    neg = brown_fibered(w, ZMap(-pa, -pb))
    assert neg.fibered == v.fibered
    assert neg.min_value == -v.max_value and neg.max_value == -v.min_value
    # inverting the relator permutes the prefix values (phi kills the
    # relator, so the inverse's sums are the originals read backwards),
    # leaving the whole value multiset and both extrema unchanged
    inv = brown_fibered(w.inverse(), phi)
    assert inv.fibered == v.fibered
    assert sorted(inv.values) == sorted(v.values)
    assert inv.min_value == v.min_value and inv.max_value == v.max_value
    # cyclic rotation (conjugation by a prefix) never changes the verdict
    for k in range(len(w)):
        assert brown_fibered(FreeWord(w.text[k:] + w.text[:k]), phi).fibered == v.fibered


def test_fibering_rotation_invariance_pinned():
    r = parse_word(R1)
    phi = ZMap(-1, 1)
    assert all(brown_fibered(FreeWord(r.text[k:] + r.text[:k]), phi).fibered for k in range(len(r)))


# ---------------------------------------------------------------------------
# characters onto Z and integral lifts


def test_epimorphisms_pinned():
    e = epimorphisms_to_Z(Presentation.parse(M313))
    assert [(z.a, z.b) for z in e.maps] == [(-1, 1)]
    assert e.multiple_exist is False
    free = epimorphisms_to_Z(Presentation.parse("<a,b|>"))
    assert [(z.a, z.b) for z in free.maps] == [(1, 0), (0, 1)]
    assert free.multiple_exist is True
    finite = epimorphisms_to_Z(Presentation.parse("<a,b|aa,bb>"))
    assert finite.maps == () and finite.multiple_exist is False


def test_epimorphism_sign_normalization():
    assert [(z.a, z.b) for z in epimorphisms_to_Z(Presentation.parse("<a,b|ab>")).maps] == [(-1, 1)]
    assert [(z.a, z.b) for z in epimorphisms_to_Z(Presentation.parse("<a,b|aB>")).maps] == [(1, 1)]
    assert [(z.a, z.b) for z in epimorphisms_to_Z(Presentation.parse("<a,b|abb>")).maps] == [(-2, 1)]
    assert [(z.a, z.b) for z in epimorphisms_to_Z(Presentation.parse("<a,b|bb>")).maps] == [(1, 0)]


def test_epimorphisms_kill_relators():
    for text in (M313, "<a,b|ab>", "<a,b|abb>", "<a,b|bb>"):
        p = Presentation.parse(text)
        for z in epimorphisms_to_Z(p).maps:
            assert all(z.on_word(r) == 0 for r in p.relators)


def test_integral_lift_pinned():
    m = Presentation.parse(M313)
    assert integral_lift_exists(m, 0, 1) is False
    assert integral_lift_exists(m, 1, 0) is False
    assert integral_lift_exists(m, 1, 1) is True  # the character itself, mod 2
    assert integral_lift_exists(m, 0, 0) is True
    free = Presentation.parse("<a,b|>")
    for wa in (0, 1):
        for wb in (0, 1):
            assert integral_lift_exists(free, wa, wb) is True


def test_integral_lift_rejects_non_characters():
    p = Presentation.parse("<a,b|ab>")
    with pytest.raises(NotACharacter):
        integral_lift_exists(p, 1, 0)
    with pytest.raises(NotACharacter):
        integral_lift_exists(p, 0, 1)
    # exponent sums (4,4) and (0,0) kill every assignment mod 2, so the
    # two-relator presentation never raises
    assert integral_lift_exists(p, 1, 1) is True


@settings(max_examples=60, deadline=None)
@given(letters1=letters_st, letters2=letters_st)
def test_zero_character_always_lifts(letters1, letters2):
    w1 = FreeWord(free_reduce(letters1))
    w2 = FreeWord(free_reduce(letters2))
    assume(not w1.is_empty() and not w2.is_empty())
    p = Presentation((w1, w2))
    assert integral_lift_exists(p, 0, 0) is True


# ---------------------------------------------------------------------------
# one exponent matrix for every question


def exponent_sums(letters) -> tuple[int, int]:
    """Exponent sums by a direct letter count."""
    weight = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}
    return tuple(sum(weight[x][k] for x in letters) for k in (0, 1))


def same_lattice(x: IntMatrix, y: IntMatrix) -> bool:
    """Are x and y bases (as columns) of one sublattice of Z^2?"""

    def inside(p, q):
        return all(solve_linear(q, p.col_list(j)) is not None for j in range(p.cols))

    return x.cols == y.cols and inside(x, y) and inside(y, x)


relators_st = st.lists(letters_st.map(free_reduce).filter(bool).map(FreeWord), max_size=6)


@settings(max_examples=200, deadline=None)
@given(relators=relators_st)
# ranks 0 (no relators, zero-sum relators only), 1 and 2
@example(relators=[])
@example(relators=[parse_word("abAB")])
@example(relators=[parse_word("abAB"), parse_word("aabAAB")])
@example(relators=[parse_word(R1)])
@example(relators=[parse_word("aab"), parse_word("aaabb")])
@example(relators=[parse_word(R1), parse_word(R2)])
@example(relators=[parse_word("aa"), parse_word("bb")])
def test_character_lattice_is_the_kernel_of_the_full_transpose(relators):
    """The rows of U past the rank span the kernel of the r x 2 matrix of
    every relator's exponent sums, zero and repeated columns included."""
    p = Presentation(tuple(relators))
    full = IntMatrix(len(relators), 2, tuple(x for r in relators for x in exponent_sums(r.text)))
    lattice = fibering._character_lattice(p.exponent_matrix())
    assert lattice.rows == 2
    assert same_lattice(lattice, kernel_basis(full))


def _lift_or_raise(p: Presentation, wa: int, wb: int):
    try:
        return integral_lift_exists(p, wa, wb)
    except NotACharacter:
        return NotACharacter


@settings(max_examples=150, deadline=None)
@given(relators=relators_st.filter(bool), data=st.data())
def test_answers_ignore_repeats_order_and_zero_sum_relators(relators, data):
    """abelianization, epimorphisms_to_Z and integral_lift_exists depend on
    the lattice of exponent sums alone."""
    base = Presentation(tuple(relators))
    extra = data.draw(st.lists(st.sampled_from(relators), max_size=4))
    u, v = (FreeWord(free_reduce(data.draw(letters_st))) for _ in range(2))
    commutator = free_reduce(u.text + v.text + u.inverse().text + v.inverse().text)
    zero_sum = [parse_word("abAB")] + ([FreeWord(commutator)] if commutator else [])
    shuffled = data.draw(st.permutations(relators + extra + zero_sum))
    other = Presentation(tuple(shuffled))
    assert abelianization(other) == abelianization(base)
    assert epimorphisms_to_Z(other) == epimorphisms_to_Z(base)
    for wa in (0, 1):
        for wb in (0, 1):
            assert _lift_or_raise(other, wa, wb) == _lift_or_raise(base, wa, wb)


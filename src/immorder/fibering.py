"""Free-word algorithms for two-generator presentations.

Words over the free group on a, b are written in ASCII with uppercase
letters denoting inverses ("aBA" = a b^-1 a^-1, no separators), and a
word is stored as that text from parse to echo: inversion is reversal
plus swapcase, exponent sums are letter counts, and free reduction
cancels a letter against its swapcase (Lyndon and Schupp, Combinatorial
Group Theory, 1977, ch. I.1).  The module parses and reduces such words,
abelianizes two-generator presentations, decides Brown's fibering
criterion for a character on a one-relator kernel (unique minimum and
maximum of the prefix sums), lists the primitive characters onto the
integers, and decides whether a mod-2 character admits an integral lift.

Every presentation question reads one 2-row exponent matrix E, whose
columns are the relators' distinct nonzero exponent sums: the
abelianization is its cokernel, and the characters onto Z are the rows of
U past the rank in one Smith form U E V = D that tracks U alone (Lyndon
and Schupp, Combinatorial Group Theory, 1977, ch. II).
"""

from __future__ import annotations

import re
from itertools import accumulate

from .intalg import FgAbelianGroup, IntMatrix, Record, cokernel, f2_solvable, set_field, smith_normal_form

_BAD_CHARACTER = re.compile("[^abAB]")
_INVERSE_PAIR = re.compile("aA|Aa|bB|Bb")


class BadCharacter(ValueError):
    """Word text contains a character outside {a, b, A, B}."""


class PreconditionViolated(ValueError):
    """Input to the fibering criterion fails one of its stated hypotheses."""


class NotACharacter(ValueError):
    """The mod-2 assignment does not vanish on all relators."""


class FreeWord(Record):
    """A word in the free group on a and b, stored as its text over a, A,
    b, B (not necessarily freely reduced; `parse_word` reduces).  The
    alphabet is checked on construction, so no other character can reach
    a reduction."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        bad = _BAD_CHARACTER.search(text)
        if bad:
            raise BadCharacter(f"invalid word character {bad.group()!r}")
        set_field(self, "text", text)

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    def is_empty(self) -> bool:
        return not self.text

    def inverse(self) -> "FreeWord":
        return FreeWord(self.text[::-1].swapcase())

    def exponents(self) -> tuple[int, int]:
        """Exponent sums (on a, on b)."""
        count = self.text.count
        return count("a") - count("A"), count("b") - count("B")

    def is_freely_reduced(self) -> bool:
        """No letter stands next to its inverse."""
        return _INVERSE_PAIR.search(self.text) is None


def free_reduce(text: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[str] = []
    for ch in text:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def parse_word(s: str) -> FreeWord:
    """Parse ASCII text into a freely reduced word; the stack reduction
    runs only when the text holds an adjacent inverse pair."""
    w = FreeWord(s)
    return w if w.is_freely_reduced() else FreeWord(free_reduce(s))


class Presentation(Record):
    """A presentation with the two fixed generators a and b."""

    __slots__ = ("relators",)

    def __init__(self, relators: tuple[FreeWord, ...]) -> None:
        texts = [r.text for r in relators]
        # a comma cannot pair with a letter, so one search covers every relator
        if _INVERSE_PAIR.search(",".join(texts)):
            raise ValueError("relators must be freely reduced")
        if "" in texts:
            raise ValueError("relators must be nonempty after free reduction")
        set_field(self, "relators", relators)

    @staticmethod
    def parse(text: str) -> "Presentation":
        """Parse `<a,b|word1,word2>`; the relator list may be empty.  One
        search of the whole relator text for an inverse pair decides whether
        any relator needs `parse_word`'s reduction."""
        t = text.strip()
        if not (t.startswith("<") and t.endswith(">")):
            raise ValueError("presentation must be delimited by angle brackets")
        body = t[1:-1]
        if "|" not in body:
            raise ValueError("presentation needs a generator|relator separator")
        gens, _, rel_text = body.partition("|")
        if gens.replace(" ", "") != "a,b":
            raise ValueError("the generators must be exactly a,b")
        rel_text = rel_text.strip()
        relators = []
        if rel_text:
            word = parse_word if _INVERSE_PAIR.search(rel_text) else FreeWord
            for piece in rel_text.split(","):
                piece = piece.strip()
                if not piece:
                    raise ValueError("empty relator entry")
                relators.append(word(piece))
        return Presentation(tuple(relators))

    def __str__(self) -> str:
        return "<a,b|" + ",".join(str(r) for r in self.relators) + ">"

    def exponent_matrix(self) -> IntMatrix:
        """2-row matrix whose columns are the relators' distinct nonzero
        exponent sums, sorted: they span the lattice of all r columns."""
        cols = sorted({r.exponents() for r in self.relators} - {(0, 0)})
        return IntMatrix.from_rows([[c[0] for c in cols], [c[1] for c in cols]])


class ZMap(Record):
    """A character on the free group, determined by its values on a, b."""

    __slots__ = ("a", "b")

    def on_word(self, w: FreeWord) -> int:
        ea, eb = w.exponents()
        return ea * self.a + eb * self.b


def abelianization(p: Presentation) -> FgAbelianGroup:
    """The quotient of Z^2 by the relators' exponent columns, in canonical
    form (free rank plus a divisibility chain of torsion coefficients)."""
    return cokernel(p.exponent_matrix())


class BrownVerdict(Record, defaults={"reason": None}):
    """Outcome of the fibering criterion on one relator.

    fibered is True exactly when the prefix sums attain their minimum
    once and their maximum once; indices are 1-based positions of the
    first attainment.  reason explains a False verdict.
    """

    __slots__ = ("fibered", "values", "min_index", "min_value", "max_index", "max_value", "reason")


def brown_fibered(relator: FreeWord, phi: ZMap) -> BrownVerdict:
    """Unique-extrema test on the prefix sums phi(R_1) ... phi(R_n).

    Requires a nontrivial cyclically reduced relator killed by phi, with
    phi nonzero on both generators.  The prefix index is 1-based and no
    implicit zero value is prepended.
    """
    if relator.is_empty():
        raise PreconditionViolated("the relator must be nontrivial")
    text = relator.text
    if not relator.is_freely_reduced() or text[0] == text[-1].swapcase():
        raise PreconditionViolated("the relator must be cyclically reduced")
    if phi.a == 0 or phi.b == 0:
        raise PreconditionViolated("the character must be nonzero on both generators")
    if phi.on_word(relator) != 0:
        raise PreconditionViolated("the character must kill the relator")
    weights = {"a": phi.a, "A": -phi.a, "b": phi.b, "B": -phi.b}
    values = list(accumulate(map(weights.__getitem__, text)))
    lo, hi = min(values), max(values)
    reasons = [f"{name} attained more than once" for name, v in (("minimum", lo), ("maximum", hi)) if values.count(v) != 1]
    return BrownVerdict(
        fibered=not reasons,
        values=tuple(values),
        min_index=values.index(lo) + 1,
        min_value=lo,
        max_index=values.index(hi) + 1,
        max_value=hi,
        reason="; ".join(reasons) if reasons else None,
    )


class Epimorphisms(Record):
    """Primitive characters onto Z up to sign.

    With first Betti number one the list holds the unique character; with
    Betti number two it holds the two coordinate projections as a basis
    and multiple_exist is set; an empty list means none exist.
    """

    __slots__ = ("maps", "multiple_exist")


def _character_lattice(e: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the characters u with u E = 0 for the exponent
    matrix E: the rows of U past the rank, a basis since U is unimodular."""
    s = smith_normal_form(e, track=("U",))
    return IntMatrix(2 - s.rank, 2, s.U.entries[2 * s.rank :]).transpose()


def _normalized_sign(v: tuple[int, int]) -> tuple[int, int]:
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return v
    return (-v[0], -v[1])


def epimorphisms_to_Z(p: Presentation) -> Epimorphisms:
    """All primitive characters of the presented group onto Z, up to sign."""
    lattice = _character_lattice(p.exponent_matrix())
    if lattice.cols == 0:
        return Epimorphisms((), False)
    if lattice.cols == 1:
        va, vb = _normalized_sign((lattice.at(0, 0), lattice.at(1, 0)))
        return Epimorphisms((ZMap(va, vb),), False)
    return Epimorphisms((ZMap(1, 0), ZMap(0, 1)), True)


def integral_lift_exists(p: Presentation, w1a: int, w1b: int) -> bool:
    """Is the mod-2 character (w1a, w1b) the reduction of an integral one?

    The assignment must vanish mod 2 on every relator (NotACharacter
    otherwise).  Decided by asking whether (w1a, w1b) lies in the mod-2
    span of the character lattice.
    """
    w = (w1a % 2, w1b % 2)
    e = p.exponent_matrix()
    if any((ea * w[0] + eb * w[1]) % 2 for ea, eb in zip(*e.to_rows())):
        raise NotACharacter("the assignment does not vanish on all relators mod 2")
    return f2_solvable(_character_lattice(e), list(w))

"""Words in a closed orientable surface group of genus g >= 2.

The presentation has 2g generators a_1, b_1, ..., a_g, b_g and the single
relator [a_1, b_1] [a_2, b_2] ... [a_g, b_g] of length 4g.  Letters are
encoded as nonzero integers: a_j is 2j - 1, b_j is 2j, and a negative
value is the inverse of the corresponding generator.

Word enumeration is shortlex with generator order
a_1 < b_1 < ... < a_g < b_g < a_1^-1 < b_1^-1 < ... < b_g^-1.

Text form: "a1 B1 a2" with capitalized names denoting inverses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from . import _wordarrays as wa


class WordError(ValueError):
    """Raised for malformed letters or text forms."""


def free_reduce_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True, order=False)
class Word:
    """A word in the free group on the generators; not reduced by default."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(int(x) for x in self.letters)
        if any(x == 0 for x in letters):
            raise WordError("letters must be nonzero integers")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(free_reduce_letters(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(free_reduce_letters(self.letters * n))

    def __repr__(self) -> str:
        return "Word(%r)" % (self.letters,)


@dataclass(frozen=True)
class GroupPresentation:
    """Genus-g surface group presentation with the product-of-commutators relator."""

    genus: int = 2

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise WordError("genus must be at least 2, got %r" % (self.genus,))

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    def relator(self) -> Word:
        letters: list[int] = []
        for j in range(1, self.genus + 1):
            a, b = 2 * j - 1, 2 * j
            letters += [a, b, -a, -b]
        return Word(tuple(letters))

    def letters(self) -> list[int]:
        """All 4g letters in shortlex order."""
        n = self.generator_count
        return list(range(1, n + 1)) + [-i for i in range(1, n + 1)]

    def validate(self, w: Word) -> None:
        n = self.generator_count
        if any(abs(x) > n for x in w.letters):
            raise WordError("letter out of range for genus %d: %r" % (self.genus, w))

    # -- text form ---------------------------------------------------------

    def letter_name(self, x: int) -> str:
        j = (abs(x) + 1) // 2
        name = ("a" if abs(x) % 2 == 1 else "b") + str(j)
        return name.upper() if x < 0 else name

    def to_text(self, w: Word) -> str:
        self.validate(w)
        return " ".join(self.letter_name(x) for x in w.letters)

    def from_text(self, text: str) -> Word:
        letters = []
        for tok in text.split():
            m = re.fullmatch(r"([abAB])(\d+)", tok)
            if not m:
                raise WordError("bad letter token %r" % (tok,))
            kind, j = m.group(1), int(m.group(2))
            if not (1 <= j <= self.genus):
                raise WordError("generator index out of range in %r" % (tok,))
            x = 2 * j - 1 if kind.lower() == "a" else 2 * j
            if kind.isupper():
                x = -x
            letters.append(x)
        w = Word(tuple(letters))
        self.validate(w)
        return w


def enumerate_words(pres: GroupPresentation, maxlen: int,
                    mode: str = "reduced") -> Iterator[Word]:
    """Nonempty words up to maxlen in shortlex order, from the walk of the
    freely reduced words (``_wordarrays.free_acceptor``).

    mode "reduced" yields every freely reduced word.  mode "conjugacy"
    yields one cyclically reduced word per rotation class, the
    shortlex-least rotation, including classes that the relator makes
    conjugate (``_wordarrays.conjugacy_classes`` drops those that one
    relator swap joins to an earlier class).
    """
    if mode not in ("reduced", "conjugacy"):
        raise WordError("unknown enumeration mode %r" % (mode,))
    chunks = (rows for rows, _ in wa.normal_forms(
        (), maxlen, wa.free_acceptor(pres.genus)))
    if mode == "conjugacy":
        chunks = (rows[wa.conjugacy_class_mask(rows, pres.genus)]
                  for rows in chunks)
    return (Word(wa.ranks_to_letters(row, pres.genus))
            for rows in chunks for row in rows)

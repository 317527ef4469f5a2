"""Words in the fundamental group of the closed orientable surface of genus 2.

The presentation has the generators a1, b1, a2, b2 and the single relator
[a1, b1] [a2, b2] of length 8.  Letters are encoded as nonzero integers:
a_j is 2j - 1, b_j is 2j, and a negative value is the inverse of the
corresponding generator.  The alphabet is one table in ``_wordarrays``
(``NAMES``, ``LETTERS``, ``INVERSE``), in the shortlex generator order
a1 < b1 < a2 < b2 < A1 < B1 < A2 < B2.

Text form (``word_to_text``, ``word_from_text``): "a1 B1 a2" with
capitalized names denoting inverses; a token is exactly one of the eight
names.
"""

from __future__ import annotations

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


_NAME_OF = dict(zip(wa.LETTERS, wa.NAMES))
_LETTER_OF = dict(zip(wa.NAMES, wa.LETTERS))

# the relator [a1, b1] [a2, b2]
RELATOR_WORD = Word(tuple(wa.LETTERS[r] for r in wa.RELATOR))


def _check_letters(w: Word) -> None:
    if not set(w.letters) <= _NAME_OF.keys():
        raise WordError("letter out of range: %r" % (w,))


def word_to_text(w: Word) -> str:
    _check_letters(w)
    return " ".join(_NAME_OF[x] for x in w.letters)


def word_from_text(text: str) -> Word:
    """The word of a text form whose every token is one of the names."""
    letters = []
    for tok in text.split():
        if tok not in _LETTER_OF:
            raise WordError("bad letter token %r" % (tok,))
        letters.append(_LETTER_OF[tok])
    return Word(tuple(letters))


def enumerate_words(maxlen: int, mode: str = "reduced") -> Iterator[Word]:
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
    chunks = (rows for rows, _ in wa.normal_forms((), maxlen,
                                                  wa.free_acceptor()))
    if mode == "conjugacy":
        chunks = (rows[wa.conjugacy_class_mask(rows)] for rows in chunks)
    return (Word(wa.ranks_to_letters(row)) for rows in chunks for row in rows)

"""Words in a closed orientable surface group of genus g >= 2.

The presentation has 2g generators a_1, b_1, ..., a_g, b_g and the single
relator [a_1, b_1] [a_2, b_2] ... [a_g, b_g] of length 4g.  Letters are
encoded as nonzero integers: a_j is 2j - 1, b_j is 2j, and a negative
value is the inverse of the corresponding generator.

The one-relator presentation satisfies a small-cancellation condition
strong enough for Dehn's algorithm: any word representing the identity
contains more than half of a cyclic rotation of the relator or its
inverse, so greedily replacing such subwords with the shorter complement
terminates at the empty word exactly for identity words.

Word enumeration is shortlex with generator order
a_1 < b_1 < ... < a_g < b_g < a_1^-1 < b_1^-1 < ... < b_g^-1.

Text form: "a1 B1 a2" with capitalized names denoting inverses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
        letters: tuple[int, ...] = ()
        for _ in range(n):
            letters = free_reduce_letters(letters + self.letters)
        return Word(letters)

    @property
    def is_reduced(self) -> bool:
        return free_reduce_letters(self.letters) == self.letters

    def __repr__(self) -> str:
        return "Word(%r)" % (self.letters,)


def free_reduce(w: Word) -> Word:
    return Word(free_reduce_letters(w.letters))


def cyclic_reduce(w: Word) -> Word:
    """Strip matching inverse letters from the two ends after free reduction."""
    letters = list(free_reduce_letters(w.letters))
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return Word(tuple(letters))


def rotations(w: Word) -> list[Word]:
    n = len(w.letters)
    if n == 0:
        return [w]
    return [Word(w.letters[i:] + w.letters[:i]) for i in range(n)]


def letter_sort_key(x: int) -> tuple[int, int]:
    return (0, x) if x > 0 else (1, -x)


def shortlex_key(w: Word) -> tuple:
    return (len(w.letters), tuple(letter_sort_key(x) for x in w.letters))


def shortlex_min_rotation(w: Word) -> Word:
    return min(rotations(w), key=shortlex_key)


@dataclass(frozen=True)
class GroupPresentation:
    """Genus-g surface group presentation with the product-of-commutators relator."""

    genus: int = 2
    _relator_cycles: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise WordError("genus must be at least 2, got %r" % (self.genus,))
        r = self.relator().letters
        cycles = set()
        for base in (r, Word(r).inverse().letters):
            for i in range(len(base)):
                cycles.add(base[i:] + base[:i])
        object.__setattr__(self, "_relator_cycles", tuple(sorted(cycles)))

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

    # -- Dehn reduction ----------------------------------------------------

    def dehn_reduce(self, w: Word) -> Word:
        """Greedy Dehn reduction; the result is empty iff w is the identity."""
        self.validate(w)
        half = 2 * self.genus
        full = 4 * self.genus
        letters = list(free_reduce_letters(w.letters))
        changed = True
        while changed:
            changed = False
            for match_len in range(min(full, len(letters)), half, -1):
                hit = None
                for pos in range(0, len(letters) - match_len + 1):
                    seg = tuple(letters[pos:pos + match_len])
                    for cyc in self._relator_cycles:
                        if cyc[:match_len] == seg:
                            rest = Word(cyc[match_len:]).inverse().letters
                            hit = (pos, match_len, rest)
                            break
                    if hit:
                        break
                if hit:
                    pos, match_len, rest = hit
                    letters = list(free_reduce_letters(
                        tuple(letters[:pos]) + rest + tuple(letters[pos + match_len:])
                    ))
                    changed = True
                    break
        return Word(tuple(letters))

    def is_identity(self, w: Word) -> bool:
        return len(self.dehn_reduce(w)) == 0

    def are_equal(self, u: Word, v: Word) -> bool:
        return self.is_identity(u * v.inverse())


def enumerate_words(pres: GroupPresentation, maxlen: int,
                    mode: str = "reduced") -> Iterator[Word]:
    """Nonempty words up to maxlen in shortlex order, from rank arrays.

    mode "reduced" yields every freely reduced word.  mode "conjugacy"
    yields one cyclically reduced word per rotation class, the
    shortlex-least rotation, including classes that the relator makes
    conjugate (``_wordarrays.conjugacy_classes`` merges those).
    """
    if mode not in ("reduced", "conjugacy"):
        raise WordError("unknown enumeration mode %r" % (mode,))
    levels = wa.reduced_word_levels(maxlen, pres.genus)
    if mode == "conjugacy":
        levels = [level[wa.conjugacy_class_mask(level, pres.genus)]
                  for level in levels]
    return (Word(wa.ranks_to_letters(row, pres.genus))
            for level in levels for row in level)

"""Reference enumeration of freely reduced words, and Dehn's algorithm
for the surface-group word problem, kept as independent references.

No command needs them: every enumeration in the package walks an acceptor
(``_wordarrays.normal_forms``), and the class table merges classes by
exact relator swaps (``_wordarrays.conjugacy_classes``).  The walk, class
table, enumeration and sample tests use ``reduced_word_levels`` as the
reference list of reduced words, and Dehn's algorithm as the oracle for
equality in the group.

The one-relator presentation satisfies a small-cancellation condition
strong enough for Dehn's algorithm: any word representing the identity
contains more than half of a cyclic rotation of the relator or its
inverse, so greedily replacing such subwords with the shorter complement
terminates at the empty word exactly for identity words.
"""

import numpy as np

from qfcert._wordarrays import CHILDREN
from qfcert.surface_group import (
    RELATOR_WORD,
    Word,
    _check_letters,
    free_reduce_letters,
)


def child_ranks(last: np.ndarray) -> np.ndarray:
    """Last ranks of the 7 children of each word ending in a rank of
    `last`, word by word, flat."""
    return np.take(CHILDREN, last, axis=0).ravel()


def reduced_word_levels(maxlen: int) -> list[np.ndarray]:
    """Freely reduced words as rank arrays, one (n, L) array per length L.

    Each level is in shortlex order.  Level L is built by appending every
    non-cancelling rank to each level-(L-1) word in rank order, so every
    word has 7 children and row i of level L >= 2 extends row i // 7 of
    level L - 1.
    """
    if maxlen < 1:
        return []
    current = np.arange(8, dtype=np.int8).reshape(-1, 1)
    levels = [current]
    for _ in range(2, maxlen + 1):
        last = child_ranks(current[:, -1])
        new = np.empty((last.size, current.shape[1] + 1), dtype=np.int8)
        new[:, :-1] = np.repeat(current, 7, axis=0)
        new[:, -1] = last
        levels.append(new)
        current = new
    return levels


def is_reduced(w: Word) -> bool:
    return free_reduce_letters(w.letters) == w.letters


def relator_cycles() -> tuple[tuple[int, ...], ...]:
    """Every rotation of the relator and of its inverse, sorted."""
    r = RELATOR_WORD.letters
    cycles = set()
    for base in (r, Word(r).inverse().letters):
        for i in range(len(base)):
            cycles.add(base[i:] + base[:i])
    return tuple(sorted(cycles))


def dehn_reduce(w: Word) -> Word:
    """Greedy Dehn reduction; the result is empty iff w is the identity."""
    _check_letters(w)
    full = len(RELATOR_WORD)
    half = full // 2
    cycles = relator_cycles()
    letters = list(free_reduce_letters(w.letters))
    changed = True
    while changed:
        changed = False
        for match_len in range(min(full, len(letters)), half, -1):
            hit = None
            for pos in range(0, len(letters) - match_len + 1):
                seg = tuple(letters[pos:pos + match_len])
                for cyc in cycles:
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


def is_identity(w: Word) -> bool:
    return len(dehn_reduce(w)) == 0


def are_equal(u: Word, v: Word) -> bool:
    return is_identity(u * v.inverse())

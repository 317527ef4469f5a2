"""Dehn's algorithm for the surface-group word problem, kept as an
independent reference.

No command needs it: the class table merges classes by exact relator
swaps (``_wordarrays.conjugacy_classes``).  The class-table, enumeration
and sample tests use it as the oracle for equality in the group.

The one-relator presentation satisfies a small-cancellation condition
strong enough for Dehn's algorithm: any word representing the identity
contains more than half of a cyclic rotation of the relator or its
inverse, so greedily replacing such subwords with the shorter complement
terminates at the empty word exactly for identity words.
"""

from qfcert.surface_group import GroupPresentation, Word, free_reduce_letters


def is_reduced(w: Word) -> bool:
    return free_reduce_letters(w.letters) == w.letters


def relator_cycles(pres: GroupPresentation) -> tuple[tuple[int, ...], ...]:
    """Every rotation of the relator and of its inverse, sorted."""
    r = pres.relator().letters
    cycles = set()
    for base in (r, Word(r).inverse().letters):
        for i in range(len(base)):
            cycles.add(base[i:] + base[:i])
    return tuple(sorted(cycles))


def dehn_reduce(pres: GroupPresentation, w: Word) -> Word:
    """Greedy Dehn reduction; the result is empty iff w is the identity."""
    pres.validate(w)
    half = 2 * pres.genus
    full = 4 * pres.genus
    cycles = relator_cycles(pres)
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


def is_identity(pres: GroupPresentation, w: Word) -> bool:
    return len(dehn_reduce(pres, w)) == 0


def are_equal(pres: GroupPresentation, u: Word, v: Word) -> bool:
    return is_identity(pres, u * v.inverse())

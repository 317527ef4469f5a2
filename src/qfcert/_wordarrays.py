"""Vectorized word enumeration and matrix batch evaluation.

Words of the genus-2 group are int8 arrays of letter ranks, indices into
one alphabet table (``NAMES``, ``LETTERS``, ``INVERSE``) in shortlex
generator order: ranks 0..3 are the generators a1 b1 a2 b2 and 4..7 their
inverses.  One walk, ``normal_forms``, enumerates words, each product built
from its parent's and written once: limit-set sampling, the orbit
search and the complex-trace search walk the normal forms that
``shortlex_acceptor`` accepts, and the class table and
``surface_group.enumerate_words`` the freely reduced words that
``free_acceptor`` accepts.  Joined rows go through ``compose_matrices``.
Every batch product is evaluated on contiguous float64 planes, the real and
imaginary parts of each entry (``_plane_products``), equal to
``representations.evaluate`` bit for bit after
``MoebiusMap._unit_det``'s sign.  Real generators, such as the reference
octagon's after ``exact_real``, give float64 products, whose fixed points
``attracting_fixed_pairs`` solves in a float64 branch.  ``translating``
decides from traces which products are translations, with ``moebius``'s
tolerances.
Artifact lengths come from ``representations.stable_lengths``: its
``cmath.acosh`` is ``moebius.translation_length`` bit for bit, and
``np.arccosh`` differs from it in the last bit for about one word in ten.
"""

from __future__ import annotations

import functools

import numpy as np

from .moebius import PARABOLIC_TRACE_TOL, REAL_TRACE_TOL


# The alphabet of the group in rank order: the generators, then
# their inverses, capitalized.  A signed letter is 2j - 1 for a_j and 2j
# for b_j, negated for an inverse; INVERSE[r] is the rank of r's inverse.
NAMES = ("a1", "b1", "a2", "b2", "A1", "B1", "A2", "B2")
LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)
INVERSE = np.array([LETTERS.index(-x) for x in LETTERS], dtype=np.int8)
INVERSE.flags.writeable = False


def _ranks(text: str) -> tuple[int, ...]:
    """Ranks of a text word such as "a1 B1"."""
    return tuple(NAMES.index(name) for name in text.split())


# the relator [a1, b1] [a2, b2]
RELATOR = _ranks("a1 b1 A1 B1 a2 b2 A2 B2")


def ranks_to_letters(ranks: np.ndarray) -> tuple[int, ...]:
    """Letters of one rank row; -1 padding is skipped."""
    return tuple(LETTERS[r] for r in ranks.tolist() if r >= 0)


# CHILDREN[r]: the 7 ranks that may follow rank r in a freely reduced
# word, every rank except r's inverse, in rank order
CHILDREN = np.array([[s for s in range(len(NAMES)) if s != INVERSE[r]]
                     for r in range(len(NAMES))], dtype=np.int8)
CHILDREN.flags.writeable = False


def join_rows(left: np.ndarray, right: np.ndarray,
              invert: np.ndarray) -> np.ndarray:
    """Freely reduced rank rows of left[i] * right[i], or of
    left[i]^-1 * right[i] where invert[i].

    Both inputs are -1-padded rows of freely reduced words, so letters
    cancel only at the junction; the result is -1 padded to the sum of
    the two widths.
    """
    n_left = (left >= 0).sum(axis=1)[:, None]
    n_right = (right >= 0).sum(axis=1)[:, None]
    # the inverse word reads the live letters backwards, each inverted
    back = n_left - 1 - np.arange(left.shape[1])
    flipped = INVERSE[np.take_along_axis(left, np.maximum(back, 0), axis=1)]
    left = np.where(invert[:, None] & (back >= 0), flipped, left)
    # step t of the junction pairs the t-th letter from the end of left
    # with the t-th letter of right; the first mismatch stops it
    width = min(left.shape[1], right.shape[1])
    tail = n_left - 1 - np.arange(width)
    meet = np.take_along_axis(left, np.maximum(tail, 0), axis=1) \
        == INVERSE[right[:, :width]]
    meet &= (tail >= 0) & (np.arange(width) < n_right)
    cut = np.cumprod(meet, axis=1).sum(axis=1)[:, None]
    # keep left[:n_left - cut], then right[cut:n_right]
    keep = n_left - cut
    pos = np.arange(left.shape[1] + right.shape[1])
    shifted = np.clip(pos - keep + cut, 0, right.shape[1] - 1)
    out = np.where(pos < keep, np.pad(left, ((0, 0), (0, right.shape[1]))),
                   np.take_along_axis(right, shifted, axis=1))
    out[pos >= keep + n_right - cut] = -1
    return out


def word_texts(ranks: np.ndarray) -> list[str]:
    """The text of each -1-padded rank row, its names joined by spaces.

    Each rank is 3 bytes of a table, its name and a space, and the
    padding is 3 null bytes; a row's last space becomes a null too, and
    the nulls, all trailing, drop out of the row's bytes."""
    table = np.array([name + " " for name in NAMES] + [""], dtype="S3")
    n, width = ranks.shape
    text = np.take(table, ranks).view(np.uint8).reshape(n, 3 * width)
    text[np.arange(n), 3 * (ranks >= 0).sum(axis=1) - 1] = 0
    return text.view("S%d" % (3 * width)).ravel().astype(str).tolist()


def _pack(words: np.ndarray) -> np.ndarray:
    """Pack rank rows into integers; lexicographic order is preserved."""
    out = np.zeros(words.shape[0], dtype=np.int64)
    for j in range(words.shape[1]):
        out = out * len(NAMES) + words[:, j].astype(np.int64)
    return out


def conjugacy_class_mask(words: np.ndarray) -> np.ndarray:
    """True for rows that are cyclically reduced and minimal among rotations.

    Freely reduced rows of one length are assumed; the kept rows are the
    shortlex-least spelling of each rotation class.
    """
    mask = words[:, 0] != INVERSE[words[:, -1]]
    width = words.shape[1]
    twice = np.concatenate([words, words], axis=1)
    own = _pack(words)
    best = own.copy()
    for shift in range(1, width):
        np.minimum(best, _pack(twice[:, shift:shift + width]), out=best)
    return mask & (own == best)


_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _planes(m: np.ndarray, cplx: bool) -> np.ndarray:
    """(P, ...) contiguous planes of (..., 2, 2) matrices: the value of
    entry e = 2 i + k is plane e (float64, P = 4), or its real and
    imaginary parts are planes 2 e and 2 e + 1 (cplx, P = 8)."""
    m = np.ascontiguousarray(m, dtype=complex if cplx else np.float64)
    planes = 8 if cplx else 4
    flat = m.view(np.float64).reshape(-1, planes)
    return np.ascontiguousarray(flat.T).reshape(planes, *m.shape[:-2])


def _plane_products(mp: np.ndarray, gp: np.ndarray, out: np.ndarray) -> None:
    """Products of the matrices whose planes (``_planes``) are mp and gp,
    broadcast over their trailing axes, written into the planes out.

    Entry (i, k) is (0.0 + m_i0 g_0k) + m_i1 g_1k: the 0.0 turns a -0.0
    first term into +0.0, so the sum of two -0.0 terms is +0.0.  A
    complex term x y is (xr yr - xi yi, xr yi + xi yr) on the planes:
    NumPy's complex multiply may fuse a multiply-add in its SIMD loop.
    Each sum is formed in a contiguous buffer, then copied into out,
    whose planes may be strided.
    """
    cplx = out.shape[0] == 8
    t, u, w = (np.empty(out.shape[1:]) for _ in range(3))
    for e, (i, k) in enumerate(_ENTRIES):
        # term j pairs entry 2 i + j of m with entry 2 j + k of g
        terms = [(2 * i + j, 2 * j + k) for j in (0, 1)]
        if not cplx:
            for (x, y), acc in zip(terms, (t, u)):
                np.multiply(mp[x], gp[y], out=acc)
            t += 0.0
            t += u
            out[e] = t
            continue
        # the real part xr yr - xi yi, then the imaginary part xr yi + xi yr
        for part, combine in ((0, np.subtract), (1, np.add)):
            for (x, y), acc in zip(terms, (t, u)):
                np.multiply(mp[2 * x], gp[2 * y + part], out=acc)
                np.multiply(mp[2 * x + 1], gp[2 * y + 1 - part], out=w)
                combine(acc, w, out=acc)
            t += 0.0
            t += u
            out[2 * e + part] = t


def exact_real(gen_mats: np.ndarray) -> np.ndarray:
    """gen_mats as float64 when every entry's imaginary part is zero, so
    its products take the real planes of ``_plane_products``; else
    unchanged."""
    if np.iscomplexobj(gen_mats) and not gen_mats.imag.any():
        return np.ascontiguousarray(gen_mats.real)
    return gen_mats


def compose_matrices(words: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
    """Product matrices for rank rows, which may end in -1 padding;
    gen_mats is (4g, 2, 2), complex or real.  The running products are
    planes, and each column's live rows gather their generators from the
    generators' planes."""
    cplx = np.iscomplexobj(gen_mats)
    table = _planes(gen_mats, cplx)
    m = np.take(table, words[:, 0], axis=1)
    for col in words[:, 1:].T:
        rows = np.flatnonzero(col >= 0)
        step = np.empty((m.shape[0], rows.size))
        _plane_products(np.take(m, rows, axis=1),
                        np.take(table, np.take(col, rows), axis=1), step)
        m[:, rows] = step
    out = np.empty((words.shape[0], 2, 2),
                   dtype=complex if cplx else np.float64)
    out.view(np.float64).reshape(m.shape[::-1])[...] = m.T
    return out


def _relator_swaps() -> dict[tuple, list[tuple]]:
    """Swaps s -> r of rank tuples with r s^-1 trivial and |r| <= |s| < 8.

    r s^-1 is then a rotation of a cell (the relator or its inverse) or of
    two cells glued along one letter: other cyclically reduced trivial
    words have 16 letters or more (Greendlinger's lemma)."""
    inverse, full = INVERSE.tolist(), len(RELATOR)

    def inv(w: tuple) -> tuple:
        return tuple(inverse[x] for x in reversed(w))

    cells = {c[i:] + c[:i] for c in (RELATOR, inv(RELATOR))
             for i in range(full)}
    words = cells.union(a[:-1] + b[1:] for a in cells for b in cells
                        if a[-1] == inverse[b[0]] and a[-2] != inverse[b[1]])
    swaps: dict[tuple, list[tuple]] = {}
    for u in {w[i:] + w[:i] for w in words for i in range(len(w))}:
        for k in range((len(u) + 1) // 2, full):
            swaps.setdefault(u[:k], []).append(inv(u[k:]))
    return swaps


def _swap_hits(words: np.ndarray,
               swaps: dict[tuple, list[tuple]]) -> np.ndarray:
    """True for the rows of words (all of one length) that have a
    rotation u whose prefix u[:k], k >= len(RELATOR) // 2, is a key of
    swaps: the rows of which swaps make some image.  Prefixes and keys of
    each length k are compared packed (_pack)."""
    n, width = words.shape
    twice = np.concatenate([words, words], axis=1)
    hit = np.zeros(n, dtype=bool)
    for k in range(len(RELATOR) // 2, width + 1):
        keys = np.sort(_pack(np.array([s for s in swaps if len(s) == k],
                                      dtype=np.int8)))
        prefixes = np.stack([_pack(twice[:, p:p + k]) for p in range(width)])
        at = np.minimum(np.searchsorted(keys, prefixes), len(keys) - 1)
        hit |= (keys[at] == prefixes).any(axis=0)
    return hit


def conjugacy_classes(maxlen: int,
                      *gens: np.ndarray) -> tuple[np.ndarray, ...]:
    """The class table for 1 <= maxlen < 8: rank rows, then their products
    under each generator array in gens, which set only the products.

    Rows are the rotation-class minima of conjugacy_class_mask among the
    freely reduced words (``free_acceptor``), -1 padded and shortlex-sorted;
    their products are the walk's.  A class goes when a rotation s t of it
    and a rotation r t of an earlier kept one have r s^-1 trivial
    (``_relator_swaps``).  No cyclic reduction follows, so b1 and
    b1 b2 a2 B2 A2, both kept, are conjugate.

    Only a row with a rotation whose prefix is a swap key s can go; these
    hit rows (``_swap_hits``, 16 / 96 / 684 of the 780 / 4 148 / 23 836
    rotation classes up to 4 / 5 / 6 letters) are the only ones whose
    swap images are formed, in row order, each against every kept row
    before it.  Every other row is kept."""
    if maxlen >= len(RELATOR):
        raise ValueError("class table needs maxlen < %d" % len(RELATOR))
    swaps, kept, rows, mats = _relator_swaps(), set(), [], []
    for chunk, products in normal_forms(gens, maxlen, free_acceptor()):
        pick = np.flatnonzero(conjugacy_class_mask(chunk))
        words = chunk[pick]
        texts = list(map(bytes, words.tolist()))
        keep = np.ones(len(pick), dtype=bool)
        done = 0
        for i in np.flatnonzero(_swap_hits(words, swaps)).tolist():
            # the rows between two hit rows are kept
            kept.update(texts[done:i])
            done = i + 1
            w = tuple(texts[i])
            # least rotations of the words r t that swaps make of w
            images = (min(v[q:] + v[:q] for q in range(len(v)))
                      for u in (w[p:] + w[:p] for p in range(len(w)))
                      for k in range(len(RELATOR) // 2, len(w) + 1)
                      for v in (r + u[k:] for r in swaps.get(u[:k], ())))
            keep[i] = kept.isdisjoint(map(bytes, images))
            if keep[i]:
                kept.add(texts[i])
        kept.update(texts[done:])
        pick = pick[keep]
        rows.append(np.pad(chunk[pick], ((0, 0), (0, maxlen - chunk.shape[1])),
                           constant_values=-1))
        mats.append([p[pick] for p in products])
    return np.concatenate(rows), *map(np.concatenate, zip(*mats))


# The shortlex rewriting system of the group in rank order, from
# a Knuth-Bendix completion (Epstein et al., Word Processing in Groups,
# 1992): a word is a normal form exactly when no left side occurs in it.
# Besides the eight free cancellations:
SHORTLEX_LEFT_SIDES = (
    "a2 b2 A2 B2", "b2 a2 B2 A2", "A1 b2 a2 B2", "B1 a2 b2 A2", "B1 A1 b2 a2",
    "A2 b1 a1 B1", "B2 a1 b1 A1", "B2 A2 b1 a1", "a1 b1 A1 B1 a2",
    "b1 a1 B1 A1 b2", "b1 A1 B1 a2 b2", "b2 A2 B2 a1 b1",
    "a2 b2 A2 A2 B2 a1 b1", "A1 b2 a2 a2 B2 A2 b1", "B1 a2 b2 b2 A2 B2 a1",
    "B1 A1 b2 b1 a1 B1 A1", "A2 b1 a1 a1 B1 A1 b2", "B2 a1 b1 b1 A1 B1 a2",
)
# and two infinite families, prefix period^k suffix for every k >= 0
SHORTLEX_FAMILY = ("b1 A1 B1 a2", "a1 b1 A1 A1 B1 a2",
                   ("a1 b1 A1 B1", "a1 b1 A1 A1 B1 a2 b2"))
# acceptor states: DEAD absorbs every word that an acceptor rejects, and
# the empty word starts in START
DEAD, START = 0, 1


@functools.cache
def shortlex_acceptor() -> np.ndarray:
    """Transition table (state, rank) -> state of the genus-2 shortlex
    normal forms: a word is one exactly when its run from START never
    enters DEAD, so the accepted words are prefix-closed.

    Each state is the set of partial left-side matches of a
    nondeterministic matcher, in which the family's period loops back
    (subset construction); a completed match goes to DEAD.
    """
    edges: list[list[tuple[int, int]]] = [[]]
    matched: set[int] = set()

    def chain(node: int, word: tuple[int, ...]) -> int:
        for rank in word:
            edges.append([])
            edges[node].append((rank, len(edges) - 1))
            node = len(edges) - 1
        return node

    cancels = list(enumerate(INVERSE.tolist()))
    for word in cancels + [_ranks(text) for text in SHORTLEX_LEFT_SIDES]:
        matched.add(chain(0, word))
    prefix, period, suffixes = SHORTLEX_FAMILY
    hub = chain(0, _ranks(prefix))
    *body, close = _ranks(period)
    edges[chain(hub, body)].append((close, hub))
    matched.update(chain(hub, _ranks(text)) for text in suffixes)

    sets = [frozenset([0])]
    index = {sets[0]: START}
    rows = [[DEAD] * len(NAMES)]
    for active in sets:
        row = []
        for rank in range(len(NAMES)):
            step = frozenset([0]).union(node for n in active
                                        for r, node in edges[n] if r == rank)
            if step & matched:
                row.append(DEAD)
                continue
            if step not in index:
                index[step] = len(sets) + 1
                sets.append(step)
            row.append(index[step])
        rows.append(row)
    table = np.array(rows, dtype=np.int8)
    table.flags.writeable = False
    return table


@functools.cache
def free_acceptor() -> np.ndarray:
    """Transition table of the freely reduced words: state 2 + r follows
    rank r, and the inverse of r leads to DEAD."""
    count = len(NAMES)
    table = np.zeros((count + 2, count), dtype=np.int8)
    table[START:] = np.arange(2, count + 2)
    table[np.arange(2, count + 2), INVERSE] = DEAD
    table.flags.writeable = False
    return table


# parents extended per chunk of the normal-form walk
_WALK_CHUNK = 1024


def _arrays(n: int, width: int, gens: tuple[np.ndarray, ...]):
    """Empty rank rows, states and products for n words of width letters."""
    return (np.empty((n, width), dtype=np.int8), np.empty(n, dtype=np.int8),
            *(np.empty((n, 2, 2), dtype=g.dtype) for g in gens))


def normal_forms(gens: tuple[np.ndarray, ...], maxlen: int, accept=None,
                 keep=None):
    """Words of 1 to maxlen letters that the table accept takes, the genus-2
    shortlex normal forms by default, and their products, breadth-first in
    shortlex order.

    Yields chunks (rows, products): an (n, L) int8 array of rank rows of
    one length, and one (n, 2, 2) product array per generator array in
    gens.  Each product is written once: one ``_plane_products`` call per
    chunk and generator array multiplies the accepted children's parents
    by their last generators, straight into the arrays that are yielded,
    so every product equals compose_matrices bit for bit.  keep(products),
    when given, is called on the products of each chunk's accepted
    children, in shortlex order, before any row is built: it picks the
    rows that are yielded and extended, whose products are moved down in
    place, and a chunk that it empties is not yielded.  The arrays keep
    sees are views that the walk overwrites after keep returns, so a keep
    that holds on to them must copy them.  Each length below
    maxlen is written into arrays allocated once, sized by their parents'
    live children, and yielded as views of them; the last length is not
    stored.
    """
    accept = shortlex_acceptor() if accept is None else accept
    live = (accept != DEAD).sum(axis=1)
    tables = [_planes(g, np.iscomplexobj(g)) for g in gens]
    # the first length's one parent is the empty word, in state START: its
    # children are the letters, whose products are the generators
    # themselves (an identity parent would turn a -0.0 entry into +0.0)
    rows, state = np.empty((1, 0), dtype=np.int8), np.array([START])
    mats = gens
    for width in range(1, maxlen + 1):
        size = int(live[state].sum()) if width < maxlen else 0
        store = _arrays(size, width, gens)
        end = 0
        for lo in range(0, len(rows), _WALK_CHUNK):
            parents = rows[lo:lo + _WALK_CHUNK]
            kids = np.take(CHILDREN, parents[:, -1], axis=0) if width > 1 \
                else np.arange(len(NAMES), dtype=np.int8)[None]
            kid_state = accept[state[lo:lo + _WALK_CHUNK, None], kids]
            # the accepted children, as indices among all of the chunk's
            # children, and their last ranks
            take = np.flatnonzero(kid_state != DEAD)
            last = np.take(kids, take)
            out, kid_out, *products = (a[end:end + len(take)] for a in store) \
                if size else _arrays(len(take), width, gens)
            for g, table, m, p in zip(gens, tables, mats, products):
                if width == 1:
                    np.take(g, last, axis=0, out=p)
                    continue
                m = _planes(m[lo:lo + _WALK_CHUNK], np.iscomplexobj(m))
                _plane_products(np.take(m, take // kids.shape[1], axis=1),
                                np.take(table, last, axis=1),
                                p.view(np.float64).reshape(-1, len(table)).T)
            if keep is not None:
                pick = np.flatnonzero(keep(tuple(products)))
                take = take[pick]
                # np.take buffers out, so the overlapping move is safe
                products = [np.take(p, pick, axis=0, out=p[:len(pick)])
                            for p in products]
                out, kid_out = out[:len(pick)], kid_out[:len(pick)]
            out[:, :-1] = np.take(parents, take // kids.shape[1], axis=0)
            np.take(kids, take, out=out[:, -1])
            np.take(kid_state, take, out=kid_out)
            if len(take):
                yield out, tuple(products)
            end += len(take)
        rows, state, *mats = (a[:end] for a in store)

def traces(mats: np.ndarray) -> np.ndarray:
    return mats[..., 0, 0] + mats[..., 1, 1]


def translating(tr: np.ndarray) -> np.ndarray:
    """Where traces tr are translations': |Im tr| > REAL_TRACE_TOL or
    |Re tr| > 2 + PARABOLIC_TRACE_TOL, as in moebius.translation_length."""
    return (np.abs(tr.imag) > REAL_TRACE_TOL) \
        | (np.abs(tr.real) > 2.0 + PARABOLIC_TRACE_TOL)


def attracting_fixed_pairs(mats: np.ndarray) -> np.ndarray:
    """Projective pairs (w1, w2), unit norm, of the attracting fixed points.

    Caller must ensure the maps are translation types (distinct-modulus
    eigenvalues); ties are resolved arbitrarily.  The eigenvector is
    (b, kappa - a) or (kappa - d, c), whichever has the larger squared
    norm, for the larger eigenvalue kappa.  Complex maps give complex
    pairs.  Real maps, such as the reference octagon's products after
    ``exact_real``, take a float64 branch whose pairs are the real parts
    of the complex computation's, bit for bit, where the maps translate;
    there the imaginary parts are all +0.0.
    """
    cplx = np.iscomplexobj(mats)
    a, b, c, d = (mats[..., i, k] for i, k in _ENTRIES)
    tr = a + d
    if cplx:
        sq = np.sqrt(tr * tr - 4.0 + 0j)
        kp, km = (tr + sq) / 2.0, (tr - sq) / 2.0
    else:
        # the complex branch's sqrt of (x, +0.0) and division by (2, 0),
        # both on the real part alone; a negative discriminant (no
        # translation) is clipped, so nothing warns that the complex
        # branch lets pass
        sq = np.sqrt(np.maximum(tr * tr - 4.0, 0.0))
        kp, km = ((tr + sq) + 0.0) * 0.5, ((tr - sq) + 0.0) * 0.5
    # the complex |z| is np.hypot, which no plane formula matches
    kappa = np.where(np.abs(kp) >= np.abs(km), kp, km)
    p, r = kappa - a, kappa - d
    n1 = np.abs(b) ** 2 + np.abs(p) ** 2
    n2 = np.abs(r) ** 2 + np.abs(c) ** 2
    first = n1 >= n2
    norm = np.sqrt(np.where(first, n1, n2))
    if not cplx:
        # NumPy divides (x, 0) by a real norm as (x + 0.0) * (1.0 / norm);
        # a zero norm (no translation) gives nan
        scale = np.divide(1.0, norm, out=np.full_like(norm, np.nan),
                          where=norm > 0.0)
    out = np.empty(tr.shape + (2,), dtype=tr.dtype)
    for k, x in enumerate((np.where(first, b, r), np.where(first, p, c))):
        if cplx:
            np.divide(x, norm, out=out[..., k])
        else:
            x += 0.0
            np.multiply(x, scale, out=out[..., k])
    return out


def repelling_fixed_pairs(mats: np.ndarray) -> np.ndarray:
    inv = np.empty_like(mats)
    inv[..., 0, 0] = mats[..., 1, 1]
    inv[..., 0, 1] = -mats[..., 0, 1]
    inv[..., 1, 0] = -mats[..., 1, 0]
    inv[..., 1, 1] = mats[..., 0, 0]
    return attracting_fixed_pairs(inv)


def disk_angles_turns(pairs: np.ndarray) -> np.ndarray:
    """Boundary-circle positions of real projective pairs, in turns [0, 1]:
    np.mod rounds an angle just below 0 up to 1.0.

    The upper-half-plane boundary point (w1 : w2) maps into the disk via
    z -> (z - i)/(z + i); the angle is the argument of the image.
    """
    w1 = pairs[..., 0]
    w2 = pairs[..., 1]
    u = w1 - 1j * w2
    v = w1 + 1j * w2
    ang = np.angle(u * np.conj(v)) / (2.0 * np.pi)
    return np.mod(ang, 1.0)

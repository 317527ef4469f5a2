"""Vectorized word enumeration and matrix batch evaluation.

Words are int8 arrays of letter ranks in shortlex generator order: ranks
0..2g-1 are the letters 1..2g and ranks 2g..4g-1 their inverses.  Limit-set
sampling, the orbit search and the complex-trace search build each product
from its parent's (``extend_products``); other rows, such as the class
table's, go through ``compose_matrices``.  Every batch product is
``_times``, equal to ``representations.evaluate`` bit for bit after
``MoebiusMap._unit_det``'s sign.  ``translating`` decides from traces
which products are translations, with ``moebius``'s tolerances.  Artifact
lengths come from ``representations.stable_lengths``: its ``cmath.acosh``
is ``moebius.translation_length`` bit for bit, and ``np.arccosh`` differs
from it in the last bit for about one word in ten.
"""

from __future__ import annotations

import numpy as np

from .moebius import PARABOLIC_TRACE_TOL, REAL_TRACE_TOL

# element dedup in the orbit search: canonical entries rounded to 1e-6
KEY_DECIMALS = 6


def _inverse_ranks(genus: int) -> np.ndarray:
    count = 4 * genus
    return ((np.arange(count) + 2 * genus) % count).astype(np.int8)


def ranks_to_letters(ranks: np.ndarray, genus: int = 2) -> tuple[int, ...]:
    """Letters of one rank row; -1 padding is skipped."""
    half = 2 * genus
    return tuple(r + 1 if r < half else half - 1 - r
                 for r in ranks.tolist() if r >= 0)


def reduced_word_levels(maxlen: int, genus: int = 2) -> list[np.ndarray]:
    """Freely reduced words as rank arrays, one (n, L) array per length L.

    Each level is in shortlex order.  Level L is built by appending every
    non-cancelling rank to each level-(L-1) word in rank order, so every
    word has 4g - 1 children and row i of level L >= 2 extends row
    i // (4g - 1) of level L - 1.
    """
    if maxlen < 1:
        return []
    current = np.arange(4 * genus, dtype=np.int8).reshape(-1, 1)
    levels = [current]
    for _ in range(2, maxlen + 1):
        last = child_ranks(current[:, -1], genus)
        new = np.empty((last.size, current.shape[1] + 1), dtype=np.int8)
        new[:, :-1] = np.repeat(current, 4 * genus - 1, axis=0)
        new[:, -1] = last
        levels.append(new)
        current = new
    return levels


def child_ranks(last: np.ndarray, genus: int = 2) -> np.ndarray:
    """Last ranks of the children of words ending in the ranks `last`.

    Each word has 4g - 1 children, every rank except the inverse of its
    last one, in rank order; the result lists them word by word.
    """
    ranks = np.arange(4 * genus, dtype=np.int8)
    keep = ranks != _inverse_ranks(genus)[last][:, None]
    return np.broadcast_to(ranks, keep.shape)[keep]


def join_rows(left: np.ndarray, right: np.ndarray, invert: np.ndarray,
              genus: int = 2) -> np.ndarray:
    """Freely reduced rank rows of left[i] * right[i], or of
    left[i]^-1 * right[i] where invert[i].

    Both inputs are -1-padded rows of freely reduced words, so letters
    cancel only at the junction; the result is -1 padded to the sum of
    the two widths.
    """
    inverse = _inverse_ranks(genus)
    n_left = (left >= 0).sum(axis=1)[:, None]
    n_right = (right >= 0).sum(axis=1)[:, None]
    # the inverse word reads the live letters backwards, each inverted
    back = n_left - 1 - np.arange(left.shape[1])
    flipped = inverse[np.take_along_axis(left, np.maximum(back, 0), axis=1)]
    left = np.where(invert[:, None] & (back >= 0), flipped, left)
    # step t of the junction pairs the t-th letter from the end of left
    # with the t-th letter of right; the first mismatch stops it
    width = min(left.shape[1], right.shape[1])
    tail = n_left - 1 - np.arange(width)
    meet = np.take_along_axis(left, np.maximum(tail, 0), axis=1) \
        == inverse[right[:, :width]]
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


def _pack(words: np.ndarray, base: int) -> np.ndarray:
    """Pack rank rows into integers; lexicographic order is preserved."""
    out = np.zeros(words.shape[0], dtype=np.int64)
    for j in range(words.shape[1]):
        out = out * base + words[:, j].astype(np.int64)
    return out


def conjugacy_class_mask(words: np.ndarray, genus: int = 2) -> np.ndarray:
    """True for rows that are cyclically reduced and minimal among rotations.

    Freely reduced rows of one length are assumed; the kept rows are the
    shortlex-least spelling of each rotation class.
    """
    base = 4 * genus
    mask = words[:, 0] != _inverse_ranks(genus)[words[:, -1]]
    own = _pack(words, base)
    best = own.copy()
    for shift in range(1, words.shape[1]):
        np.minimum(best, _pack(np.roll(words, -shift, axis=1), base), out=best)
    return mask & (own == best)


_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _plus(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """(0.0 + p0) + p1, in place in p0: a sum into a zeroed output.

    The 0.0 turns a -0.0 first term into +0.0, so the sum of two -0.0
    terms is +0.0.
    """
    p0 += 0.0
    p0 += p1
    return p0


def _times(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """2x2 products m[..., :, :] @ g[..., :, :], broadcast over the
    leading axes; every batch product goes here.

    Each entry sums its two terms from 0.0 (``_plus``).  A
    complex term x y is (xr yr - xi yi, xr yi + xi yr) on the planes:
    NumPy's complex multiply may fuse a multiply-add in its SIMD loop.
    Real m and g give a float64 result.
    """
    shape = np.broadcast_shapes(m.shape, g.shape)
    if not (np.iscomplexobj(m) or np.iscomplexobj(g)):
        out = np.empty(shape)
        for i, k in _ENTRIES:
            out[..., i, k] = _plus(*(m[..., i, j] * g[..., j, k]
                                     for j in (0, 1)))
        return out
    mr, mi, gr, gi = m.real, m.imag, g.real, g.imag
    out = np.empty(shape, dtype=complex)
    for i, k in _ENTRIES:
        terms = [(mr[..., i, j], mi[..., i, j], gr[..., j, k], gi[..., j, k])
                 for j in (0, 1)]
        out.real[..., i, k] = _plus(*(xr * yr - xi * yi
                                      for xr, xi, yr, yi in terms))
        out.imag[..., i, k] = _plus(*(xr * yi + xi * yr
                                      for xr, xi, yr, yi in terms))
    return out


def exact_real(gen_mats: np.ndarray) -> np.ndarray:
    """gen_mats as float64 when every entry's imaginary part is zero, so
    its products take the real branch of ``_times``; else unchanged."""
    if np.iscomplexobj(gen_mats) and not gen_mats.imag.any():
        return np.ascontiguousarray(gen_mats.real)
    return gen_mats


def compose_matrices(words: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
    """Product matrices for rank rows, which may end in -1 padding;
    gen_mats is (4g, 2, 2), complex or real."""
    m = gen_mats[words[:, 0]]
    for j in range(1, words.shape[1]):
        live = words[:, j] >= 0
        if live.all():
            m = _times(m, gen_mats[words[:, j]])
        else:
            m[live] = _times(m[live], gen_mats[words[live, j]])
    return m


def extend_products(parents: np.ndarray, last: np.ndarray,
                    gen_mats: np.ndarray) -> np.ndarray:
    """Products of the reduced_word_levels rows that extend `parents`.

    parents holds the products of consecutive rows of one level, last
    the last ranks of their 4g - 1 children each, in level order.  Each
    parent is broadcast against its children's generators.  The result
    equals compose_matrices of the full child rows bit for bit.
    """
    fan = gen_mats.shape[0] - 1
    return _times(parents[:, None], gen_mats[last.reshape(-1, fan)]) \
        .reshape(-1, 2, 2)


def _relator_swaps(genus: int) -> dict[tuple, list[tuple]]:
    """Swaps s -> r of rank tuples with r s^-1 trivial and |r| <= |s| < 4g.

    r s^-1 is then a rotation of a cell (the relator or its inverse) or of
    two cells glued along one letter: other cyclically reduced trivial
    words have 8g letters or more (Greendlinger's lemma)."""
    inverse, full = _inverse_ranks(genus).tolist(), 4 * genus

    def inv(w: tuple) -> tuple:
        return tuple(inverse[x] for x in reversed(w))

    relator = tuple(j + e + 2 * genus * side for j in range(0, 2 * genus, 2)
                    for side in (0, 1) for e in (0, 1))
    cells = {c[i:] + c[:i] for c in (relator, inv(relator))
             for i in range(full)}
    words = cells.union(a[:-1] + b[1:] for a in cells for b in cells
                        if a[-1] == inverse[b[0]] and a[-2] != inverse[b[1]])
    swaps: dict[tuple, list[tuple]] = {}
    for u in {w[i:] + w[:i] for w in words for i in range(len(w))}:
        for k in range((len(u) + 1) // 2, full):
            swaps.setdefault(u[:k], []).append(inv(u[k:]))
    return swaps


def conjugacy_classes(maxlen: int,
                      gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class table for 1 <= maxlen < 4g: rank rows and their products.

    Rows are the rotation-class minima of conjugacy_class_mask, -1 padded
    and globally shortlex-sorted; gens sets only the products.  A class
    goes when a rotation s t of it and a rotation r t of an earlier kept
    one have r s^-1 trivial (``_relator_swaps``).  No cyclic reduction
    follows, so b1 and b1 b2 a2 B2 A2, both kept, are conjugate."""
    genus = gens.shape[0] // 4
    if maxlen >= 4 * genus:
        raise ValueError("class table needs maxlen < 4g = %d" % (4 * genus))
    swaps, kept, rows = _relator_swaps(genus), set(), []
    for level in reduced_word_levels(maxlen, genus):
        level = level[conjugacy_class_mask(level, genus)]
        keep = np.ones(len(level), dtype=bool)
        for i, w in enumerate(map(tuple, level.tolist())):
            # least rotations of the words r t that swaps make of w
            images = (min(v[q:] + v[:q] for q in range(len(v)))
                      for u in (w[p:] + w[:p] for p in range(len(w)))
                      for k in range(2 * genus, len(w) + 1)
                      for v in (r + u[k:] for r in swaps.get(u[:k], ())))
            keep[i] = kept.isdisjoint(map(bytes, images))
            if keep[i]:
                kept.add(bytes(w))
        rows.append(np.pad(level[keep], ((0, 0), (0, maxlen - level.shape[1])),
                           constant_values=-1))
    rows = np.concatenate(rows)
    return rows, compose_matrices(rows, gens)


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
    eigenvalues); ties are resolved arbitrarily.
    """
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    c = mats[..., 1, 0]
    d = mats[..., 1, 1]
    tr = a + d
    sq = np.sqrt(tr * tr - 4.0 + 0j)
    kp = (tr + sq) / 2.0
    km = (tr - sq) / 2.0
    kappa = np.where(np.abs(kp) >= np.abs(km), kp, km)
    v1 = np.stack([b, kappa - a], axis=-1)
    v2 = np.stack([kappa - d, c], axis=-1)
    n1 = np.abs(v1[..., 0]) ** 2 + np.abs(v1[..., 1]) ** 2
    n2 = np.abs(v2[..., 0]) ** 2 + np.abs(v2[..., 1]) ** 2
    v = np.where((n1 >= n2)[..., None], v1, v2)
    norm = np.sqrt(np.abs(v[..., 0]) ** 2 + np.abs(v[..., 1]) ** 2)
    return v / norm[..., None]


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


def canonical_sign(mats: np.ndarray) -> np.ndarray:
    """Flip each matrix's sign so the first significant entry of
    (a, b, c, d) has positive real part (or positive imaginary part when
    the real part vanishes); d leads when no entry passes 1e-9."""
    flat = mats.reshape(mats.shape[0], 4)
    lead = flat[:, 3]
    for j in (2, 1, 0):
        lead = np.where(np.abs(flat[:, j]) > 1e-9, flat[:, j], lead)
    if np.iscomplexobj(lead):
        use_imag = np.abs(lead.real) <= 1e-12 * np.abs(lead)
        lead = np.where(use_imag, lead.imag, lead.real)
    return mats * np.where(lead < 0.0, -1.0, 1.0)[:, None, None]


def quantize_keys(mats: np.ndarray) -> np.ndarray:
    """Integer fingerprint rows for element dedup after canonical_sign:
    the batch's float64 view, rounded to KEY_DECIMALS places.

    A complex entry gives two columns, real then imaginary part; a real
    batch keys on its four entries.  Its complex keys would only add an
    all-zero column after each, which decides neither equality nor the
    memcmp order of rows_as_void, so np.unique picks the same rows.
    """
    flat = np.ascontiguousarray(mats).reshape(mats.shape[0], 4)
    parts = flat.view(np.float64)
    return np.round(parts * (10.0 ** KEY_DECIMALS)).astype(np.int64)


def rows_as_void(rows: np.ndarray) -> np.ndarray:
    """View integer key rows as scalars comparable by memcmp (for sorting,
    searchsorted-based membership, and uniqueness)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def member_of_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean mask: which values occur in the sorted array `table`."""
    if table.size == 0:
        return np.zeros(values.shape[0], dtype=bool)
    pos = np.searchsorted(table, values)
    inside = pos < table.size
    out = np.zeros(values.shape[0], dtype=bool)
    out[inside] = table[pos[inside]] == values[inside]
    return out

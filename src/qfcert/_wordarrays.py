"""Vectorized word enumeration and matrix batch evaluation.

Words are stored as int8 arrays of letter ranks.  Rank order is the
shortlex generator order of the genus-g presentation: ranks 0..2g-1 are
the letters 1..2g and ranks 2g..4g-1 their inverses, so the inverse of
rank r is r +- 2g and arrays built by in-order extension are
shortlex-sorted within each length; any genus works.  The spectrum,
the triangle harness and the certificate search read one class table,
``conjugacy_classes``.  Products multiply left to right, as
``representations.evaluate`` does, and equal its entries bit for bit
after ``MoebiusMap._unit_det``'s sign, so artifact lengths must be
``moebius.translation_length`` of them: ``translation_lengths`` uses
``np.arccosh``, which differs from ``cmath.acosh`` in the last bit for
about one word in ten.
"""

from __future__ import annotations

import numpy as np

# class dedup: matrices equal up to sign within FINGERPRINT_TOL per entry
# are one element; only classes in neighbouring |trace| buckets compare
FINGERPRINT_TOL = 1e-6
TRACE_BUCKET = 1e-4


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
    non-cancelling rank to each level-(L-1) word in rank order.
    """
    if maxlen < 1:
        return []
    count = 4 * genus
    inverse = _inverse_ranks(genus)
    ranks = np.arange(count, dtype=np.int8)
    current = ranks.reshape(-1, 1)
    levels = [current]
    for _ in range(2, maxlen + 1):
        n = current.shape[0]
        # candidate extensions: all ranks except the inverse of the last letter
        ext = np.broadcast_to(ranks, (n, count))
        keep = ext != inverse[current[:, -1]][:, None]
        parent_idx, rank_new = np.nonzero(keep)
        new = np.empty((parent_idx.size, current.shape[1] + 1), dtype=np.int8)
        new[:, :-1] = current[parent_idx]
        new[:, -1] = rank_new
        levels.append(new)
        current = new
    return levels


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


def compose_matrices(words: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
    """Product matrices for rank rows, which may end in -1 padding;
    gen_mats is (4g, 2, 2) complex."""
    m = gen_mats[words[:, 0]]
    for j in range(1, words.shape[1]):
        live = words[:, j] >= 0
        if live.all():
            m = np.einsum("nij,njk->nik", m, gen_mats[words[:, j]])
        else:
            m[live] = np.einsum("nij,njk->nik", m[live],
                                gen_mats[words[live, j]])
    return m


def conjugacy_classes(maxlen: int,
                      gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class table up to maxlen >= 1: rank rows and their products.

    gens is the (4g, 2, 2) generator array of a faithful representation.
    Rows are the rotation-class minima of conjugacy_class_mask, -1 padded
    and globally shortlex-sorted.  A rotation class that the relator
    makes conjugate to an earlier kept one is dropped: one of its
    rotations has the matrix of one of that class's rotations.
    """
    genus = gens.shape[0] // 4
    rows, mats, buckets = [], [], {}
    for level in reduced_word_levels(maxlen, genus):
        level = level[conjugacy_class_mask(level, genus)]
        n, length = level.shape
        rolled = np.concatenate([np.roll(level, -s, axis=1)
                                 for s in range(length)])
        # rots[s, i] is the product of rotation s of class row i
        rots = compose_matrices(rolled, gens).reshape(length, n, 4)
        tr = rots[0, :, 0] + rots[0, :, 3]
        keys = np.rint(np.abs(np.stack([tr.real, tr.imag], axis=1))
                       / TRACE_BUCKET).astype(np.int64).tolist()
        keep = np.ones(n, dtype=bool)
        for i, (kr, ki) in enumerate(keys):
            near = [m for dr in (-1, 0, 1) for di in (-1, 0, 1)
                    for m in buckets.get((kr + dr, ki + di), ())]
            if near:
                # max entry gap of each rotation pair, minimized over sign
                a, b = rots[:, i, None], np.concatenate(near)[None]
                keep[i] = not (np.minimum(np.abs(a - b).max(axis=-1),
                                          np.abs(a + b).max(axis=-1))
                               <= FINGERPRINT_TOL).any()
            if keep[i]:
                buckets.setdefault((kr, ki), []).append(rots[:, i])
        rows.append(np.pad(level[keep], ((0, 0), (0, maxlen - length)),
                           constant_values=-1))
        mats.append(rots[0, keep].reshape(-1, 2, 2))
    return np.concatenate(rows), np.concatenate(mats)


def traces(mats: np.ndarray) -> np.ndarray:
    return mats[..., 0, 0] + mats[..., 1, 1]


def translation_lengths(mats: np.ndarray) -> np.ndarray:
    """Vectorized trace-based translation length (0 for non-translation types)."""
    tr = traces(mats)
    half = tr.astype(complex) / 2.0
    u = np.arccosh(half)
    ell = 2.0 * np.abs(u.real)
    # real trace with |tr| <= 2: elliptic/parabolic/identity -> 0
    real_tr = np.abs(tr.imag) <= 1e-9
    ell[real_tr & (np.abs(tr.real) <= 2.0 + 1e-9)] = 0.0
    return ell


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
    """Boundary-circle positions of real projective pairs, in turns [0, 1).

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
    the real part vanishes)."""
    flat = mats.reshape(mats.shape[0], 4)
    absf = np.abs(flat)
    signif = absf > 1e-9
    # force a pick even for near-zero rows
    signif[:, 3] |= ~signif.any(axis=1)
    first = np.argmax(signif, axis=1)
    lead = flat[np.arange(flat.shape[0]), first]
    use_imag = np.abs(lead.real) <= 1e-12 * np.abs(lead)
    key = np.where(use_imag, lead.imag, lead.real)
    sign = np.where(key < 0.0, -1.0, 1.0)
    return mats * sign[:, None, None]


def quantize_keys(mats: np.ndarray, decimals: int = 6) -> np.ndarray:
    """Integer fingerprint rows for element dedup after canonical_sign."""
    flat = mats.reshape(mats.shape[0], 4)
    parts = np.stack([flat.real, flat.imag], axis=-1).reshape(mats.shape[0], 8)
    return np.round(parts * (10.0 ** decimals)).astype(np.int64)


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

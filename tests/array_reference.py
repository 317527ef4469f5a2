"""The batch kernels of limit-set sampling, the spiral-witness search and
the class table as they were before they moved to NumPy's contiguous and
SIMD paths, kept as bit-for-bit references.

No command needs them.  The package now forms products on contiguous
planes (``_wordarrays._plane_products``), solves real fixed points in
float64, merges the sample with the default sort and ``reduceat``,
repairs ties of the default sort instead of sorting stably, builds CSV
word text from a byte table, takes rotations as slices of a doubled row,
and forms the relator-swap images of a class row only where a
rotation's prefix is a swap key.  Each of these
must write what the formulas below write, byte for byte.

The float64 bound on a certificate pair's ratio (ratio_bounds) once ran
between the certificate scan's float32 screen and its exact ratios.  It
is kept as an oracle: it is at least the exact ratio, and the screen
keeps every pair whose bound reaches the best ratio.
"""

import numpy as np

from qfcert import _wordarrays as wa
from qfcert._wordarrays import NAMES, RELATOR
from qfcert.certificates import _BOUND_SLACK, _MIN_BOUNDED_LENGTH

_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _plus(p0, p1):
    p0 += 0.0
    p0 += p1
    return p0


def strided_times(m, g):
    """2x2 products formed on the strided real and imaginary views of
    the complex arrays, entry (i, k) as (0.0 + m_i0 g_0k) + m_i1 g_1k."""
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


def plane_times(m, g):
    """2x2 products m[..., :, :] @ g[..., :, :], broadcast over the
    leading axes, by wa._plane_products on the planes (wa._planes) of m
    and g.  Real m and g give a float64 result."""
    cplx = np.iscomplexobj(m) or np.iscomplexobj(g)
    out = np.empty(np.broadcast_shapes(m.shape, g.shape),
                   dtype=complex if cplx else np.float64)
    flat = out.view(np.float64).reshape(*out.shape[:-2], 8 if cplx else 4)
    wa._plane_products(wa._planes(m, cplx), wa._planes(g, cplx),
                       np.moveaxis(flat, -1, 0))
    return out


def strided_compose(words, gen_mats):
    """Products of -1-padded rank rows, column by column, by fancy
    indexing and strided_times."""
    m = gen_mats[words[:, 0]]
    for j in range(1, words.shape[1]):
        live = words[:, j] >= 0
        if live.all():
            m = strided_times(m, gen_mats[words[:, j]])
        else:
            m[live] = strided_times(m[live], gen_mats[words[live, j]])
    return m


def stacked_fixed_pairs(mats):
    """Attracting fixed pairs from stacked eigenvector candidates, always
    in complex arithmetic."""
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


def stable_first_rows(key):
    """The first row of each run of equal keys in a stable sort, in
    ascending order."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = order[head]
    first.sort()
    return first


def joined_word_texts(ranks):
    """Each -1-padded rank row's names joined by spaces, row by row."""
    return [" ".join(NAMES[r] for r in row if r >= 0)
            for row in ranks.tolist()]


def rolled_class_mask(words):
    """conjugacy_class_mask with each rotation made by np.roll."""
    mask = words[:, 0] != wa.INVERSE[words[:, -1]]
    own = wa._pack(words)
    best = own.copy()
    for shift in range(1, words.shape[1]):
        np.minimum(best, wa._pack(np.roll(words, -shift, axis=1)), out=best)
    return mask & (own == best)


def swap_images(w, swaps):
    """The least rotations of the words r t that swaps make of the rank
    tuple w, for each rotation s t of w with s a key of swaps."""
    return [min(v[q:] + v[:q] for q in range(len(v)))
            for u in (w[p:] + w[:p] for p in range(len(w)))
            for k in range(len(RELATOR) // 2, len(w) + 1)
            for v in (r + u[k:] for r in swaps.get(u[:k], ()))]


def swap_loop_classes(maxlen, *gens):
    """The class table with the swap images of every rotation class
    formed in turn, each checked against the rows kept before it."""
    swaps, kept, rows, mats = wa._relator_swaps(), set(), [], []
    for chunk, products in wa.normal_forms(gens, maxlen, wa.free_acceptor()):
        pick = np.flatnonzero(rolled_class_mask(chunk))
        keep = np.ones(len(pick), dtype=bool)
        for i, w in enumerate(map(tuple, chunk[pick].tolist())):
            keep[i] = kept.isdisjoint(map(bytes, swap_images(w, swaps)))
            if keep[i]:
                kept.add(bytes(w))
        pick = pick[keep]
        rows.append(np.pad(chunk[pick], ((0, 0), (0, maxlen - chunk.shape[1])),
                           constant_values=-1))
        mats.append([p[pick] for p in products])
    return np.concatenate(rows), *map(np.concatenate, zip(*mats))


# the double rounding unit
_U = 2.0 ** -53


def ratio_bounds(table, ell, norm, first, second):
    """Upper bounds on _pair_ratios at (first[k], second[k]); +inf where
    the lower bound on l(ab) is under _MIN_BOUNDED_LENGTH.  norm holds
    the Frobenius norms of the class products.

    The trace t = sum_ij A_ij B_ji is summed here as four elementwise
    products.  A complex product errs by at most sqrt(2) gamma_2 |x||y|
    and a sum of four terms in any order by gamma_3 times their sum of
    moduli, so this trace and the fixed-order one of _pair_ratios each
    lie within 6u sum |A_ij||B_ji| <= 6u |A|_F |B|_F of the exact
    trace.  With z = t / 2,

        s(z) = (|z + 1| + |z - 1|) / 2 = cosh(Re arccosh z),

    and s is 1-Lipschitz, so s at the trace of _pair_ratios is at least
    this s minus 6u |A|_F |B|_F and its own rounding (5u s); s_lo subtracts
    8u (s + |A|_F |B|_F), which also covers the rounding of the norms.
    l(ab) >= 2 arccosh(s_lo) then bounds the exact l(ab) from below.
    Both sides share the numerator l(a) + l(b), rounded once; the bound
    adds _BOUND_SLACK for the arccosh evaluations and the divisions.  A
    length computed through s with relative error u errs by about
    2u / l^2 relative, at most 2^7 u for l >= _MIN_BOUNDED_LENGTH, so
    the slack of 2^13 u leaves room for library arccosh errors of
    thousands of ulps.
    """
    a00, a01, a10, a11 = (table[i, j].take(first) for i in (0, 1)
                          for j in (0, 1))
    b00, b01, b10, b11 = (table[i, j].take(second) for i in (0, 1)
                          for j in (0, 1))
    z = (a00 * b00 + a01 * b10 + a10 * b01 + a11 * b11) / 2.0
    s = (np.abs(z + 1.0) + np.abs(z - 1.0)) / 2.0
    s_lo = s - 8.0 * _U * (s + norm[first] * norm[second])
    ell_lo = 2.0 * np.arccosh(np.maximum(s_lo, 1.0))
    ok = ell_lo >= _MIN_BOUNDED_LENGTH
    return np.where(ok, (ell[first] + ell[second]) * (1.0 + _BOUND_SLACK)
                    / np.where(ok, ell_lo, 1.0), np.inf)

"""The contiguous batch kernels of sampling, the witness search and the
class table write what their references in array_reference.py write,
byte for byte: plane products, the float64 fixed points, the
tie-repairing sort, the sample's merge, the CSV word text and the class
table's relator swaps."""

import warnings

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert import boundary
from qfcert.check import reference_representation
from qfcert.representations import bend, fuchsian_octagon

from array_reference import (
    joined_word_texts,
    plane_times,
    rolled_class_mask,
    stable_first_rows,
    stacked_fixed_pairs,
    strided_compose,
    strided_times,
    swap_images,
    swap_loop_classes,
)


def same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def padded(chunks, maxlen):
    return np.concatenate([np.pad(rows, ((0, 0), (0, maxlen - rows.shape[1])),
                                  constant_values=-1) for rows in chunks])


def reference_real():
    return wa.exact_real(reference_representation().generator_matrix_array())


class TestPlaneProducts:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 0.6, 1.0])
    def test_walk_and_compose_equal_strided_products(self, angle, real):
        gens = bend(fuchsian_octagon(), angle).generator_matrix_array()
        if real:
            gens = np.ascontiguousarray(gens.real)
        chunks = []
        for rows, (mats,) in wa.normal_forms((gens,), 6):
            assert same_bytes(mats, strided_compose(rows, gens))
            chunks.append(rows)
        rows = padded(chunks, 6)
        assert same_bytes(wa.compose_matrices(rows, gens),
                          strided_compose(rows, gens))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_times_broadcasts_as_the_strided_products(self, real):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2, 30, 1, 2, 2))
        g = rng.normal(size=(30, 7, 2, 2))
        if not real:
            m, g = m + 1j * rng.normal(size=m.shape), g + 1j * g[::-1]
        m[..., 0, 0] = -0.0
        assert same_bytes(plane_times(m, g), strided_times(m, g))


class TestRealFixedPairs:
    def test_equal_the_complex_path_to_maxlen_7(self):
        # the real parts bit for bit, signed zeros included; the complex
        # path's imaginary parts are all +0.0
        for _, (mats,) in wa.normal_forms((reference_real(),), 7):
            want = stacked_fixed_pairs(mats)
            assert not want.imag.any() and not np.signbit(want.imag).any()
            assert same_bytes(wa.attracting_fixed_pairs(mats),
                              np.ascontiguousarray(want.real))

    def test_repelling_pairs_equal_the_complex_path(self):
        for _, (mats,) in wa.normal_forms((reference_real(),), 5):
            inv = np.empty_like(mats)
            inv[:, 0, 0], inv[:, 1, 1] = mats[:, 1, 1], mats[:, 0, 0]
            inv[:, 0, 1], inv[:, 1, 0] = -mats[:, 0, 1], -mats[:, 1, 0]
            want = np.ascontiguousarray(stacked_fixed_pairs(inv).real)
            assert same_bytes(wa.repelling_fixed_pairs(mats), want)

    def test_complex_branch_equals_the_stacked_pairs(self):
        gens = bend(fuchsian_octagon(), 0.6).generator_matrix_array()
        for _, (mats,) in wa.normal_forms((gens,), 6):
            assert same_bytes(wa.attracting_fixed_pairs(mats),
                              stacked_fixed_pairs(mats))

    def test_warns_of_nothing_more_than_the_complex_path(self):
        # the elliptic first generator of test_dropped_rows_are_left_out:
        # its square is -I, and many of its normal forms do not translate
        ref = reference_real().copy()
        ref[0], ref[4] = [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]
        mats = np.concatenate([m for _, (m,) in wa.normal_forms((ref,), 4)])
        assert not wa.translating(wa.traces(mats)).all()
        caught = []
        for solve in (stacked_fixed_pairs, wa.attracting_fixed_pairs):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                solve(mats)
            caught.append({(w.category, str(w.message)) for w in seen})
        assert caught[1] <= caught[0]


class TestStableArgsort:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_stable_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = 5000
        keys = rng.integers(0, [3, 40, 700, 5000, 1, 2][seed], n).astype(float)
        special = rng.random(n)
        keys[special < 0.1] = 0.0
        keys[(special >= 0.1) & (special < 0.2)] = -0.0
        if seed % 2:
            keys[(special >= 0.2) & (special < 0.3)] = np.nan
            keys[(special >= 0.3) & (special < 0.35)] = -np.inf
        assert np.array_equal(boundary.stable_argsort(keys),
                              np.argsort(keys, kind="stable"))

    def test_distinct_and_empty_keys(self):
        keys = np.random.default_rng(9).random(1000)
        for k in (keys, keys[:1], keys[:0]):
            assert np.array_equal(boundary.stable_argsort(k),
                                  np.argsort(k, kind="stable"))


class TestSampleMerge:
    def test_first_rows_equal_the_stable_sort_merge(self):
        angles = boundary.limit_set_sample(
            bend(fuchsian_octagon(), 0.6), 5).angles
        # 3-digit keys, the sample twice over, and signed zeros and nans
        # force runs of equal keys
        angles = np.round(np.concatenate([angles, angles[::-1]]), 3)
        angles[::97], angles[1::89], angles[2::83] = 0.0, -0.0, np.nan
        first = boundary._first_rows(angles)
        assert first.size < angles.size // 2
        assert same_bytes(first, stable_first_rows(np.round(angles, 12)))
        for a in (angles[:1], angles[:0]):
            assert same_bytes(boundary._first_rows(a),
                              stable_first_rows(np.round(a, 12)))


class TestWordTexts:
    def test_equal_the_joined_names(self):
        ranks = boundary.limit_set_sample(
            bend(fuchsian_octagon(), 0.6), 4).ranks
        assert (ranks < 0).any()
        assert wa.word_texts(ranks) == joined_word_texts(ranks)

    def test_one_letter_rows(self):
        ranks = np.arange(8, dtype=np.int8)[:, None]
        assert wa.word_texts(ranks) == joined_word_texts(ranks) \
            == list(wa.NAMES)


class TestClassTableSwaps:
    """The class table forms swap images only for its hit rows."""

    @pytest.mark.parametrize("arrays", [1, 2])
    @pytest.mark.parametrize("maxlen", range(1, 7))
    def test_equals_the_swap_loop(self, maxlen, arrays):
        gens = (bend(fuchsian_octagon(), 0.6).generator_matrix_array(),
                wa.exact_real(reference_representation()
                              .generator_matrix_array()))[:arrays]
        got = wa.conjugacy_classes(maxlen, *gens)
        want = swap_loop_classes(maxlen, *gens)
        assert len(got) == len(want) == 1 + arrays
        for g, w in zip(got, want):
            assert same_bytes(g, w)

    @pytest.mark.parametrize("maxlen,hits,candidates", [
        (3, 0, 160), (4, 16, 780), (5, 96, 4148), (6, 684, 23836)])
    def test_hit_rows_are_the_rows_with_swap_images(self, maxlen, hits,
                                                    candidates):
        swaps = wa._relator_swaps()
        n_hits = n_candidates = 0
        for chunk, _ in wa.normal_forms((), maxlen, wa.free_acceptor()):
            mask = wa.conjugacy_class_mask(chunk)
            assert same_bytes(mask, rolled_class_mask(chunk))
            words = chunk[mask]
            hit = wa._swap_hits(words, swaps)
            assert hit.tolist() == [bool(swap_images(w, swaps))
                                    for w in map(tuple, words.tolist())]
            n_hits += int(hit.sum())
            n_candidates += len(words)
        assert (n_hits, n_candidates) == (hits, candidates)

"""Tests for words, Dehn reduction, and enumeration in surface groups."""

import itertools
import math
import re

import numpy as np
import pytest

from qfcert import _wordarrays as wa
from qfcert.moebius import MoebiusMap
from qfcert.surface_group import (
    RELATOR_WORD,
    Word,
    WordError,
    enumerate_words,
    free_reduce_letters,
    word_from_text,
    word_to_text,
)

from word_reference import (
    are_equal,
    dehn_reduce,
    is_identity,
    is_reduced,
    reduced_word_levels,
    relator_cycles,
)


# Word-at-a-time references for the rank-array enumerator: shortlex
# order on letters, cyclic reduction and the least rotation.

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


class TestWord:
    def test_free_reduction(self):
        assert free_reduce_letters((1, -1, 2)) == (2,)
        assert free_reduce_letters((1, 2, -2, -1)) == ()
        assert is_reduced(Word((1, 2)))
        assert not is_reduced(Word((1, -1)))

    def test_zero_letter_rejected(self):
        with pytest.raises(WordError):
            Word((1, 0, 2))

    def test_product_reduces(self):
        u = Word((1, 2))
        v = Word((-2, 3))
        assert (u * v).letters == (1, 3)
        assert (u * u.inverse()).letters == ()

    def test_inverse(self):
        w = Word((1, -2, 3))
        assert w.inverse().letters == (-3, 2, -1)
        assert (w * w.inverse()).letters == ()

    def test_pow(self):
        w = Word((1, 2))
        assert (w ** 3).letters == (1, 2, 1, 2, 1, 2)
        assert (w ** 0).letters == ()
        assert (w ** -2).letters == (-2, -1, -2, -1)
        # random words, unreduced and cyclically cancelling, against the
        # n-fold product of w (or of its inverse for n < 0)
        rng = np.random.default_rng(25)
        letters = [1, 2, 3, 4, -1, -2, -3, -4]
        for _ in range(200):
            w = Word(tuple(rng.choice(letters, size=rng.integers(0, 9))))
            for n in range(-6, 7):
                expected = Word()
                for _ in range(abs(n)):
                    expected = expected * (w if n > 0 else w.inverse())
                assert (w ** n).letters == expected.letters

    def test_cyclic_reduce(self):
        assert cyclic_reduce(Word((-3, 1, 2, 3))).letters == (1, 2)
        assert cyclic_reduce(Word((1, 2, -1))).letters == (2,)
        assert cyclic_reduce(Word((1, 2))).letters == (1, 2)

    def test_rotations_and_min(self):
        w = Word((2, 1, 3))
        rots = [r.letters for r in rotations(w)]
        assert rots == [(2, 1, 3), (1, 3, 2), (3, 2, 1)]
        assert shortlex_min_rotation(w).letters == (1, 3, 2)

    def test_shortlex_order(self):
        # length dominates; then positives a1 < b1 < a2 < b2 before inverses
        ordered = [Word(t) for t in [(1,), (2,), (-1,), (1, 1), (1, -2)]]
        keys = [shortlex_key(w) for w in ordered]
        assert keys == sorted(keys)


class TestTextForm:
    def test_roundtrip(self):
        w = word_from_text("a1 B1 a2")
        assert w.letters == (1, -2, 3)
        assert word_to_text(w) == "a1 B1 a2"

    def test_empty(self):
        assert word_to_text(Word(())) == ""
        assert word_from_text("").letters == ()

    def test_bad_tokens(self):
        # int() would read a01 as a1 and the digits U+0662 and U+FF11 as
        # 2 and 1; only the eight names are tokens
        for text in ["x1", "a3", "a0", "a1b1", "a", "a01", "a1 a\u0662",
                     "B\uff11", "b+1", "A-1"]:
            with pytest.raises(WordError, match="bad letter token"):
                word_from_text(text)

    @pytest.mark.parametrize("tok", ["a01", "a\u0662", "B\uff11"],
                             ids=["leading-zero", "arabic-indic-digit",
                                  "fullwidth-digit"])
    def test_lookalike_token_is_named(self, tok):
        # each of these parses to a name under int(); the refusal quotes
        # the token as written
        with pytest.raises(WordError, match=re.escape(repr(tok))):
            word_from_text("a1 %s b2" % tok)

    def test_alphabet_round_trip(self):
        # rank -> letter -> name -> from_text -> rank, for every rank
        for rank, (letter, name) in enumerate(zip(wa.LETTERS, wa.NAMES)):
            assert word_to_text(Word((letter,))) == name
            (back,) = word_from_text(name).letters
            assert wa.LETTERS.index(back) == rank
            assert wa.LETTERS[wa.INVERSE[rank]] == -letter
        assert sorted(wa.LETTERS) == [-4, -3, -2, -1, 1, 2, 3, 4]
        assert (wa.INVERSE[wa.INVERSE] == np.arange(8)).all()
        assert (wa.INVERSE != np.arange(8)).all()

    def test_out_of_range_letters(self):
        with pytest.raises(WordError):
            word_to_text(Word((5,)))

    def test_every_short_reduced_word_round_trips(self):
        words = list(enumerate_words(3, "reduced"))
        assert len(words) == 8 + 8 * 7 + 8 * 7 * 7
        for w in words:
            assert word_from_text(word_to_text(w)) == w


class TestPresentation:
    def test_relator(self):
        r = RELATOR_WORD
        assert word_to_text(r) == "a1 b1 A1 B1 a2 b2 A2 B2"
        assert len(r) == 8

    def test_small_cancellation_pieces(self):
        # all 16 length-2 subwords of relator rotations are distinct, the
        # condition that makes greedy Dehn reduction a decision procedure
        pieces = set()
        for cyc in relator_cycles():
            pieces.add(cyc[:2])
        assert len(pieces) == 16

    def test_relator_reduces_to_identity(self):
        assert is_identity(RELATOR_WORD)
        assert is_identity(RELATOR_WORD.inverse())
        assert is_identity(Word(()))

    def test_rotated_relator_is_identity(self):
        r = RELATOR_WORD
        for rot in rotations(r):
            assert is_identity(rot)

    def test_conjugated_relator_products(self):
        rng = np.random.default_rng(97)
        r = RELATOR_WORD
        alphabet = wa.LETTERS
        for _ in range(20):
            picks = rng.integers(0, len(alphabet), size=6)
            u = Word(tuple(alphabet[i] for i in picks[:3]))
            v = Word(tuple(alphabet[i] for i in picks[3:]))
            w = (u * r * u.inverse()) * (v * r.inverse() * v.inverse())
            assert is_identity(w)

    def test_generators_not_identity(self):
        for x in wa.LETTERS:
            assert not is_identity(Word((x,)))

    def test_long_prefix_rewrites_to_short_complement(self):
        # first 7 letters of the relator equal the inverse of the last letter
        r = RELATOR_WORD.letters
        prefix = Word(r[:7])
        assert are_equal(prefix, Word((-r[7],)))
        reduced = dehn_reduce(prefix)
        assert len(reduced) == 1

    def test_dehn_reduce_never_grows(self):
        rng = np.random.default_rng(101)
        alphabet = wa.LETTERS
        for _ in range(50):
            n = int(rng.integers(1, 12))
            w = Word(tuple(alphabet[i] for i in rng.integers(0, 8, size=n)))
            red = dehn_reduce(w)
            assert len(red) <= len(free_reduce_letters(w.letters))

    def test_are_equal_modulo_relator_insertion(self):
        rng = np.random.default_rng(103)
        alphabet = wa.LETTERS
        r = RELATOR_WORD
        for _ in range(20):
            n = int(rng.integers(2, 8))
            letters = tuple(alphabet[i] for i in rng.integers(0, 8, size=n))
            w = Word(letters)
            cut = int(rng.integers(0, n))
            stuffed = Word(letters[:cut]) * r * Word(letters[cut:])
            assert are_equal(w, stuffed)
            assert not are_equal(w, w * Word((1,)))


class TestEnumeration:
    def test_reduced_counts(self):
        words = list(enumerate_words(3, mode="reduced"))
        by_len = {}
        for w in words:
            by_len.setdefault(len(w), []).append(w)
        assert len(by_len[1]) == 8
        assert len(by_len[2]) == 8 * 7
        assert len(by_len[3]) == 8 * 7 * 7
        assert all(is_reduced(w) for w in words)

    def test_reduced_order(self):
        words = list(enumerate_words(2, mode="reduced"))
        texts = [word_to_text(w) for w in words[:10]]
        assert texts == ["a1", "b1", "a2", "b2", "A1", "B1", "A2", "B2", "a1 a1", "a1 b1"]
        keys = [shortlex_key(w) for w in words]
        assert keys == sorted(keys)

    def test_conjugacy_rotation_classes(self):
        # length 1: all 8 letters; length 2: 8 squares + 24 mixed classes
        reps = list(enumerate_words(2, mode="conjugacy"))
        assert len([w for w in reps if len(w) == 1]) == 8
        assert len([w for w in reps if len(w) == 2]) == 32
        for w in reps:
            assert cyclic_reduce(w).letters == w.letters
            assert shortlex_min_rotation(w).letters == w.letters

    def test_conjugacy_with_matrix_filter(self):
        # a random generator array: words this short hold no relator
        # swap, so the class table keeps every rotation class
        rng = np.random.default_rng(107)
        gens = {}
        for x in (1, 2, 3, 4):
            vals = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = MoebiusMap(vals[0, 0] + 3, vals[0, 1], vals[1, 0], vals[1, 1] + 3)
            gens[x] = m
            gens[-x] = m.inverse()
        gen_array = np.array([[[gens[x].a, gens[x].b], [gens[x].c, gens[x].d]]
                              for x in wa.LETTERS])

        plain = [w.letters for w in enumerate_words(2, mode="conjugacy")]
        rows, _ = wa.conjugacy_classes(2, gen_array)
        assert [wa.ranks_to_letters(row) for row in rows] == plain

    def test_unknown_mode(self):
        with pytest.raises(WordError):
            list(enumerate_words(2, mode="woof"))


def brute_force_reduced(maxlen: int) -> list[Word]:
    """Every freely reduced word up to maxlen, sorted by shortlex_key."""
    words = (Word(t) for n in range(1, maxlen + 1)
             for t in itertools.product(wa.LETTERS, repeat=n))
    return sorted((w for w in words if is_reduced(w)), key=shortlex_key)


class TestEnumerationParity:
    """The rank-array enumerator against product-and-filter references."""

    def test_reduced_matches_brute_force(self):
        assert list(enumerate_words(4, mode="reduced")) \
            == brute_force_reduced(4)

    def test_conjugacy_matches_rotation_filter(self):
        expected = [w for w in brute_force_reduced(5)
                    if cyclic_reduce(w) == w and shortlex_min_rotation(w) == w]
        assert list(enumerate_words(5, mode="conjugacy")) == expected

    def test_cumulative_rotation_class_counts(self):
        words = list(enumerate_words(5, mode="conjugacy"))
        counts = [sum(len(w) <= n for w in words) for n in range(1, 6)]
        assert counts == [8, 40, 160, 780, 4148]

    def test_zero_maxlen_yields_nothing(self):
        assert list(enumerate_words(0, mode="reduced")) == []
        assert list(enumerate_words(0, mode="conjugacy")) == []


class TestJoinRows:
    """wa.join_rows against free_reduce_letters on every pair of reduced
    words up to length 2 and up to length 3."""

    @staticmethod
    def _padded_words(maxlen):
        return np.concatenate([
            np.pad(level, ((0, 0), (0, maxlen - level.shape[1])),
                   constant_values=-1)
            for level in reduced_word_levels(maxlen)])

    @pytest.mark.parametrize("maxlen", [2, 3])
    def test_matches_free_reduction(self, maxlen):
        words = self._padded_words(maxlen)
        letters = [wa.ranks_to_letters(row) for row in words]
        ii, jj = np.divmod(np.arange(words.shape[0] ** 2), words.shape[0])
        # each pair is joined twice, once per orientation of the left
        # factor, with the inverted rows interleaved with plain ones
        flip = ii % 2 == jj % 2
        swallowed = {"left": 0, "right": 0}
        for invert in (flip, ~flip):
            out = wa.join_rows(words[ii], words[jj], invert)
            assert out.shape == (ii.size, 2 * maxlen)
            assert out.dtype == np.int8
            for i, j, inv, row in zip(ii.tolist(), jj.tolist(),
                                      invert.tolist(), out.tolist()):
                left, right = letters[i], letters[j]
                if inv:
                    left = tuple(-x for x in reversed(left))
                want = free_reduce_letters(left + right)
                assert row[len(want):] == [-1] * (len(row) - len(want))
                assert tuple(wa.LETTERS[r] for r in row[:len(want)]) == want
                if len(want) == len(right) - len(left):
                    swallowed["left"] += 1
                if len(want) == len(left) - len(right):
                    swallowed["right"] += 1
        # a whole factor cancels into the other one, on either side
        assert min(swallowed.values()) > words.shape[0]

    def test_empty_product_is_all_padding(self):
        words = self._padded_words(3)
        out = wa.join_rows(words, words, np.ones(words.shape[0], bool))
        assert (out == -1).all()

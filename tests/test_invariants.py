import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luequiv as lq
from luequiv.errors import IndexOutOfRange, PatternMismatch
from luequiv import invariants
from luequiv.invariants import (
    Word,
    _batch_word_values,
    _block_key,
    _canonical_letter_arrays,
    _right_to_left_index,
    _word_key,
    count_balanced_words,
    cycle_type_representatives,
    fingerprint_from_decomposition,
)
from luequiv.states import decomposition_from_coeffs, remix_block

from conftest import bell_density, orbit_pair, unit


def brute_balanced_words(n, max_len):
    """Independent enumeration: all letter tuples, balance filter, cyclic
    dedup by explicit rotation."""
    seen = set()
    out = []
    for length in range(1, max_len + 1):
        for letters in itertools.product(
            itertools.product(range(1, n + 1), repeat=2), repeat=length
        ):
            count = {}
            for i, j in letters:
                count[i] = count.get(i, 0) + 1
                count[j] = count.get(j, 0) - 1
            if any(v != 0 for v in count.values()):
                continue
            canon = min(letters[r:] + letters[:r] for r in range(length))
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    return out


def brute_block_sum(sd, block, pattern, side):
    """Literal sum over all index assignments, matrix products in a loop."""
    tau = len(pattern)
    total = 0.0 + 0.0j
    for f in itertools.product(block, repeat=tau):
        m = np.eye(sd.dim_local, dtype=complex)
        for s in range(tau):
            a = sd.coeff_matrices[f[s]]
            b = sd.coeff_matrices[f[pattern[(s + 1) % tau]]]
            m = m @ (a @ b.conj().T if side == "L" else a.conj().T @ b)
        total += np.trace(m)
    return total


class TestPowerTraces:
    def test_maximally_mixed(self):
        rho = lq.validate_density(np.eye(4, dtype=complex) / 4, 2)
        np.testing.assert_allclose(
            lq.power_traces(rho), [4.0 ** (1 - s) for s in range(1, 5)], atol=1e-12
        )

    def test_pure_states(self):
        for seed in range(3):
            rho = lq.random_density(2, 1, seed=seed)
            np.testing.assert_allclose(lq.power_traces(rho), np.ones(4), atol=1e-12)

    def test_rank_two_flat_spectrum(self, diag_half_pair):
        for rho in diag_half_pair:
            np.testing.assert_allclose(
                lq.power_traces(rho), [2.0 ** (1 - s) for s in range(1, 5)], atol=1e-12
            )

    def test_nonincreasing(self):
        rho = lq.random_density(3, 6, seed=3)
        js = lq.power_traces(rho)
        assert np.all(np.diff(js) <= 1e-12)

    def test_equal_to_per_power_sums_bit_for_bit(self):
        # N = 1..6, every rank; diagonal states keep exactly degenerate
        # spectra and eigenvalues of about -1e-17, rotated ones the
        # eigensolver's rounding; the square row is the one pow() moves
        rng = np.random.default_rng(40)
        for n in range(1, 7):
            nn = n * n
            for rank in range(1, nn + 1):
                weights = rng.dirichlet(np.ones(rank))
                flat = np.repeat(weights[: (rank + 1) // 2], 2)[:rank]
                for w in (weights, flat / flat.sum()):
                    lams = np.zeros(nn)
                    lams[:rank] = w
                    lams[rank:] = -1e-17 * rng.random(nn - rank)
                    v = lq.haar_unitary(nn, rng)
                    for m in (np.diag(lams), v @ np.diag(lams) @ v.conj().T):
                        rho = lq.validate_density(m, n)
                        ev = np.linalg.eigvalsh(rho.matrix)
                        loop = np.array([float(np.sum(ev**s)) for s in range(1, nn + 1)])
                        assert np.array_equal(lq.power_traces(rho), loop), (n, rank)

    def test_first_mismatch_is_named(self):
        ja = np.array([1.0, 0.5, 0.3, 0.2, 0.1])
        jb = ja.copy()
        assert invariants.power_trace_mismatch(ja, jb, 1e-8) is None
        jb[[2, 4]] += 1e-6
        assert invariants.power_trace_mismatch(ja, jb, 1e-8) == (
            "power_trace", "J^3", complex(ja[2]), complex(jb[2])
        )
        # relative above magnitude one, absolute below, as values_close
        big = np.array([1e4, 1.0])
        assert invariants.power_trace_mismatch(big, big + [5e-5, 0.0], 1e-8) is None
        assert invariants.power_trace_mismatch(big, big + [2e-4, 0.0], 1e-8)[1] == "J^1"

    def test_values_close_is_elementwise(self):
        a = np.array([1e4, 1.0, 0.5, np.nan])
        b = a + [5e-5, 2e-8, 0.0, 0.0]
        want = [True, False, True, False]  # NaN is close to nothing
        np.testing.assert_array_equal(invariants.values_close(a, b, 1e-8), want)
        assert [bool(invariants.values_close(x, y, 1e-8)) for x, y in zip(a, b)] == want


class TestWordTrace:
    def test_normalization_words(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=11))
        for i in range(1, sd.rank + 1):
            for side in ("L", "R"):
                val = lq.word_trace(sd, Word(side, ((i, i),)))
                assert abs(val - 1.0) < 1e-10

    def test_bell_square(self):
        sd = lq.spectral_decompose(bell_density())
        val = lq.word_trace(sd, Word("L", ((1, 1), (1, 1))))
        assert abs(val - 0.5) < 1e-12

    def test_degenerate_diag_summands(self, diag_half_decompositions):
        sd, _ = diag_half_decompositions
        expected = {
            ((1, 1), (1, 1)): 1.0,
            ((1, 2), (2, 1)): 0.0,
            ((2, 1), (1, 2)): 0.0,
            ((2, 2), (2, 2)): 1.0,
        }
        for letters, want in expected.items():
            assert abs(lq.word_trace(sd, Word("L", letters)) - want) < 1e-14

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(12)
        sd = lq.spectral_decompose(lq.random_density(2, 4, seed=13))
        for _ in range(20):
            length = int(rng.integers(1, 5))
            letters = tuple(
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(length)
            )
            r = int(rng.integers(0, length))
            rotated = letters[r:] + letters[:r]
            for side in ("L", "R"):
                a = lq.word_trace(sd, Word(side, letters))
                b = lq.word_trace(sd, Word(side, rotated))
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_conjugation_symmetry(self):
        sd = lq.spectral_decompose(lq.random_density(2, 4, seed=14))
        rng = np.random.default_rng(15)
        for _ in range(20):
            length = int(rng.integers(1, 5))
            letters = tuple(
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(length)
            )
            flipped = tuple((j, i) for i, j in reversed(letters))
            for side in ("L", "R"):
                a = lq.word_trace(sd, Word(side, letters))
                b = lq.word_trace(sd, Word(side, flipped))
                assert abs(a - np.conj(b)) <= 1e-12 * max(1.0, abs(a))

    def test_index_out_of_range(self):
        sd = lq.spectral_decompose(lq.random_density(2, 2, seed=16))
        with pytest.raises(IndexOutOfRange):
            lq.word_trace(sd, Word("L", ((1, 3),)))


def canonical_words(n, max_len, arrays=_canonical_letter_arrays):
    """The rows of ``arrays`` (the canonical letter arrays) up to ``max_len``
    as 1-based letter tuples, by length."""
    return [
        tuple((int(i) + 1, int(j) + 1) for i, j in row)
        for length in range(1, max_len + 1)
        for row in arrays(n, length)
    ]


# a balanced word pairs a left index sequence with a permutation of it
balanced_letters = st.lists(st.integers(1, 3), min_size=1, max_size=5).flatmap(
    lambda left: st.permutations(left).map(lambda right: tuple(zip(left, right)))
)


class TestWordCanonical:
    @given(balanced_letters)
    @settings(max_examples=100, deadline=None)
    def test_canonical_is_rotation_invariant(self, letters):
        # of all rotations of a balanced word, exactly its least one is canonical
        rotations = {letters[r:] + letters[:r] for r in range(len(letters))}
        canonical = set(canonical_words(3, len(letters)))
        assert rotations & canonical == {min(rotations)}

    def test_key_format(self):
        assert Word("L", ((1, 1), (2, 2))).key() == "L:(1,1)(2,2)"


class TestEnumerateBalanced:
    def test_single_index(self):
        assert canonical_words(1, 3) == [
            ((1, 1),),
            ((1, 1), (1, 1)),
            ((1, 1), (1, 1), (1, 1)),
        ]

    def test_length_one_excludes_unbalanced(self):
        assert canonical_words(2, 1) == [((1, 1),), ((2, 2),)]

    @pytest.mark.parametrize("n,max_len", [(2, 3), (3, 2)])
    def test_matches_brute_force(self, n, max_len):
        got = set(canonical_words(n, max_len))
        want = set(brute_balanced_words(n, max_len))
        assert got == want

    @pytest.mark.parametrize("n,length", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_count_formula(self, n, length):
        brute = 0
        for letters in itertools.product(
            itertools.product(range(n), repeat=2), repeat=length
        ):
            left = sorted(l for l, _ in letters)
            right = sorted(r for _, r in letters)
            brute += left == right
        assert count_balanced_words(n, length) == brute

    def test_deterministic(self):
        a = canonical_words(3, 3)
        assert canonical_words(3, 3, _canonical_letter_arrays.__wrapped__) == a
        assert all(Word("L", w).is_balanced() for w in a)


class TestCanonicalWordCache:
    def test_read_only(self):
        arr = _canonical_letter_arrays(3, 3)
        assert arr.dtype == np.uint8
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1

    @pytest.mark.parametrize("n,length", [(1, 3), (2, 4), (3, 3), (4, 2)])
    def test_matches_uncached(self, n, length):
        cached = _canonical_letter_arrays(n, length)
        assert _canonical_letter_arrays(n, length) is cached
        np.testing.assert_array_equal(cached, _canonical_letter_arrays.__wrapped__(n, length))

    def test_enumeration_order_unchanged(self):
        # by length, then lexicographically in the letters (packed-code order)
        want = sorted(brute_balanced_words(3, 3), key=lambda w: (len(w), w))
        for _ in range(2):
            assert canonical_words(3, 3) == want


def all_pairs_letter_arrays(n, length):
    """Reference enumeration: every balanced (left, right) pair of index
    sequences, deduplicated by least cyclic rotation with np.unique."""
    groups = {}
    for seq in itertools.product(range(n), repeat=length):
        groups.setdefault(tuple(sorted(seq)), []).append(seq)
    lefts, rights = [], []
    for key in sorted(groups):
        perms = np.array(groups[key], dtype=np.int64)
        lefts.append(np.repeat(perms, perms.shape[0], axis=0))
        rights.append(np.tile(perms, (perms.shape[0], 1)))
    base = n * n
    canon = _unpack(
        np.unique(_least_rotations(np.concatenate(lefts) * n + np.concatenate(rights), base)),
        base,
        length,
    )
    out = np.stack([canon // n, canon % n], axis=2).astype(np.min_scalar_type(n - 1))
    out.flags.writeable = False
    return out


def all_pairs_right_to_left(n, length):
    """Reference right-to-left index: re-canonicalise both sides, then search."""
    arr = all_pairs_letter_arrays(n, length).astype(np.int64)
    i, j = arr[:, :, 0], arr[:, :, 1]
    base = n * n
    rows = _least_rotations(i * n + j, base)
    return np.searchsorted(rows, _least_rotations(j * n + np.roll(i, -1, axis=1), base))


def _least_rotations(codes, base):
    length = codes.shape[1]
    powers = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return np.min([np.roll(codes, -r, axis=1) @ powers for r in range(length)], axis=0)


def _unpack(packed, base, length):
    powers = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return packed[:, None] // powers % base


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestCanonicalEnumeration:
    """The per-group enumeration against the all-pairs one it replaced.

    (6, 6) is left out of the reference comparison: the all-pairs arrays
    take about 2 GB there.  It is checked by counting instead.
    """

    @pytest.mark.parametrize(
        "n,length",
        [(n, length) for n in range(1, 7) for length in range(1, 7) if (n, length) != (6, 6)]
        + [(36, 2), (36, 3), (64, 2)],
    )
    def test_matches_all_pairs(self, n, length):
        got = _canonical_letter_arrays.__wrapped__(n, length)
        want = all_pairs_letter_arrays(n, length)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
        index = _right_to_left_index.__wrapped__(n, length)
        assert index.dtype == np.intp
        np.testing.assert_array_equal(index, all_pairs_right_to_left(n, length))

    def test_largest_point_by_count(self):
        # rows strictly ascending, each balanced and its own least rotation,
        # and as many as there are rotation classes of balanced words
        # (Burnside: a rotation by r fixes the words of period gcd(r, L))
        n, length = 6, 6
        arr = _canonical_letter_arrays.__wrapped__(n, length)
        classes = sum(
            count_balanced_words(n, math.gcd(r, length)) for r in range(length)
        ) // length
        assert arr.shape == (classes, length, 2)
        np.testing.assert_array_equal(np.sort(arr[:, :, 0], 1), np.sort(arr[:, :, 1], 1))
        codes = arr[:, :, 0] * n + arr[:, :, 1]  # uint8: the 1.5M rows stay small

        def rotated(r):  # packed code of each row rotated left by r letters
            out = np.zeros(codes.shape[0], np.int64)
            for k in range(length):
                out = out * (n * n) + codes[:, (k + r) % length]
            return out

        packed = rotated(0)
        assert np.all(np.diff(packed) > 0)
        for r in range(1, length):
            assert np.all(packed <= rotated(r))

    def test_enumeration_peak_is_bounded(self):
        # traced peak on a 2-core x86-64 VM: 96.2 MB all-pairs, 4.6 MB per group
        assert traced_peak_mb(_canonical_letter_arrays.__wrapped__, 4, 6) < 24

    def test_right_to_left_peak_is_bounded(self):
        # with the enumeration cached, traced peak on a 2-core x86-64 VM:
        # 12.9 MB over all 64,576 rows at once, 2.7 MB in batches of rows
        _canonical_letter_arrays(4, 6)
        assert traced_peak_mb(_right_to_left_index.__wrapped__, 4, 6) < 6

    def test_warm_fingerprint_peak_is_bounded(self):
        # N=3 rank 6 evaluates 76,836 words of length 5; traced peak of a
        # warm call on a 2-core x86-64 VM: 35.7 MB with one W-row kernel
        # pass, 9.6 MB with blocks of _WORD_BLOCK rows
        rho = lq.random_density(3, 6, seed=7)
        lq.fingerprint(rho)
        assert traced_peak_mb(lq.fingerprint, rho) < 24


# (rank, length) pairs of the kernel sweep: odd and even splits, suffixes of
# length 1-3.  Left out for time: (5, 6) and (6, 6), with 373,645 and
# 1,474,896 canonical words; every other pair has at most 76,836.
KERNEL_SWEEP = [
    (rank, length)
    for rank in range(1, 7)
    for length in range(1, 7)
    if (rank, length) not in ((5, 6), (6, 6))
]


class TestWordKernel:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_matches_word_trace(self, rank):
        sd = lq.spectral_decompose(lq.random_density(3, rank, seed=40 + rank))
        stack = np.stack(sd.coeff_matrices)
        for length in range(1, 7):
            if (rank, length) not in KERNEL_SWEEP:
                continue
            arr = _canonical_letter_arrays(rank, length)
            rows = np.arange(arr.shape[0])
            if rows.size > 10_000:
                # word_trace is a Python loop: check an even spread of rows
                # of the kernel's full output
                rows = np.unique(np.linspace(0, rows.size - 1, 2000).astype(int))
            for side in ("L", "R"):
                got = _batch_word_values(stack, arr, side)[rows]
                want = np.array(
                    [
                        lq.word_trace(sd, Word(side, tuple((i + 1, j + 1) for i, j in row)))
                        for row in arr[rows].tolist()
                    ]
                )
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("rank,length", KERNEL_SWEEP)
    def test_right_words_read_off_left(self, rank, length):
        index = _right_to_left_index(rank, length)
        np.testing.assert_array_equal(np.sort(index), np.arange(index.shape[0]))
        assert not index.flags.writeable
        sd = lq.spectral_decompose(lq.random_density(3, rank, seed=50 + rank))
        stack = np.stack(sd.coeff_matrices)
        arr = _canonical_letter_arrays(rank, length)
        left = _batch_word_values(stack, arr, "L")
        right = _batch_word_values(stack, arr, "R")
        assert np.all(np.abs(left[index] - right) <= 1e-13 * np.maximum(1.0, np.abs(right)))

    def test_unsorted_rows(self):
        sd = lq.spectral_decompose(lq.random_density(3, 4, seed=45))
        stack = np.stack(sd.coeff_matrices)
        arr = _canonical_letter_arrays(4, 4)
        perm = np.random.default_rng(46).permutation(arr.shape[0])
        for side in ("L", "R"):
            np.testing.assert_allclose(
                _batch_word_values(stack, arr[perm], side),
                _batch_word_values(stack, arr, side)[perm],
                rtol=0,
                atol=1e-14,
            )

    @pytest.mark.parametrize("block", [1, 3, 100])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        # odd lengths cut the prefixes into chunks of whole imbalance classes;
        # a copy of the canonical array gets a plan built at the patched size
        for rank, length in ((4, 5), (4, 3), (6, 3)):
            sd = lq.spectral_decompose(lq.random_density(3, rank, seed=48))
            stack = np.stack(sd.coeff_matrices)
            arr = _canonical_letter_arrays(rank, length)
            whole = {side: _batch_word_values(stack, arr, side) for side in ("L", "R")}
            monkeypatch.setattr(invariants, "_PREFIX_BATCH", block)
            for side in ("L", "R"):
                got = _batch_word_values(stack, arr.copy(), side)
                assert got.tobytes() == whole[side].tobytes()
            monkeypatch.undo()

    def test_cached_plan_changes_no_bit(self, monkeypatch):
        # the canonical array's plan is cached; a copy of the array gets a
        # plan of its own, built by the same code, and the same bytes
        sd = lq.spectral_decompose(lq.random_density(3, 4, seed=48))
        stack = np.stack(sd.coeff_matrices)
        for length in (4, 5):
            arr = _canonical_letter_arrays(4, length)
            cached = {side: _batch_word_values(stack, arr, side) for side in ("L", "R")}
            inner = invariants._word_plan
            plan = pickle.dumps(invariants._canonical_word_plan(4, length)[1])
            assert pickle.dumps(inner(arr.copy(), 4)) == plan
            built = []
            monkeypatch.setattr(
                invariants, "_word_plan", lambda a, n: built.append(a) or inner(a, n)
            )
            for side in ("L", "R"):
                assert _batch_word_values(stack, arr, side).tobytes() == cached[side].tobytes()
            assert not built
            for side in ("L", "R"):
                got = _batch_word_values(stack, arr.copy(), side)
                assert got.tobytes() == cached[side].tobytes()
            assert len(built) == 2
            monkeypatch.undo()

    @pytest.mark.parametrize("n, rank, length", [
        (6, 36, 2), (6, 36, 3), (8, 64, 2), (4, 16, 3), (3, 9, 4),
    ])
    def test_wide_ranks_match_word_trace(self, n, rank, length):
        # at high rank most imbalance classes hold one prefix or one suffix
        sd = lq.spectral_decompose(lq.random_density(n, rank, seed=60 + rank + length))
        stack = np.stack(sd.coeff_matrices)
        arr = _canonical_letter_arrays(rank, length)
        rows = np.unique(np.linspace(0, arr.shape[0] - 1, 1500).astype(int))
        for side in ("L", "R"):
            got = _batch_word_values(stack, arr, side)[rows]
            want = np.array([
                lq.word_trace(sd, Word(side, tuple((i + 1, j + 1) for i, j in row)))
                for row in arr[rows].tolist()
            ])
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_duplicated_rows_and_single_words(self, length):
        sd = lq.spectral_decompose(lq.random_density(3, 4, seed=49))
        stack = np.stack(sd.coeff_matrices)
        arr = _canonical_letter_arrays(4, length)
        picks = np.random.default_rng(50 + length).integers(0, arr.shape[0], 3 * arr.shape[0])
        for side in ("L", "R"):
            whole = _batch_word_values(stack, arr, side)
            np.testing.assert_allclose(
                _batch_word_values(stack, arr[picks], side), whole[picks], rtol=0, atol=1e-14
            )
            for row in (0, arr.shape[0] // 2, arr.shape[0] - 1):
                single = _batch_word_values(stack, arr[row : row + 1].copy(), side)
                assert single.shape == (1,)
                assert abs(single[0] - whole[row]) <= 1e-14

    def test_class_ids_past_int64(self):
        # 20 digits in base 65 overflow int64 when packed; partial codes are
        # re-ranked first, so equal rows still get equal ids
        rng = np.random.default_rng(51)
        digits = rng.integers(0, 65, (300, 20))
        digits[150:] = digits[rng.integers(0, 150, 150)]
        want = np.unique(digits, axis=0, return_inverse=True)[1].reshape(-1)
        np.testing.assert_array_equal(invariants._dense_ids(digits, 65), want)

    def test_empty(self):
        stack = np.stack(lq.spectral_decompose(lq.random_density(2, 2, seed=47)).coeff_matrices)
        for length in (1, 3):
            empty = np.zeros((0, length, 2), np.uint8)
            assert _batch_word_values(stack, empty, "L").shape == (0,)


class TestBlockInvariant:
    def test_separating_values(self, diag_half_decompositions):
        sd_a, sd_b = diag_half_decompositions
        identity = (0, 1)
        assert abs(lq.block_invariant(sd_a, (0, 1), identity, "L") - 2.0) < 1e-12
        assert abs(lq.block_invariant(sd_b, (0, 1), identity, "L") - 4.0) < 1e-12

    def test_singleton_reduces_to_word_trace(self):
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=21))
        for tau in (1, 2, 3):
            for _, perm in cycle_type_representatives(tau):
                val = lq.block_invariant(sd, (1,), perm, "L")
                plain = lq.word_trace(sd, Word("L", ((2, 2),) * tau))
                assert abs(val - plain) < 1e-12

    @pytest.mark.parametrize("profile,block_pick", [([2, 1], 0), ([3, 1], 0), ([2, 2], 1)])
    def test_matches_brute_force(self, profile, block_pick):
        sd = lq.spectral_decompose(
            lq.random_density(2, sum(profile), degeneracy_profile=profile, seed=22)
        )
        block = [b for b in sd.blocks if len(b) > 1][block_pick if block_pick < len(
            [b for b in sd.blocks if len(b) > 1]) else 0]
        for tau in (1, 2, 3):
            for _, perm in cycle_type_representatives(tau):
                for side in ("L", "R"):
                    got = lq.block_invariant(sd, block, perm, side)
                    want = brute_block_sum(sd, block, perm, side)
                    assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("tau", [4, 5, 6])
    def test_long_patterns_match_brute_force(self, tau):
        # the 5- and 6-cycles only contract pairwise under an explicit path
        sd = lq.spectral_decompose(
            lq.random_density(3, 4, degeneracy_profile=[2, 1, 1], seed=28)
        )
        block = next(b for b in sd.blocks if len(b) == 2)
        reps = cycle_type_representatives(tau)
        if tau == 6:
            assert {(6,), (1, 5)} <= {ctype for ctype, _ in reps}
        for _, perm in reps:
            for side in ("L", "R"):
                got = lq.block_invariant(sd, block, perm, side)
                want = brute_block_sum(sd, block, perm, side)
                assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_fingerprint_stacks_blocks_and_sides(self):
        # fingerprint contracts each pattern once over every block and both
        # sides; each value must be its own block's literal sum
        sd = lq.spectral_decompose(lq.random_density(3, 7, [3, 2, 2], seed=29))
        sig = fingerprint_from_decomposition(sd, np.ones(9), lq.Tolerances(tau_cap=3))
        multi = [b for b in sd.blocks if len(b) > 1]
        assert len(multi) == 3
        keys = []
        for block in multi:
            for side in ("L", "R"):
                for tau in (1, 2, 3):
                    for ctype, perm in cycle_type_representatives(tau):
                        keys.append(_block_key(side, block, tau, ctype))
                        got = sig.block_invariants[keys[-1]]
                        want = brute_block_sum(sd, block, perm, side)
                        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        assert list(sig.block_invariants) == keys

    def test_remix_invariance(self):
        # a 2-fold block at N=2 up to tau 3, and a 3-fold block at N=3 up to
        # tau 6, through the ladder
        for n, profile, cap in [(2, [2, 1], 3), (3, [3, 1], 6)]:
            sd = lq.spectral_decompose(
                lq.random_density(n, sum(profile), degeneracy_profile=profile, seed=23)
            )
            block = next(b for b in sd.blocks if len(b) == profile[0])
            remixed = remix_block(sd, block, lq.haar_unitary(profile[0], 24))
            for tau in range(1, cap + 1):
                for _, perm in cycle_type_representatives(tau):
                    for side in ("L", "R"):
                        a = lq.block_invariant(sd, block, perm, side)
                        b = lq.block_invariant(remixed, block, perm, side)
                        assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    def test_phase_invariance(self):
        sd = lq.spectral_decompose(lq.random_density(2, 4, seed=25))
        coeffs = list(sd.coeff_matrices)
        coeffs[1] = np.exp(1.23j) * coeffs[1]
        shifted = decomposition_from_coeffs(2, sd.eigenvalues, coeffs)
        for tau in (1, 2):
            for _, perm in cycle_type_representatives(tau):
                a = lq.block_invariant(sd, (0, 1, 2, 3), perm, "L")
                b = lq.block_invariant(shifted, (0, 1, 2, 3), perm, "L")
                assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_pattern_validation(self):
        sd = lq.spectral_decompose(lq.random_density(2, 2, seed=26))
        for pattern in [(0, 0), ()]:
            with pytest.raises(PatternMismatch):
                lq.block_invariant(sd, (0,), pattern, "L")
        # only a type's representative: (0, 2, 1) is that of (1, 2), while
        # (1, 0, 2), (2, 0, 1) and (1, 2, 0, 3) realise (1, 2), (3,) and
        # (1, 3) on other slots
        assert dict(cycle_type_representatives(3))[(1, 2)] == (0, 2, 1)
        lq.block_invariant(sd, (0, 1), (0, 2, 1), "L")
        for pattern in [(1, 0, 2), (2, 0, 1), (1, 2, 0, 3)]:
            with pytest.raises(PatternMismatch):
                lq.block_invariant(sd, (0, 1), pattern, "L")
        # out of range, empty, or a repeated position
        for block in [(5,), (), (0, 0)]:
            with pytest.raises(IndexOutOfRange):
                lq.block_invariant(sd, block, (0,), "L")

    @pytest.mark.parametrize("n, profile, cap", [(3, [3, 1], 6), (4, [2, 1, 1], 4)])
    def test_ladder_matches_brute_force(self, n, profile, cap):
        # every cycle type up to the cap, both sides; the 3- to 6-cycles
        # come from the transfer-matrix ladder
        sd = lq.spectral_decompose(
            lq.random_density(n, sum(profile), degeneracy_profile=profile, seed=30)
        )
        block = next(b for b in sd.blocks if len(b) == profile[0])
        for tau in range(1, cap + 1):
            for _, perm in cycle_type_representatives(tau):
                for side in ("L", "R"):
                    got = lq.block_invariant(sd, block, perm, side)
                    want = brute_block_sum(sd, block, perm, side)
                    assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_matches_signature_bits(self):
        # block_invariant and the signature share one evaluation
        sd = lq.spectral_decompose(lq.random_density(3, 6, [3, 3], seed=31))
        sig = fingerprint_from_decomposition(sd, np.ones(9))
        multi = [b for b in sd.blocks if len(b) > 1]
        assert len(multi) == 2 and sig.tau_block == 6
        for block in multi:
            for side in ("L", "R"):
                for tau in range(1, 7):
                    for ctype, perm in cycle_type_representatives(tau):
                        got = lq.block_invariant(sd, block, perm, side)
                        want = sig.block_invariants[_block_key(side, block, tau, ctype)]
                        assert got.real.hex() == want.real.hex()
                        assert got.imag.hex() == want.imag.hex()


class TestFingerprint:
    def test_orbit_invariance(self):
        for n, seed in [(2, 31), (2, 32), (3, 33), (3, 34)]:
            rank = 1 + seed % (n * n)
            rho, rho2, _, _ = orbit_pair(n, rank, seed=seed)
            siga, sigb = lq.fingerprint(rho), lq.fingerprint(rho2)
            assert lq.compare_signatures(siga, sigb, 1e-8) is None

    def test_balanced_phase_freedom(self):
        # multiplying one eigenvector by a phase must not change any entry
        sd = lq.spectral_decompose(lq.random_density(2, 3, seed=35))
        js = np.ones(4)
        coeffs = list(sd.coeff_matrices)
        coeffs[0] = np.exp(0.77j) * coeffs[0]
        shifted = decomposition_from_coeffs(2, sd.eigenvalues, coeffs)
        siga = fingerprint_from_decomposition(sd, js)
        sigb = fingerprint_from_decomposition(shifted, js)
        for ka, kb in zip(siga.balanced_groups, sigb.balanced_groups):
            np.testing.assert_allclose(ka.values, kb.values, atol=1e-10)

    def test_separates_diag_pair(self, diag_half_pair):
        siga = lq.fingerprint(diag_half_pair[0])
        sigb = lq.fingerprint(diag_half_pair[1])
        mismatch = lq.compare_signatures(siga, sigb, 1e-8)
        assert mismatch is not None
        kind, key, va, vb = mismatch
        assert kind == "block_invariant"
        assert key == "L:block(1,2):len2:type(1,1)"
        assert abs(va - 2.0) < 1e-12 and abs(vb - 4.0) < 1e-12

    def test_fully_degenerate_has_no_balanced_words(self):
        rho = lq.validate_density(np.eye(4, dtype=complex) / 4, 2)
        sig = lq.fingerprint(rho)
        assert sig.balanced_groups == []
        assert len(sig.block_invariants) > 0

    @pytest.mark.parametrize(
        "n, rank, profile", [(3, 3, None), (3, 4, [2, 1, 1]), (4, 10, None)]
    )
    def test_word_keys_follow_the_groups(self, n, rank, profile):
        # keys, their order and values, against the per-row key of each
        # group; rank 10 has two-digit labels
        sig = lq.fingerprint(lq.random_density(n, rank, degeneracy_profile=profile, seed=38))
        assert sig.balanced_groups
        assert list(sig.balanced_words.items()) == [
            (_word_key(g.side, row), v)
            for g in sig.balanced_groups
            for row, v in zip(g.letters, g.values.tolist())
        ]

    def test_keys_need_no_json_escape(self):
        # the report writer puts constant quotes around these keys
        keys = [_word_key(side, row) for side in "LR" for row in ([(1, 255)], [(255, 9), (10, 1)])]
        keys += [
            _block_key(side, block, tau, ctype)
            for side in "LR"
            for block in ((0, 1), (3, 9, 254))
            for tau in range(1, 7)
            for ctype, _ in cycle_type_representatives(tau)
        ]
        sig = lq.fingerprint(lq.random_density(4, 12, [1, 2, 1, 1, 3, 1, 1, 1, 1], seed=3))
        keys += [*sig.balanced_words, *sig.block_invariants]
        for key in keys:
            assert key.isascii() and key.isprintable() and not set(key) & set('"\\'), key

    @pytest.mark.parametrize("seed, singles", [(0, (0, 3)), (2, (0, 1)), (5, (0, 3))])
    def test_letters_are_original_indices(self, seed, singles):
        # singletons at (0, 3) map by a gather, at (0, 1) by a shift
        sd = lq.spectral_decompose(lq.random_density(3, 4, [2, 1, 1], seed=seed))
        assert tuple(b[0] for b in sd.blocks if len(b) == 1) == singles
        sig = lq.fingerprint(lq.random_density(3, 4, [2, 1, 1], seed=seed))
        for g in sig.balanced_groups:
            arr = _canonical_letter_arrays(2, g.length)
            want = np.array(singles, dtype=np.uint8)[arr] + 1
            assert g.letters.dtype == want.dtype == np.uint8
            np.testing.assert_array_equal(g.letters, want)

    def test_deterministic(self):
        rho = lq.random_density(2, 3, seed=36)
        a, b = lq.fingerprint(rho), lq.fingerprint(rho)
        assert a.balanced_words == b.balanced_words
        assert a.block_invariants == b.block_invariants
        np.testing.assert_array_equal(a.power_traces, b.power_traces)

    def test_block_sums_in_one_call(self, monkeypatch):
        # one call covers every block, both sides and every cycle type
        calls = []
        network = invariants._block_network_value

        def counted(grams, ctypes):
            calls.append((grams.shape, ctypes))
            return network(grams, ctypes)

        monkeypatch.setattr(invariants, "_block_network_value", counted)
        rho = lq.random_density(3, 7, degeneracy_profile=[3, 4], seed=37)
        sig = lq.fingerprint(rho)
        ctypes = tuple(ct for tau in range(1, 7) for ct, _ in cycle_type_representatives(tau))
        assert calls == [((4, 3, 3, 3, 3), ctypes)]
        assert len(sig.block_invariants) == 4 * len(ctypes)

    def test_bell_word_value(self):
        sig = lq.fingerprint(bell_density())
        assert abs(sig.balanced_words["L:(1,1)(1,1)"] - 0.5) < 1e-12
        np.testing.assert_allclose(sig.power_traces, np.ones(4), atol=1e-12)

"""Trace-polynomial invariants of a spectral decomposition.

A *word* is an ordered sequence of index pairs.  On the left side the pair
(i, j) denotes the factor A_i A_j^dagger, on the right side A_i^dagger A_j;
the word's value is the trace of the ordered product.  Values are invariant
under conjugation of all A_i by local unitaries, but an individual value
also depends on the decomposition through the per-eigenvector phase
freedom.  A word is *balanced* when every index occurs as often in first
as in second positions; balanced values are phase-free.  For a degeneracy
block, summing a patterned word over all index assignments inside the
block gives values that are additionally stable under unitary remixing of
the block's eigenvectors; those sums are the block invariants.

Signatures assembled here therefore contain only quantities that are
decomposition-independent: power traces of the density matrix, balanced
words over singleton (nondegenerate) indices, and patterned block sums.

Evaluation.  A word of length L splits into a prefix P of ceil(L/2)
letters and a suffix S of floor(L/2), and its value is Tr(P S).  Letter
(i, j) adds e_i - e_j to a word's imbalance, and a balanced word's prefix
imbalance is minus its suffix's.  So the distinct prefixes and suffixes
fall into classes by that exact vector, and each class gives one dense
matrix product whose entries are Tr(P S) for all its prefix-suffix
pairs; a word's value is one entry.  Classes of one shape share one
batched product.  Every integer array this takes (rows, class shapes and
each word's entry) depends only on the letters, so it forms a plan,
cached per (rank, length) for the canonical arrays.  Right-side words
are not evaluated at all: by trace cyclicity

    Tr(A_{i1}^dag A_{j1} ... A_{iL}^dag A_{jL})
        = Tr(A_{j1} A_{i2}^dag ... A_{jL} A_{i1}^dag),

so the right word ((i1,j1), ..., (iL,jL)) equals the left word
((j1,i2), (j2,i3), ..., (jL,i1)), which is balanced; on the canonical
words this is a permutation, and the right values are the left ones read
in that order.  The block sum of cycle type (c_1, ..., c_m) is
Tr(T_{c_1} ... T_{c_m}), with one N x N transfer matrix T_c per cycle
length (see ``_block_network_value``), built once over the gram tensors
of every block stacked, for both sides: the right-side network is the
left one on the gram tensor with its four axes reversed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, WORD_EVAL_LIMIT, Tolerances
from .errors import IndexOutOfRange, PatternMismatch
from .states import DensityMatrix, SpectralDecomposition, spectral_decompose

SIDES = ("L", "R")


@dataclass(frozen=True)
class Word:
    """An index word; letters are 1-based (i, j) pairs."""

    side: str
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError("side must be 'L' or 'R'")
        if len(self.letters) < 1:
            raise ValueError("a word has at least one letter")

    def key(self) -> str:
        return self.side + ":" + "".join(f"({i},{j})" for i, j in self.letters)

    def is_balanced(self) -> bool:
        count: dict[int, int] = {}
        for i, j in self.letters:
            count[i] = count.get(i, 0) + 1
            count[j] = count.get(j, 0) - 1
        return all(v == 0 for v in count.values())


def power_traces(rho: DensityMatrix) -> np.ndarray:
    """Tr(rho^s) for s = 1 .. N^2, computed from the full spectrum.

    Row s - 1 holds lambda^s, and the traces are the row sums.  The s = 2
    row is lambda * lambda: numpy's scalar ``lams ** 2`` squares, but the
    array power calls pow(x, 2.0), which can differ in the last bit.  So
    each trace equals ``np.sum(lams ** s)`` bit for bit.
    """
    lams = rho.spectrum
    nn = rho.dim_local * rho.dim_local
    powers = lams ** np.arange(1, nn + 1)[:, None]
    powers[1:2] = lams * lams
    return powers.sum(axis=1)


def word_trace(sd: SpectralDecomposition, word: Word) -> complex:
    """Trace of the ordered product of the word's factors."""
    n = sd.rank
    out = np.eye(sd.dim_local, dtype=complex)
    for i, j in word.letters:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"letter ({i},{j}) exceeds rank {n}")
        a, b = sd.coeff_matrices[i - 1], sd.coeff_matrices[j - 1]
        out = out @ (a @ b.conj().T if word.side == "L" else a.conj().T @ b)
    return complex(np.trace(out))


# ---------------------------------------------------------------------------
# balanced word enumeration (vectorized; letters held as 0-based index pairs)


def _partitions(total: int, max_part: int | None = None):
    """Integer partitions of ``total`` as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=1024)
def count_balanced_words(n: int, length: int) -> int:
    """Number of balanced words of exactly this length (before cyclic dedup)."""
    total = 0
    for parts in _partitions(length):
        p = len(parts)
        if p > n:
            continue
        ways = 1
        for k in range(p):
            ways *= n - k
        mult: dict[int, int] = {}
        for s in parts:
            mult[s] = mult.get(s, 0) + 1
        for r in mult.values():
            ways //= math.factorial(r)
        multinom = math.factorial(length)
        for s in parts:
            multinom //= math.factorial(s)
        total += ways * multinom * multinom
    return total


# (left, right) pairs per batch of the canonical-word search; bounds its
# temporaries whatever the number of balanced words
_PAIR_BATCH = 1 << 15

# rows per batch of the per-row integer work on letter arrays (packing codes)
_ROW_BATCH = 1 << 13


def _pack(codes: np.ndarray, base: int) -> np.ndarray:
    """(W, length) letter codes in [0, base) to (W,) base-``base`` integers.

    The first letter is most significant, so packed order is lexicographic
    letter order.
    """
    return codes @ base ** np.arange(codes.shape[1] - 1, -1, -1, dtype=np.int64)


def _least_rotation(packed: np.ndarray, base: int, length: int) -> np.ndarray:
    """Packed code of each word's lexicographically least cyclic rotation."""
    top = base ** (length - 1)
    least = rot = packed
    for _ in range(length - 1):
        rot = rot % top * base + rot // top  # first letter moves to the end
        least = np.minimum(least, rot)
    return least


@functools.lru_cache(maxsize=128)
def _canonical_letter_arrays(n: int, length: int) -> np.ndarray:
    """Canonical balanced words of one length as a read-only (W, length, 2) array.

    Canonical form is the lexicographically minimal cyclic rotation; output
    rows are sorted by their packed integer code, which makes the order
    deterministic and stable across calls.  The result depends only on the
    two ints, so it is memoised.  Letters are stored in the smallest
    unsigned dtype that holds them (uint8 for n <= N^2 <= 64), which keeps
    the cached arrays small, and the array is read-only because every
    caller shares it.

    A balanced word pairs a left and a right index sequence with the same
    multiset.  Its canonical rotation starts with its least letter, whose
    left index is the least left index, so only left sequences that start
    with their minimum are paired, each with every sequence of its
    multiset group; a pair is kept when its packed code is its own least
    rotation.  Each canonical word is met exactly once, and the pairs are
    formed in batches of at most about ``_PAIR_BATCH`` rows.
    """
    dtype = np.min_scalar_type(n - 1)
    base = n * n
    seqs = np.indices((n,) * length).reshape(length, -1).T  # lexicographic
    _, group = np.unique(_pack(np.sort(seqs, axis=1), n), return_inverse=True)
    members = np.argsort(group, kind="stable")  # sequences grouped by multiset
    sizes = np.bincount(group)
    firsts = np.cumsum(sizes) - sizes
    lefts = np.flatnonzero(seqs[:, 0] == seqs.min(axis=1))
    pairs = sizes[group[lefts]]
    ends = np.cumsum(pairs)
    starts = ends - pairs
    # pair p of left k is sequence members[shift[k] + p] of its group
    shift = firsts[group[lefts]] - starts
    kept = []
    lo = 0
    while lo < lefts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _PAIR_BATCH, "right")))
        owner = np.repeat(np.arange(lo, hi), pairs[lo:hi])
        right = members[np.arange(starts[lo], ends[hi - 1]) + shift[owner]]
        packed = _pack(seqs[lefts[owner]] * n + seqs[right], base)
        kept.append(packed[packed == _least_rotation(packed, base, length)])
        lo = hi
    packed = np.sort(np.concatenate(kept))
    out = np.empty((packed.size, length, 2), dtype)
    for k in range(length - 1, -1, -1):  # unpack the last letter first
        packed, code = np.divmod(packed, base)
        out[:, k, 0], out[:, k, 1] = np.divmod(code, n)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=128)
def _right_to_left_index(n: int, length: int) -> np.ndarray:
    """Row of the equal left word for each right word, as a read-only array.

    Right word w = ((i1,j1), ..., (iL,jL)) of ``_canonical_letter_arrays``
    equals the left word ((j1,i2), (j2,i3), ..., (jL,i1)), which is balanced
    and canonicalises to row ``index[w]`` of the same array; the map is a
    permutation of the rows.  Rows are read in batches of ``_ROW_BATCH``,
    so no temporary but the packed rows and the index grows with them.
    """
    arr = _canonical_letter_arrays(n, length)
    base = n * n
    rows = np.empty(arr.shape[0], np.int64)  # ascending, and already canonical
    for lo in range(0, arr.shape[0], _ROW_BATCH):
        part = arr[lo : lo + _ROW_BATCH].astype(np.int64)
        rows[lo : lo + _ROW_BATCH] = _pack(part[:, :, 0] * n + part[:, :, 1], base)
    index = np.empty(arr.shape[0], np.intp)
    for lo in range(0, arr.shape[0], _ROW_BATCH):
        part = arr[lo : lo + _ROW_BATCH].astype(np.int64)
        moved = _pack(part[:, :, 1] * n + np.roll(part[:, :, 0], -1, axis=1), base)
        index[lo : lo + _ROW_BATCH] = np.searchsorted(rows, _least_rotation(moved, base, length))
    index.flags.writeable = False
    return index


def _unpack(packed: np.ndarray, base: int, length: int) -> np.ndarray:
    """Inverse of ``_pack``: (K,) codes to (K, length) digits."""
    out = np.empty((packed.size, length), np.int64)
    for k in range(length - 1, -1, -1):
        packed, out[:, k] = np.divmod(packed, base)
    return out


def _imbalance_digits(codes: np.ndarray, n: int, width: int) -> np.ndarray:
    """Net-positive then net-negative indices of each row of letter codes.

    Letter (i, j) adds e_i - e_j to a row's imbalance.  The multisets of
    first and second indices are cancelled pairwise; what is left of each
    is sorted and padded with ``n`` to ``width`` columns, so two rows have
    equal imbalance exactly when their (K, 2 * width) digits agree.
    """
    first, second = np.divmod(codes, n)
    for a in range(codes.shape[1]):
        for b in range(codes.shape[1]):
            hit = first[:, a] == second[:, b]
            first[hit, a] = n  # cancelled entries never match again:
            second[hit, b] = n + 1  # n and n + 1 differ from every index
    second[second == n + 1] = n
    pad = np.full((codes.shape[0], width - codes.shape[1]), n, np.int64)
    return np.hstack([np.sort(np.hstack([first, pad]), 1), np.sort(np.hstack([second, pad]), 1)])


def _dense_ids(digits: np.ndarray, base: int) -> np.ndarray:
    """Ids 0.. of the distinct rows of ``digits`` (entries below ``base``).

    Rows are packed column by column; when the next column would overflow
    int64 the partial codes are first replaced by their ranks.
    """
    ids, size = np.zeros(digits.shape[0], np.int64), 1
    for col in digits.T:
        if size * base >= 1 << 62:
            ids = np.unique(ids, return_inverse=True)[1].reshape(-1)
            size = int(ids.max()) + 1
        ids, size = ids * base + col, size * base
    return np.unique(ids, return_inverse=True)[1].reshape(-1)


def _unique_codes(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in [0, size), int32 inverse.

    A table of ``size`` flags replaces the sort when it is not much larger
    than ``codes``.
    """
    if size > 4 * codes.size:
        values, inverse = np.unique(codes, return_inverse=True)
        return values, inverse.reshape(-1).astype(np.int32)
    seen = np.zeros(size, bool)
    seen[codes] = True
    return np.flatnonzero(seen), (np.cumsum(seen, dtype=np.int32) - 1)[codes]


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def _ranks(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members grouped by id (stable), each member's rank in its id, and counts."""
    # the stable sort of a narrow integer type is a radix sort
    order = np.argsort(ids.astype(np.min_scalar_type(size)), kind="stable")
    counts = np.bincount(ids, minlength=size)
    rank = np.empty(ids.size, np.int64)
    rank[order] = np.arange(ids.size) - np.repeat(_starts(counts), counts)
    return order, rank, counts


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs."""
    return np.repeat(starts - _starts(counts), counts) + np.arange(int(counts.sum()))


# distinct prefixes per chunk of the word plan; a chunk's prefix products
# are formed together, so no temporary grows with the number of words.  A
# chunk holds whole imbalance classes, so it may pass this by less than one
# class, and no value depends on the size
_PREFIX_BATCH = 1 << 14


def _word_plan(arr: np.ndarray, n: int) -> tuple:
    """Integer plan of ``_batch_word_values`` for one (W, L, 2) array, L >= 2.

    A word splits into a prefix P of ceil(L/2) letters and a suffix S of
    floor(L/2); the table holds every floor(L/2)-letter product, row =
    packed code.  Tr(P S) = sum conj(P'[a, b]) S[a, b], where P' = conj(P^T)
    is the product of P's letters reversed, each (i, j) swapped to (j, i),
    because every letter factor G satisfies G_(i,j)^T = conj(G_(j,i)); so
    both sides read table rows as they are.  For even L, P' is a table
    row; for odd L it is a table row times P's first letter swapped, and
    the distinct prefixes are cut into chunks of whole classes (see
    below), about ``_PREFIX_BATCH`` prefixes each; a chunk forms its
    prefixes in (first letter, row) order.

    A balanced word's prefix imbalance is minus its suffix's, so P' and S
    have equal imbalance, and the rows P' and S fall into exact imbalance
    classes.  Within a chunk each class gives one product whose entries
    are Tr(P S) for every pair of its prefixes and all its suffixes; the
    pairs are distinct balanced words, so the products hold at most
    ``count_balanced_words`` entries in all.  Classes of one shape (k
    classes of p prefixes by s suffixes) form a group, one batched product.

    Returns chunks ``(rest, segments, pre, suf, groups)``.  The chunk's
    prefix rows are laid out group after group.  For even L, ``segments``
    is None and ``pre`` holds each row's table row.  For odd L, segments
    are (letter, lo, hi) runs of the chunk's prefixes in (first letter,
    row) order, ``rest`` holds their table rows and ``pre`` the row each
    one goes to.  ``suf`` holds the table rows of S group after group.
    A group is ``(k, p, s, p_rows, s_rows, words, flat)``: slices of
    those prefix and suffix rows, and word ``words[x]`` is entry
    ``flat[x]`` of the group's (k, p, s) product.  Index arrays are
    int32, ``flat`` in the narrowest unsigned type that holds every group;
    the groups' ``words`` and ``flat`` are views of one array each.
    """
    length = arr.shape[1]
    half, tail, base = (length + 1) // 2, length // 2, n * n
    # letters of P' (reversed, then swapped); for odd L the first leads
    lead = [*range(half - 1, -1, -1)]
    if length % 2:
        lead = [0, *lead[:-1]]
    pre = np.empty(arr.shape[0], np.int64)
    suf = np.empty(arr.shape[0], np.int64)
    for lo in range(0, arr.shape[0], _ROW_BATCH):
        part = arr[lo : lo + _ROW_BATCH].astype(np.int64)
        first, second = part[:, :, 0], part[:, :, 1]
        pre[lo : lo + _ROW_BATCH] = _pack(second[:, lead] * n + first[:, lead], base)
        suf[lo : lo + _ROW_BATCH] = _pack(first[:, half:] * n + second[:, half:], base)
    prefixes, pid = _unique_codes(pre, base**half)
    suffixes, sid = _unique_codes(suf, base**tail)
    del pre, suf
    cls = _dense_ids(
        np.vstack([
            _imbalance_digits(_unpack(prefixes, base, half), n, half),
            _imbalance_digits(_unpack(suffixes, base, tail), n, half),
        ]),
        n + 1,
    )
    p_cls, s_cls = cls[: prefixes.size], cls[prefixes.size :]
    n_cls = int(cls.max()) + 1  # every class holds prefixes and suffixes of its words
    p_order, p_rank, shape_p = _ranks(p_cls, n_cls)
    s_order, s_rank, shape_s = _ranks(s_cls, n_cls)
    # a chunk holds whole classes in class order, so a class product's
    # shape, and its bits, do not depend on the chunk size
    if length % 2:
        cls_chunk = np.unique(_starts(shape_p) // _PREFIX_BATCH, return_inverse=True)[1].reshape(-1)
    else:
        cls_chunk = np.zeros(n_cls, np.int64)
    # classes of one chunk and shape form a group; ``by`` lists classes in group order
    by = np.lexsort((shape_s, shape_p, cls_chunk))
    new = np.ones(by.size, bool)
    new[1:] = (
        (np.diff(cls_chunk[by]) != 0) | (np.diff(shape_p[by]) != 0) | (np.diff(shape_s[by]) != 0)
    )
    heads = np.flatnonzero(new)
    cls_group, cls_k = np.empty(by.size, np.int64), np.empty(by.size, np.int64)
    cls_group[by] = np.cumsum(new) - 1
    cls_k[by] = np.arange(by.size) - heads[cls_group[by]]
    pre_rows = p_order[_concat_ranges(_starts(shape_p)[by], shape_p[by])]
    if length % 2:  # the row each chunk's prefix goes to, in (first letter, row) order
        chunk = cls_chunk[p_cls]
        members, _, chunk_size = _ranks(chunk, int(cls_chunk.max()) + 1)
        dest = np.empty_like(pre_rows)
        dest[pre_rows] = np.arange(pre_rows.size) - _starts(chunk_size)[chunk[pre_rows]]
        pre_rows = dest[members]
    else:
        pre_rows = prefixes[pre_rows]
    suf_rows = suffixes[s_order[_concat_ranges(_starts(shape_s)[by], shape_s[by])]]
    # each word's group and entry; the W-row arrays are kept few and narrow
    w_cls = p_cls.astype(np.int32)[pid]
    flat = ((cls_k * shape_p)[w_cls] + p_rank[pid]) * shape_s[w_cls] + s_rank[sid]
    del pid, sid
    w_group = cls_group.astype(np.min_scalar_type(heads.size))[w_cls]
    del w_cls
    words = np.argsort(w_group, kind="stable")  # a radix sort on the narrow type
    group_words = np.bincount(w_group, minlength=heads.size)
    del w_group
    flat = flat[words]
    size = int(((cls_k + 1) * shape_p * shape_s).max())  # the largest group product
    # the kept arrays are made last, after the temporaries are gone
    words, flat = words.astype(np.int32), flat.astype(np.min_scalar_type(size - 1))
    # per chunk: its groups, with slices into the chunk's prefix and suffix rows
    groups: list[list] = [[] for _ in range(int(cls_chunk.max()) + 1)]
    ends = [[0, 0] for _ in groups]  # prefix and suffix rows taken so far
    w_lo = 0
    for g, c in enumerate(by[heads].tolist()):
        k = int(heads[g + 1] if g + 1 < heads.size else by.size) - int(heads[g])
        p, s, w_hi = int(shape_p[c]), int(shape_s[c]), w_lo + int(group_words[g])
        end = ends[int(cls_chunk[c])]
        groups[int(cls_chunk[c])].append((
            k, p, s,
            slice(end[0], end[0] + k * p),
            slice(end[1], end[1] + k * s),
            words[w_lo:w_hi],
            flat[w_lo:w_hi],
        ))
        end[0], end[1], w_lo = end[0] + k * p, end[1] + k * s, w_hi
    chunks = []
    p_lo = s_lo = 0
    for part, (p_n, s_n) in zip(groups, ends):
        rows = (
            pre_rows[p_lo : p_lo + p_n].astype(np.int32),
            suf_rows[s_lo : s_lo + s_n].astype(np.int32),
        )
        p_lo, s_lo = p_lo + p_n, s_lo + s_n
        if not length % 2:
            chunks.append((None, None, *rows, tuple(part)))
            continue
        letter, rest = np.divmod(prefixes[members[p_lo - p_n : p_lo]], base**tail)
        bounds = [0, *(np.flatnonzero(np.diff(letter)) + 1).tolist(), letter.size]
        segments = tuple((int(letter[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
        chunks.append((rest.astype(np.int32), segments, *rows, tuple(part)))
    return tuple(chunks)


@functools.lru_cache(maxsize=128)
def _canonical_word_plan(n: int, length: int) -> tuple[np.ndarray, tuple]:
    """``_word_plan`` of the canonical array of (n, length), with that array.

    Built once per key, as the array itself is; ``_batch_word_values`` uses
    it only when handed that very array.
    """
    arr = _canonical_letter_arrays(n, length)
    return arr, _word_plan(arr, n)


def _batch_word_values(
    stack: np.ndarray, arr: np.ndarray, side: str
) -> np.ndarray:
    """Evaluate many equal-length words at once.

    ``stack`` is the (n, N, N) array of coefficient matrices; ``arr`` holds
    0-based letters with shape (W, L, 2).  The n^2 letter factors are built
    once, and the table of all floor(L/2)-letter products with one matrix
    product per level.  The rest follows ``_word_plan``: per chunk, odd-L
    prefix products with one matrix product per first letter, then per
    group one batched product whose entries are Tr(P S).  The plan of a
    canonical array is cached; any other array gets its own.
    """
    n, length = stack.shape[0], arr.shape[1]
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    dim = stack.shape[1]
    dstack = stack.conj().transpose(0, 2, 1)
    first, second = (stack, dstack) if side == "L" else (dstack, stack)
    gens = (first[:, None] @ second[None, :]).reshape(n * n, dim, dim)
    if length == 1:
        return np.einsum("cii->c", gens)[arr[:, 0, 0].astype(np.intp) * n + arr[:, 0, 1]]
    canonical, plan = _canonical_word_plan(n, length)
    if canonical is not arr:
        plan = _word_plan(arr, n)
    table = gens
    if length > 3:  # [G_0 G_1 ...] side by side
        factors = gens.transpose(1, 0, 2).reshape(dim, -1)
    for _ in range(length // 2 - 1):  # row m * n^2 + c of the next level is X_m G_c
        m = table.shape[0]
        table = (table.reshape(m * dim, dim) @ factors).reshape(m, dim, n * n, dim)
        table = table.transpose(0, 2, 1, 3).reshape(-1, dim, dim)
    rows = table.reshape(-1, dim * dim)
    out = np.empty(arr.shape[0], dtype=complex)
    for rest, segments, pre, suf, groups in plan:
        if segments is None:
            left = rows[pre]
        else:  # P' = X G, one product per (swapped) first letter G
            left = np.empty((pre.size, dim * dim), dtype=complex)
            for letter, lo, hi in segments:
                lead = table[rest[lo:hi]].reshape(-1, dim)
                left[pre[lo:hi]] = (lead @ gens[letter]).reshape(-1, dim * dim)
        np.conjugate(left, out=left)  # rows of P^T = conj(P')
        right = rows[suf]
        for k, p, s, p_rows, s_rows, words, flat in groups:
            suffix_t = right[s_rows].reshape(k, s, -1).transpose(0, 2, 1)
            prod = left[p_rows].reshape(k, p, -1) @ suffix_t
            out[words] = prod.reshape(-1)[flat]
    return out


# ---------------------------------------------------------------------------
# degeneracy-block invariants


@functools.lru_cache(maxsize=64)
def cycle_type_representatives(tau: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(cycle_type, representative permutation) pairs, identity type first.

    The representative realises the cycle type on consecutive slots; only
    one permutation per type is evaluated (conjugate patterns are dropped).
    Memoised: every block of every signature walks the same types.
    """
    out = []
    for parts in sorted(tuple(sorted(p)) for p in _partitions(tau)):
        perm = list(range(tau))
        start = 0
        for c in parts:
            for k in range(c):
                perm[start + k] = start + (k + 1) % c
            start += c
        out.append((parts, tuple(perm)))
    return tuple(out)


def _block_gram(stack: np.ndarray) -> np.ndarray:
    """sum_i A_i (x) conj(A_i) over a block's (r, N, N) coefficient stack."""
    return np.einsum("iab,icd->abcd", stack, stack.conj())


def _side_grams(grams: np.ndarray) -> np.ndarray:
    """Left then right gram tensors of a (B, N, N, N, N) stack, as (2B, ...).

    The right-side subscripts of a pattern are the left ones reversed, so
    the right sum is the left network on the gram tensor with its four
    axes reversed.
    """
    return np.concatenate([grams, grams.transpose(0, 4, 3, 2, 1)])


def _block_network_value(grams: np.ndarray, ctypes: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Left-side patterned block sums of each cycle type, as (len(ctypes), S).

    ``grams`` stacks S ``_block_gram`` tensors G[a, b, c, d] =
    sum_i A_i[a, b] conj(A_i[c, d]) (right-side sums pass them through
    ``_side_grams``); ``ctypes`` holds ascending cycle types.  A value is
    the literal sum over all index assignments of the word whose dagger
    slot after position s carries label perm[(s+1) % tau], for the
    type's ``cycle_type_representatives`` permutation perm.

    In that network slot s is the node G[a_s, b_s, a_t, b_(t-1)], t =
    perm^-1(s), indices mod tau.  The representative's cycles sit on
    consecutive slots, so with slots 0..c-1 of one c-cycle local, node u
    >= 1 is G[a_u, b_u, a_(u-1), b_(u-2)] and node 0 is G[a_0, b_0,
    a_(c-1), b_(c-2)]: the cycle touches the rest of the network only
    through b_(-1), the last b of the cycle before it, and its own
    b_(c-1).  Summed over its other indices it is one N x N transfer matrix
    T_c[b_(-1), b_(c-1)], the same for every cycle of length c, and the
    value of type (c_1, ..., c_m) is Tr(T_(c_1) ... T_(c_m)).

    T_1 and T_2 are partial traces of G.  For c >= 3 a ladder contracts
    nodes 1, 2, ..., c-1 in order into a chain X[b_(-1), b_(k), a_0, b_0,
    a_k, b_(k-1)]; each further node costs one (N^4 x N^2) @ (N^2 x N^2)
    product, and node 0 closes the chain into T_c with one more.  A type's
    product is its prefix's times T_last: one batched N x N product per
    number of parts (``_product_plan``), then one batched trace.
    """
    size, dim = grams.shape[:2]
    top = max(ctype[-1] for ctype in ctypes)
    trans = [np.einsum("sabac->scb", grams)]  # T_1, T_2, ...
    if top >= 2:
        trans.append(np.einsum("sxy,syoxi->sio", np.einsum("sabcb->sac", grams), grams))
    if top >= 3:
        # node u + 1 as (a_u, b_(u-1)) x (a_(u+1), b_(u+1)), and node 0 as a column
        step = grams.transpose(0, 3, 4, 1, 2).reshape(size, dim * dim, -1)
        close = grams.reshape(size, -1, 1)
        # nodes 1 and 2: rows (a_0, b_(-1), b_1) x a_1, then a_1 x (b_0, a_2, b_2)
        chain = grams.transpose(0, 3, 4, 2, 1).reshape(size, -1, dim) @ step.reshape(size, dim, -1)
        chain = np.ascontiguousarray(chain.reshape((size,) + (dim,) * 6).transpose(0, 2, 6, 1, 4, 5, 3))
        for c in range(3, top + 1):
            trans.append((chain.reshape(size, dim * dim, -1) @ close).reshape(size, dim, dim))
            if c < top:  # node c: b_(c-1) passes through, (a_(c-1), b_(c-2)) are summed
                chain = (chain.reshape(size, -1, dim * dim) @ step).reshape((size,) + (dim,) * 6)
                chain = np.ascontiguousarray(chain.transpose(0, 1, 6, 3, 4, 5, 2))
    trans = np.stack(trans)
    levels, rows = _product_plan(ctypes)
    prods = np.empty((levels[-1][1], size, dim, dim), dtype=complex)
    for lo, hi, prefix, last in levels:
        prods[lo:hi] = trans[last] if prefix is None else prods[prefix] @ trans[last]
    return np.einsum("ksii->ks", prods[rows])


@functools.lru_cache(maxsize=64)
def _product_plan(ctypes: tuple[tuple[int, ...], ...]) -> tuple:
    """Rows of the distinct prefixes of the ascending ``ctypes``, and each type's row.

    A level ``(lo, hi, prefix, last)`` puts the m-part prefixes in rows
    lo..hi, each the product of its (m-1)-part prefix's row (None for
    m = 1) and transfer matrix ``last`` = c_m - 1.
    """
    rows: dict[tuple[int, ...], int] = {}
    levels = []
    for m in range(1, max(map(len, ctypes)) + 1):
        level = sorted({ct[:m] for ct in ctypes if len(ct) >= m})
        lo = len(rows)
        rows.update((ct, lo + k) for k, ct in enumerate(level))
        prefix = np.array([rows[ct[:-1]] for ct in level]) if m > 1 else None
        levels.append((lo, len(rows), prefix, np.array([ct[-1] - 1 for ct in level])))
    return tuple(levels), np.array([rows[ct] for ct in ctypes])


def block_invariant(
    sd: SpectralDecomposition,
    block: tuple[int, ...],
    pattern: tuple[int, ...],
    side: str = "L",
) -> complex:
    """Patterned word sum over one degeneracy block (0-based, distinct positions).

    ``pattern`` is the ``cycle_type_representatives`` permutation of one
    cycle type; slot s of the word pairs A_{f(s)} with the dagger of
    A_{f(pattern[(s+1) % tau])}, and the sum runs over all assignments f
    of block indices to slots.  The value is invariant under any unitary
    remix of the block's eigenvectors, and equals the signature's entry
    bit for bit.
    """
    if side not in SIDES:
        raise ValueError("side must be 'L' or 'R'")
    reps = {perm: ctype for ctype, perm in cycle_type_representatives(len(pattern))}
    ctype = reps.get(tuple(pattern))
    if not ctype:  # not a permutation, not its type's representative, or empty
        raise PatternMismatch(f"pattern {pattern} is not a cycle type's representative")
    if not block or len(set(block)) != len(block) or not all(0 <= p < sd.rank for p in block):
        raise IndexOutOfRange(f"block {block} is not distinct positions below rank {sd.rank}")
    grams = _side_grams(_block_gram(np.stack([sd.coeff_matrices[p] for p in block]))[None])
    return complex(_block_network_value(grams, (ctype,))[0, SIDES.index(side)])


# ---------------------------------------------------------------------------
# signatures


@dataclass
class WordGroup:
    """All balanced words of one side and length, evaluated in bulk."""

    side: str
    length: int
    letters: np.ndarray  # (W, length, 2), 1-based original indices, uint8 up to rank 255
    values: np.ndarray   # (W,) complex


def _word_key(side: str, row) -> str:
    return side + ":" + "".join(f"({int(i)},{int(j)})" for i, j in row)


def _letter_labels(rank: int) -> np.ndarray:
    """``labels[i, j]`` is the key text ``(i,j)`` of letter (i, j), 1-based."""
    r = range(rank + 1)
    return np.array([[f"({i},{j})" for j in r] for i in r], dtype=object)


def _word_bodies(letters: np.ndarray, labels: np.ndarray) -> list[str]:
    """The key of each word of ``letters`` after its ``side:``."""
    columns = labels[letters[..., 0], letters[..., 1]].T.tolist()  # no list per word
    return list(map("".join, zip(*columns)))


@dataclass
class InvariantSignature:
    """Decomposition-independent invariants of one density matrix."""

    dim_local: int
    rank: int
    block_sizes: tuple[int, ...]
    power_traces: np.ndarray
    balanced_groups: list[WordGroup]  # L then R per length; the two share one letters array
    block_invariants: dict[str, complex]
    tau_balanced: int
    tau_block: int
    _balanced_cache: dict[str, complex] | None = field(default=None, repr=False)

    @property
    def balanced_words(self) -> dict[str, complex]:
        """Canonical word key -> value, in group order; built on first use."""
        if self._balanced_cache is None:
            labels, groups = _letter_labels(self.rank), self.balanced_groups
            out: dict[str, complex] = {}
            for left, right in zip(groups[0::2], groups[1::2]):  # one letters array
                bodies = _word_bodies(left.letters, labels)
                for g in (left, right):
                    out.update(zip(map((g.side + ":").__add__, bodies), g.values.tolist()))
            self._balanced_cache = out
        return self._balanced_cache


def _balanced_budget_length(n_letters: int, cap: int) -> int:
    """Longest word length whose cumulative two-sided count fits the budget."""
    total, best = 0, 0
    for length in range(1, cap + 1):
        total += 2 * count_balanced_words(n_letters, length)
        if total > WORD_EVAL_LIMIT:
            break
        best = length
    return best


@functools.lru_cache(maxsize=4096)
def _block_key(side: str, block: tuple[int, ...], tau: int, ctype: tuple[int, ...]) -> str:
    ids = ",".join(str(p + 1) for p in block)
    cts = ",".join(str(c) for c in ctype)
    return f"{side}:block({ids}):len{tau}:type({cts})"


def fingerprint_from_decomposition(
    sd: SpectralDecomposition,
    power: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
    blocks: tuple[tuple[int, ...], ...] | None = None,
) -> InvariantSignature:
    """Assemble the signature from an existing decomposition, with words up
    to length ``tol.effective_tau_cap``."""
    if blocks is None:
        blocks = sd.blocks
    cap = tol.effective_tau_cap(sd.dim_local)
    singles = sorted(b[0] for b in blocks if len(b) == 1)
    groups: list[WordGroup] = []
    tau_bal = 0
    if singles:
        tau_bal = _balanced_budget_length(len(singles), cap)
        sub = np.stack([sd.coeff_matrices[p] for p in singles])
        # 1-based original indices, in the narrowest type that holds the rank
        orig = (np.array(singles) + 1).astype(np.min_scalar_type(sd.rank))
        # contiguous singles (every nondegenerate state) map by a shift,
        # which is several times faster than a gather
        shift = orig[0] if orig[-1] - orig[0] == orig.size - 1 else None
        for length in range(1, tau_bal + 1):
            arr = _canonical_letter_arrays(len(singles), length)
            vals = _batch_word_values(sub, arr, "L")
            right = vals[_right_to_left_index(len(singles), length)]
            # mapped last: the cached plan and index of a first call are then
            # not allocated above this large array, which would pin the heap
            mapped = orig[arr] if shift is None else arr + shift
            groups.append(WordGroup("L", length, mapped, vals))
            groups.append(WordGroup("R", length, mapped, right))
    block_vals: dict[str, complex] = {}
    multi = [block for block in blocks if len(block) > 1]
    if multi:
        # one call for every cycle type, over all blocks and both sides
        grams = _side_grams(np.stack([
            _block_gram(np.stack([sd.coeff_matrices[p] for p in block])) for block in multi
        ]))
        ctypes = tuple(ct for tau in range(1, cap + 1) for ct, _ in cycle_type_representatives(tau))
        values = _block_network_value(grams, ctypes).tolist() if ctypes else []
        for b, block in enumerate(multi):
            for s, side in enumerate(SIDES):
                for ctype, per_gram in zip(ctypes, values):
                    key = _block_key(side, block, sum(ctype), ctype)
                    block_vals[key] = per_gram[s * len(multi) + b]
    return InvariantSignature(
        dim_local=sd.dim_local,
        rank=sd.rank,
        block_sizes=tuple(len(b) for b in blocks),
        power_traces=np.asarray(power, dtype=float),
        balanced_groups=groups,
        block_invariants=block_vals,
        tau_balanced=tau_bal,
        tau_block=cap,
    )


def fingerprint(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> InvariantSignature:
    """Signature of a density matrix; deterministic given input bits.

    The word-length cap is ``tol.tau_cap`` (the CLI's ``--tau-cap``).
    """
    sd = spectral_decompose(rho, tol)
    return fingerprint_from_decomposition(sd, power_traces(rho), tol)


def values_close(a, b, eps: float):
    """Relative comparison above magnitude one, absolute below, elementwise
    on arrays; NaN is close to nothing."""
    return np.abs(a - b) <= eps * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def power_trace_mismatch(
    ja: np.ndarray, jb: np.ndarray, eps_inv: float
) -> tuple[str, str, complex, complex] | None:
    """The first J^s on which two power-trace arrays differ, as
    (kind, key, value_a, value_b), else None; ``values_close`` elementwise."""
    close = values_close(ja, jb, eps_inv)
    if close.all():
        return None
    s = int(np.argmin(close))
    return ("power_trace", f"J^{s + 1}", complex(ja[s]), complex(jb[s]))


def compare_signatures(
    a: InvariantSignature, b: InvariantSignature, eps_inv: float
) -> tuple[str, str, complex, complex] | None:
    """First mismatching entry as (kind, key, value_a, value_b), else None."""
    if a.dim_local != b.dim_local:
        return ("structure", "dim_local", a.dim_local, b.dim_local)
    if a.rank != b.rank:
        return ("structure", "rank", a.rank, b.rank)
    if a.block_sizes != b.block_sizes:
        return ("structure", "block_sizes", 0, 0)
    mismatch = power_trace_mismatch(a.power_traces, b.power_traces, eps_inv)
    if mismatch is not None:
        return mismatch
    if len(a.balanced_groups) != len(b.balanced_groups):
        return ("structure", "balanced_groups", 0, 0)
    for ga, gb in zip(a.balanced_groups, b.balanced_groups):
        if ga.side != gb.side or ga.letters.shape != gb.letters.shape or not np.array_equal(
            ga.letters, gb.letters
        ):
            return ("structure", f"{ga.side}:len{ga.length}", 0, 0)
        va, vb = ga.values, gb.values
        close = values_close(va, vb, eps_inv)
        if not np.all(close):
            k = int(np.argmin(close))
            return (
                "balanced_word",
                _word_key(ga.side, ga.letters[k]),
                complex(va[k]),
                complex(vb[k]),
            )
    for key, val in a.block_invariants.items():
        if key not in b.block_invariants:
            return ("structure", key, val, 0j)
        if not values_close(val, b.block_invariants[key], eps_inv):
            return ("block_invariant", key, val, b.block_invariants[key])
    return None

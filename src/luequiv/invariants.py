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

Evaluation.  A word of length L splits into a prefix of ceil(L/2) letters
and a suffix of floor(L/2); every suffix is multiplied out once per call,
each distinct prefix once per block of rows, and the word's value is
Tr(P S).  Right-side words
are not evaluated at all: by trace cyclicity

    Tr(A_{i1}^dag A_{j1} ... A_{iL}^dag A_{jL})
        = Tr(A_{j1} A_{i2}^dag ... A_{jL} A_{i1}^dag),

so the right word ((i1,j1), ..., (iL,jL)) equals the left word
((j1,i2), (j2,i3), ..., (jL,i1)), which is balanced; on the canonical
words this is a permutation, and the right values are the left ones read
in that order.  Block sums replay a contraction plan compiled once per
pattern, side and N.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import BudgetExceeded, IndexOutOfRange, PatternMismatch
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

    def canonical(self) -> "Word":
        """Lexicographically minimal cyclic rotation (trace cyclicity)."""
        rots = [self.letters[r:] + self.letters[:r] for r in range(len(self.letters))]
        return Word(self.side, min(rots))

    def key(self) -> str:
        return self.side + ":" + "".join(f"({i},{j})" for i, j in self.letters)

    def is_balanced(self) -> bool:
        count: dict[int, int] = {}
        for i, j in self.letters:
            count[i] = count.get(i, 0) + 1
            count[j] = count.get(j, 0) - 1
        return all(v == 0 for v in count.values())


def power_traces(rho: DensityMatrix) -> np.ndarray:
    """Tr(rho^s) for s = 1 .. N^2, computed from the full spectrum."""
    lams = np.linalg.eigvalsh(rho.matrix)
    nn = rho.dim_local * rho.dim_local
    return np.array([float(np.sum(lams**s)) for s in range(1, nn + 1)])


def word_matrix(sd: SpectralDecomposition, word: Word) -> np.ndarray:
    """Ordered product of the word's factors."""
    n = sd.rank
    out = np.eye(sd.dim_local, dtype=complex)
    for i, j in word.letters:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"letter ({i},{j}) exceeds rank {n}")
        a, b = sd.coeff_matrices[i - 1], sd.coeff_matrices[j - 1]
        out = out @ (a @ b.conj().T if word.side == "L" else a.conj().T @ b)
    return out


def word_trace(sd: SpectralDecomposition, word: Word) -> complex:
    return complex(np.trace(word_matrix(sd, word)))


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
    permutation of the rows.
    """
    arr = _canonical_letter_arrays(n, length).astype(np.int64)
    i, j = arr[:, :, 0], arr[:, :, 1]
    base = n * n
    rows = _pack(i * n + j, base)  # ascending, and already canonical
    moved = _least_rotation(_pack(j * n + np.roll(i, -1, axis=1), base), base, length)
    index = np.searchsorted(rows, moved)
    index.flags.writeable = False
    return index


def enumerate_balanced_words(
    n: int, max_len: int, side: str = "L", limit: int | None = None
) -> list[Word]:
    """All canonical balanced words up to ``max_len`` in deterministic order."""
    if n < 1 or max_len < 1:
        raise ValueError("rank and max length must be at least 1")
    total = 0
    for length in range(1, max_len + 1):
        total += count_balanced_words(n, length)
        if limit is not None and total > limit:
            raise BudgetExceeded(
                f"balanced enumeration needs {total} evaluations, limit is {limit}"
            )
    words = []
    for length in range(1, max_len + 1):
        arr = _canonical_letter_arrays(n, length)
        for row in arr:
            words.append(Word(side, tuple((int(i) + 1, int(j) + 1) for i, j in row)))
    return words


def _prefix_products(gens: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of each row's factors, built over shared prefixes.

    Returns (prods, pid) with prods[pid[w]] the ordered product of the
    factors ``gens[codes[w]]``.  Level k multiplies only rows whose first
    k+1 letters differ from the row before, so rows sorted by packed code
    share every common prefix; unsorted rows stay correct, with less sharing.
    """
    prods, pid = gens, codes[:, 0]
    changed = codes[1:, 0] != codes[:-1, 0]
    for k in range(1, codes.shape[1]):
        changed |= codes[1:, k] != codes[:-1, k]
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        prods = prods[pid[starts]] @ gens[codes[starts, k]]
        pid = np.concatenate(([0], np.cumsum(changed)))
    return prods, pid


# rows per block of the word kernel: prefix products and traces are formed
# one block at a time, so no temporary grows with the number of words
_WORD_BLOCK = 4096


def _batch_word_values(
    stack: np.ndarray, arr: np.ndarray, side: str
) -> np.ndarray:
    """Evaluate many equal-length words at once.

    ``stack`` is the (n, N, N) array of coefficient matrices; ``arr`` holds
    0-based letters with shape (W, L, 2).  The n^2 letter factors are built
    once.  A word splits into a prefix of ceil(L/2) letters and a suffix of
    floor(L/2).  Every possible suffix is multiplied out once per call, so
    a row's packed suffix code indexes that table; there are n^(2 floor(L/2))
    <= n^L <= L * W of them.  Each distinct prefix is multiplied out once
    per block of ``_WORD_BLOCK`` rows (``_prefix_products``), and the word's
    value is Tr(P S).
    """
    n, length = stack.shape[0], arr.shape[1]
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    dstack = stack.conj().transpose(0, 2, 1)
    first, second = (stack, dstack) if side == "L" else (dstack, stack)
    gens = (first[:, None] @ second[None, :]).reshape(n * n, *stack.shape[1:])
    if length == 1:
        return np.einsum("cii->c", gens)[arr[:, 0, 0].astype(np.intp) * n + arr[:, 0, 1]]
    half = (length + 1) // 2
    base, tail = n * n, length - half
    suffixes, spid = _prefix_products(gens, np.indices((base,) * tail).reshape(tail, -1).T)
    out = np.empty(arr.shape[0], dtype=complex)
    for lo in range(0, arr.shape[0], _WORD_BLOCK):
        block = arr[lo : lo + _WORD_BLOCK]
        codes = block[:, :, 0].astype(np.intp) * n + block[:, :, 1]
        prefixes, pid = _prefix_products(gens, codes[:, :half])
        sid = spid[_pack(codes[:, half:], base)]
        out[lo : lo + _WORD_BLOCK] = np.einsum("wab,wba->w", prefixes[pid], suffixes[sid])
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


@functools.lru_cache(maxsize=1024)
def _block_plan(pattern: tuple[int, ...], side: str, dim: int) -> tuple:
    """Contraction plan of one patterned block sum, compiled once per key.

    The sum is a network of tau copies of the block's N^4 gram tensor.
    ``optimize=True`` caps intermediates at the largest input (N^4
    entries), which leaves the 5- and 6-cycles no pairwise contraction and
    falls back to one loop over all 2*tau indices.  The greedy path under a
    generous cap contracts pairwise; its largest intermediate is N^6
    entries.  The path depends only on the subscripts and N, so it is
    searched once and replayed here into steps ``(positions, equations,
    shapes)``: a pairwise step reduces each operand with one einsum to
    (contracted, kept) axes, multiplies the two as matrices and keeps the
    result's axes in that order, so no step re-validates the path.
    """
    tau = len(pattern)
    inv = [0] * tau
    for s, u in enumerate(pattern):
        inv[u] = s
    syms = string.ascii_lowercase
    a = syms[:tau]
    b = syms[tau : 2 * tau]
    subs = []
    for u in range(tau):
        s_star = inv[u]
        prev = (s_star - 1) % tau
        if side == "L":
            subs.append(a[u] + b[u] + a[s_star] + b[prev])
        else:
            subs.append(b[prev] + a[s_star] + b[u] + a[u])
    shape = np.empty((dim,) * 4)
    path, _ = np.einsum_path(
        ",".join(subs) + "->", *([shape] * tau), optimize=("greedy", 10**8)
    )
    steps = []
    for positions in path[1:]:
        positions = tuple(sorted(positions, reverse=True))
        taken = [subs.pop(p) for p in positions]
        later = set("".join(subs))
        if len(taken) != 2:
            keep = "".join(sorted(set("".join(taken)) & later))
            steps.append((positions, (",".join(taken) + "->" + keep,), None))
            subs.append(keep)
            continue
        # every index occurs twice in the network, so one shared by x and y
        # is summed here and never survives as a batch axis
        x, y = taken
        summed = "".join(sorted(set(x) & set(y) - later))
        keep_x = "".join(sorted(set(x) & later))
        keep_y = "".join(sorted(set(y) & later))
        steps.append((
            positions,
            (x + "->" + keep_x + summed, y + "->" + summed + keep_y),
            (
                (dim ** len(keep_x), dim ** len(summed)),
                (dim ** len(summed), dim ** len(keep_y)),
                (dim,) * (len(keep_x) + len(keep_y)),
            ),
        ))
        subs.append(keep_x + keep_y)
    return tuple(steps)


def _block_network_value(gram: np.ndarray, pattern: tuple[int, ...], side: str) -> complex:
    """Contract the patterned block sum as a tensor network.

    ``gram`` is the block's ``_block_gram`` tensor.  The value equals the
    literal sum over all index assignments of the word whose dagger slot
    after position s carries label pattern[(s+1) % tau].
    """
    operands = [gram] * len(pattern)
    for positions, equations, shapes in _block_plan(pattern, side, gram.shape[0]):
        taken = [operands.pop(p) for p in positions]
        if shapes is None:
            operands.append(np.einsum(equations[0], *taken))
        else:
            x = np.einsum(equations[0], taken[0]).reshape(shapes[0])
            y = np.einsum(equations[1], taken[1]).reshape(shapes[1])
            operands.append((x @ y).reshape(shapes[2]))
    return complex(operands[0])


def block_invariant(
    sd: SpectralDecomposition,
    block: tuple[int, ...],
    pattern: tuple[int, ...],
    side: str = "L",
) -> complex:
    """Patterned word sum over one degeneracy block (0-based positions).

    ``pattern`` is a permutation of range(len(pattern)); slot s of the word
    pairs A_{f(s)} with the dagger of A_{f(pattern[(s+1) % tau])}, and the
    sum runs over all assignments f of block indices to slots.  The value
    is invariant under any unitary remix of the block's eigenvectors.
    """
    if side not in SIDES:
        raise ValueError("side must be 'L' or 'R'")
    tau = len(pattern)
    if tau < 1 or sorted(pattern) != list(range(tau)):
        raise PatternMismatch(f"pattern {pattern} is not a permutation of slots")
    for p in block:
        if not (0 <= p < sd.rank):
            raise IndexOutOfRange(f"block position {p} exceeds rank {sd.rank}")
    gram = _block_gram(np.stack([sd.coeff_matrices[p] for p in block]))
    return _block_network_value(gram, tuple(pattern), side)


# ---------------------------------------------------------------------------
# signatures


@dataclass
class WordGroup:
    """All balanced words of one side and length, evaluated in bulk."""

    side: str
    length: int
    letters: np.ndarray  # (W, length, 2), 1-based original indices
    values: np.ndarray   # (W,) complex


def _word_key(side: str, row) -> str:
    return side + ":" + "".join(f"({int(i)},{int(j)})" for i, j in row)


@dataclass
class InvariantSignature:
    """Decomposition-independent invariants of one density matrix."""

    dim_local: int
    rank: int
    block_sizes: tuple[int, ...]
    power_traces: np.ndarray
    balanced_groups: list[WordGroup]
    block_invariants: dict[str, complex]
    tau_balanced: int
    tau_block: int
    _balanced_cache: dict[str, complex] | None = field(default=None, repr=False)

    @property
    def balanced_words(self) -> dict[str, complex]:
        """Canonical word key -> value; built on demand (keys are slow)."""
        if self._balanced_cache is None:
            # letters are 1-based indices <= rank; code i*m + j labels (i, j)
            m = self.rank + 1
            labels = np.array([f"({c // m},{c % m})" for c in range(m * m)], dtype=object)
            out: dict[str, complex] = {}
            for g in self.balanced_groups:
                codes = g.letters[:, :, 0] * m + g.letters[:, :, 1]
                keys = map((g.side + ":").__add__, map("".join, labels[codes].tolist()))
                out.update(zip(keys, g.values.tolist()))
            self._balanced_cache = out
        return self._balanced_cache


def _balanced_budget_length(n_letters: int, cap: int, limit: int) -> int:
    """Longest word length whose cumulative two-sided count fits the budget."""
    total, best = 0, 0
    for length in range(1, cap + 1):
        total += 2 * count_balanced_words(n_letters, length)
        if total > limit:
            break
        best = length
    return best


def _block_key(side: str, block: tuple[int, ...], tau: int, ctype: tuple[int, ...]) -> str:
    ids = ",".join(str(p + 1) for p in block)
    cts = ",".join(str(c) for c in ctype)
    return f"{side}:block({ids}):len{tau}:type({cts})"


def fingerprint_from_decomposition(
    sd: SpectralDecomposition,
    power: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
    blocks: tuple[tuple[int, ...], ...] | None = None,
    tau_cap: int | None = None,
) -> InvariantSignature:
    """Assemble the signature from an existing decomposition."""
    if blocks is None:
        blocks = sd.blocks
    cap = tau_cap if tau_cap is not None else tol.effective_tau_cap(sd.dim_local)
    singles = sorted(b[0] for b in blocks if len(b) == 1)
    groups: list[WordGroup] = []
    tau_bal = 0
    if singles:
        tau_bal = _balanced_budget_length(len(singles), cap, tol.word_eval_limit)
        sub = np.stack([sd.coeff_matrices[p] for p in singles])
        orig = np.array(singles, dtype=np.int64) + 1  # 1-based original indices
        # contiguous singles (every nondegenerate state) map by a shift,
        # which is several times faster than a gather
        shift = orig[0] if orig[-1] - orig[0] == orig.size - 1 else None
        for length in range(1, tau_bal + 1):
            arr = _canonical_letter_arrays(len(singles), length)
            mapped = orig[arr] if shift is None else arr + shift
            vals = _batch_word_values(sub, arr, "L")
            right = vals[_right_to_left_index(len(singles), length)]
            groups.append(WordGroup("L", length, mapped, vals))
            groups.append(WordGroup("R", length, mapped, right))
    block_vals: dict[str, complex] = {}
    for block in blocks:
        if len(block) == 1:
            continue
        gram = _block_gram(np.stack([sd.coeff_matrices[p] for p in block]))
        for side in SIDES:
            for tau in range(1, cap + 1):
                for ctype, perm in cycle_type_representatives(tau):
                    block_vals[_block_key(side, block, tau, ctype)] = _block_network_value(
                        gram, perm, side
                    )
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


def fingerprint(
    rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL, tau_cap: int | None = None
) -> InvariantSignature:
    """Signature of a density matrix; deterministic given input bits."""
    sd = spectral_decompose(rho, tol)
    return fingerprint_from_decomposition(sd, power_traces(rho), tol, tau_cap=tau_cap)


def values_close(a: complex, b: complex, eps: float) -> bool:
    """Relative comparison above magnitude one, absolute below."""
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


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
    for s, (x, y) in enumerate(zip(a.power_traces, b.power_traces), start=1):
        if not values_close(x, y, eps_inv):
            return ("power_trace", f"J^{s}", complex(x), complex(y))
    if len(a.balanced_groups) != len(b.balanced_groups):
        return ("structure", "balanced_groups", 0, 0)
    for ga, gb in zip(a.balanced_groups, b.balanced_groups):
        if ga.side != gb.side or ga.letters.shape != gb.letters.shape or not np.array_equal(
            ga.letters, gb.letters
        ):
            return ("structure", f"{ga.side}:len{ga.length}", 0, 0)
        va, vb = ga.values, gb.values
        bad = np.abs(va - vb) > eps_inv * np.maximum(
            1.0, np.maximum(np.abs(va), np.abs(vb))
        )
        if np.any(bad):
            k = int(np.argmax(bad))
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

"""Exact reference computations: the ground truth every estimator is judged against.

These run in linear-to-quasilinear time and read the whole input; they are
deliberately outside the query-accounting model. Costs follow the bit
conventions used throughout the package:

* RLE: a maximal run of length ell over an alphabet of size sigma costs
  ``ceil(log2(ell + 1)) + ceil(log2(sigma))`` bits; the total is the sum over
  runs. All logs are base 2.
* LZ77: greedy left-to-right parsing where each segment is the longest
  substring that also starts at some earlier position (the two occurrences
  may overlap); a never-seen symbol is a length-1 literal. The cost counts
  emitted symbols, one per segment or literal. The binary encoding of that
  symbol stream is at most a factor ~2*log2(n) longer; only the symbol count
  is exposed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accessor import _alphabet_for, distinct_count


def as_symbols(w) -> np.ndarray:
    """Coerce str/bytes/array input to a 1-D integer symbol array."""
    if isinstance(w, str):
        return np.frombuffer(w.encode("utf-8"), dtype=np.uint8)
    if isinstance(w, (bytes, bytearray)):
        return np.frombuffer(bytes(w), dtype=np.uint8)
    arr = np.asarray(w)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional symbol sequence")
    return arr


def alphabet_bits(alphabet_size: int) -> int:
    """Per-run symbol overhead: ceil(log2(sigma)), sigma >= 2."""
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    return (int(alphabet_size) - 1).bit_length()


def run_cost(lengths, alphabet_size: int):
    """Bits of RLE runs of the given lengths (an int, or an array of them,
    each >= 1): ceil(log2(ell + 1)) + ceil(log2(sigma)) per run.

    ceil(log2(ell + 1)) is the binary exponent e of ell = m * 2^e,
    0.5 <= m < 1: for an int, the exponent that math.frexp returns; for an
    array, the biased exponent field of float64(ell) minus 1022. Both are
    exact for every ell below 2^53, and every n is below that."""
    s_bits = alphabet_bits(alphabet_size)
    if isinstance(lengths, int):  # a numpy pass costs microseconds, frexp nanoseconds
        return math.frexp(lengths)[1] + s_bits
    bits = np.array(lengths, dtype=np.float64).view(np.int64)
    bits >>= 52
    bits += s_bits - 1022
    return bits


@dataclass(frozen=True, eq=False)
class CostBreakdown:
    """Exact compression cost plus its per-part decomposition.

    The parts are three aligned int64 columns: 1-indexed ``starts``,
    ``lengths`` and ``costs``, in order, tiling [1, n] exactly. For RLE a
    part is a maximal run and the cost is in bits; for LZ a part is a
    compressed segment and the cost is 1 symbol.
    """

    total_cost: int
    starts: np.ndarray
    lengths: np.ndarray
    costs: np.ndarray
    scheme: str = ""


# Symbols per step of the run pass. On 1e8 mapped random bits (2-core VM) 2^18
# took 0.48 s and 7 MB of RSS, 2^20 took 0.81 s and 22 MB, 2^16 0.55 s.
RUN_CHUNK = 1 << 18


def _run_length_chunks(arr: np.ndarray, chunk: int | None = None):
    """The lengths of the maximal runs of ``arr`` in order, one array per
    ``chunk`` symbols (default ``RUN_CHUNK``), in O(chunk) extra memory: the
    run still open at a chunk's end is carried into the next."""
    n = arr.size
    if n == 0:
        raise ValueError("empty string")
    chunk = chunk or RUN_CHUNK
    open_at = 0  # 0-indexed start of the run not yet closed
    for lo in range(1, n, chunk):
        hi = min(lo + chunk, n)
        starts = np.flatnonzero(arr[lo:hi] != arr[lo - 1 : hi - 1])  # offsets from lo
        if starts.size:
            lengths = np.empty(starts.size, dtype=np.int64)
            lengths[0] = lo + int(starts[0]) - open_at
            np.subtract(starts[1:], starts[:-1], out=lengths[1:])
            yield lengths
            open_at = lo + int(starts[-1])
    yield np.array([n - open_at])


def rle_total_cost(w, alphabet_size: int) -> int:
    """``exact_rle_cost(w, alphabet_size).total_cost`` from one chunked pass,
    with no per-run columns. ``alphabet_size`` is trusted, not checked against
    the symbols: a :class:`QueryCountedString` has checked it."""
    chunks = _run_length_chunks(as_symbols(w))
    return sum(int(run_cost(lengths, alphabet_size).sum()) for lengths in chunks)


def rle_part_chunks(w, alphabet_size: int, chunk: int | None = None):
    """The columns of ``exact_rle_cost(w, alphabet_size)`` (1-indexed
    starts, lengths, costs), one triple per ``chunk`` symbols (default
    ``RUN_CHUNK``), in O(chunk) memory. ``alphabet_size`` is trusted, as in
    :func:`rle_total_cost`."""
    start = 1
    for lengths in _run_length_chunks(as_symbols(w), chunk):
        starts = np.cumsum(lengths)
        end = int(starts[-1])
        starts -= lengths
        starts += start
        yield starts, lengths, run_cost(lengths, alphabet_size)
        start += end


def exact_rle_cost(w, alphabet_size: int | None = None) -> CostBreakdown:
    """Exact run-length encoding cost of ``w``.

    ``alphabet_size`` is taken as a :class:`QueryCountedString` takes it:
    it defaults to the number of distinct symbols present, must not be
    smaller than that number, and counts as at least 2.
    """
    arr = as_symbols(w)
    sigma = _alphabet_for(arr, alphabet_size)
    starts, lengths, costs = map(np.concatenate, zip(*rle_part_chunks(arr, sigma)))
    return CostBreakdown(int(costs.sum()), starts, lengths, costs, scheme="rle")


def exact_lz_cost(w) -> CostBreakdown:
    """Exact greedy-LZ77 cost: number of emitted symbols.

    Uses the suffix-array factorization of :func:`compest.suffixes.lz_factorize`
    (longest previous factors from the suffix and LCP arrays); semantically
    identical to the direct quadratic longest-match scan (the tests compare
    the two), in O(n log^2 n) time.
    """
    from .suffixes import lz_factorize  # the suffix layer loads only for LZ and distinct counts

    arr = as_symbols(w)
    if arr.size == 0:
        raise ValueError("empty string")
    starts, lengths = lz_factorize(arr)
    return CostBreakdown(starts.size, starts + 1, lengths, np.ones_like(starts), scheme="lz")


def exact_distinct_substrings(w, ell: int) -> int:
    """Number of distinct (possibly overlapping) length-``ell`` substrings."""
    from .suffixes import distinct_length_profile

    arr = as_symbols(w)
    n = arr.size
    if not 1 <= ell <= n:
        raise ValueError(f"substring length {ell} outside [1, {n}]")
    return int(distinct_length_profile(arr, ell)[ell - 1])


def distinct_profile(w, ell_max: int) -> np.ndarray:
    """Distinct-substring counts for every length 1..ell_max at once.

    Returns ell_max entries; lengths past the string's length count 0.
    Suffix-array based, like :func:`exact_distinct_substrings`; the tests
    check both against a brute-force window hash.
    """
    from .suffixes import distinct_length_profile

    arr = as_symbols(w)
    if arr.size == 0:
        raise ValueError("empty string")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    return distinct_length_profile(arr, ell_max)


def exact_color_count(tau) -> int:
    """Number of distinct symbols ("colors") in ``tau``."""
    arr = as_symbols(tau)
    if arr.size == 0:
        raise ValueError("empty string")
    return distinct_count(arr)


@dataclass(frozen=True)
class LemmaCheck:
    """One verified inequality: holds/failed plus the tightest witness."""

    name: str
    holds: bool
    witness: dict

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class StructuralReport:
    """Joint check of the three structural facts tying LZ cost to substring diversity.

    With d_ell = distinct length-ell substrings, C = exact LZ cost,
    m = max over ell <= ell0 of d_ell / ell, and n_k = number of compressed
    segments of length k (excluding the final segment):

    (a) d_ell <= C * ell for every ell in [ell0];
    (b) C <= 4 * (m * log2(ell0) + n / ell0)  (checked for ell0 >= 2; at
        ell0 = 1 the bound is vacuous and the check is skipped);
    (c) sum_{k <= ell} k * n_k <= 2 * ell * (m + 1) for every
        ell <= floor(ell0 / 2).

    Any failure is a bug, not a property of the input: these are theorems.
    """

    n: int
    ell0: int
    c_lz: int
    m: float
    d: tuple
    checks: tuple

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def __getitem__(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_structural_lemmas(w, ell0: int) -> StructuralReport:
    """Evaluate the structural inequalities on ``w`` with cutoff ``ell0``."""
    arr = as_symbols(w)
    n = arr.size
    if not 1 <= ell0 <= n:
        raise ValueError(f"ell0 {ell0} outside [1, {n}]")
    breakdown = exact_lz_cost(arr)
    c_lz = breakdown.total_cost
    d = distinct_profile(arr, ell0)
    m = float(max(d[ell - 1] / ell for ell in range(1, ell0 + 1)))
    checks = []

    margins = [(int(d[ell - 1]), c_lz * ell, ell) for ell in range(1, ell0 + 1)]
    worst = min(margins, key=lambda t: t[1] - t[0])
    checks.append(
        LemmaCheck(
            "diversity_lower_bound",
            all(lhs <= rhs for lhs, rhs, _ in margins),
            {"ell": worst[2], "d_ell": worst[0], "c_lz_times_ell": worst[1]},
        )
    )

    if ell0 >= 2:
        bound = 4.0 * (m * np.log2(ell0) + n / ell0)
        checks.append(
            LemmaCheck("diversity_upper_bound", c_lz <= bound, {"c_lz": c_lz, "bound": bound})
        )
    else:
        checks.append(LemmaCheck("diversity_upper_bound", True, {"skipped": "ell0 < 2"}))

    seg_lengths = breakdown.lengths[:-1]  # final segment excluded
    half = ell0 // 2
    if half >= 1:
        n_k = np.bincount(np.minimum(seg_lengths, half + 1), minlength=half + 2)
        weighted = np.arange(half + 1) * n_k[: half + 1]
        sums = np.cumsum(weighted)  # sums[ell] = sum_{k<=ell} k * n_k
        ells = np.arange(1, half + 1)
        ok = sums[1:] <= 2.0 * ells * (m + 1)
        worst_i = int(np.argmin(2.0 * ells * (m + 1) - sums[1:]))
        checks.append(
            LemmaCheck(
                "short_segment_mass",
                bool(ok.all()),
                {
                    "ell": int(ells[worst_i]),
                    "sum_k_nk": int(sums[1 + worst_i]),
                    "bound": float(2.0 * ells[worst_i] * (m + 1)),
                },
            )
        )
    else:
        checks.append(LemmaCheck("short_segment_mass", True, {"skipped": "ell0 < 2"}))

    return StructuralReport(
        n=n, ell0=ell0, c_lz=c_lz, m=m, d=tuple(int(x) for x in d), checks=tuple(checks)
    )

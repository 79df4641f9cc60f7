"""Hard-instance families for stress-testing the estimators.

Four families, each the witness construction behind a lower-bound or
tightness argument:

* ``wk`` / :func:`generate_wk` - binary strings of k blocks, odd blocks all
  ones, each even block hiding a single zero at a random offset. Cost is
  Theta(k * log(n/k)) but the zeros are needles: distinguishing different k
  takes many queries.
* ``coin`` / :func:`generate_coin_runs` - floor(n/3) biased coin flips, heads
  emitting three unit runs, tails one run of length 3. Distributions with
  nearby biases have costs that differ by Theta(eps * n) while the strings
  are statistically hard to tell apart.
* ``lztight`` / :func:`generate_lz_tight` - phased strings over the alphabet
  {1..m} with only O(ell * m) distinct length-ell substrings yet LZ cost
  Omega(m * log(ell0)); shows the diversity upper bound is asymptotically
  tight.
* ``col2lz`` / :func:`generate_colors_to_lz` - maps a colors instance to an
  LZ instance by replacing each color with a memoized uniform block. The
  accessor is lazy: a position read materializes at most one block and costs
  at most one read of the underlying colors string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seed, make_rng
from .accessor import QueryCountedString


def generate_wk(n: int, k: int, seed: int) -> np.ndarray:
    """Binary string of k blocks; even blocks carry one planted zero each."""
    if not 2 <= k <= n // 2:
        raise ValueError("need 2 <= k <= n/2")
    base = n // k
    arr = np.ones(n, dtype=np.uint8)
    rng = make_rng(seed)
    for j in range(2, k + 1, 2):  # 1-indexed block numbers
        start = (j - 1) * base
        block_len = base + (n % k if j == k else 0)
        arr[start + int(rng.integers(0, block_len))] = 0
    return arr


def generate_coin_runs(n: int, p: float, seed: int) -> np.ndarray:
    """String drawn from the biased-coin run-length distribution.

    floor(n/3) flips with heads probability p; heads appends run lengths
    (1, 1, 1), tails appends (3). The output is the unique binary string with
    that run-length sequence starting with 0. When n is not divisible by 3,
    the leading n mod 3 bits are fixed zeros forming their own run (the
    alternation then starts with 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    flips = n // 3
    b = n % 3
    rng = make_rng(seed)
    heads = rng.random(flips) < p
    lengths = np.where(heads[:, None], [1, 1, 1], [3, 0, 0]).ravel()
    lengths = lengths[lengths > 0]
    if b:
        lengths = np.concatenate([[b], lengths])
    first_bit = 0
    bits = (np.arange(lengths.size) + first_bit) % 2
    return np.repeat(bits.astype(np.uint8), lengths)


def generate_lz_tight(m: int, ell0: int) -> np.ndarray:
    """Phased string over {1..m}: phase 1 lists 1..m; phase ell doubles every
    symbol divisible by ell - 1. Deterministic (no randomness involved)."""
    if not 1 <= ell0 <= m:
        raise ValueError("need 1 <= ell0 <= m")
    symbols = np.arange(1, m + 1, dtype=np.int64)
    phases = [symbols]
    for ell in range(2, ell0 + 1):
        reps = np.where(symbols % (ell - 1) == 0, 2, 1)
        phases.append(np.repeat(symbols, reps))
    return np.concatenate(phases)


def binarize(w: np.ndarray, m: int) -> np.ndarray:
    """Expand each symbol of a {1..m} string to ceil(log2 m) fixed-width bits
    (the binary digits of symbol - 1, most significant first)."""
    arr = np.asarray(w, dtype=np.int64)
    if arr.min() < 1 or arr.max() > m:
        raise ValueError("symbols must lie in [1, m]")
    width = max(1, (int(m) - 1).bit_length())
    shifts = np.arange(width - 1, -1, -1)
    return (((arr[:, None] - 1) >> shifts) & 1).astype(np.uint8).ravel()


class _ColorBlockProvider:
    """Lazy block materializer for the colors-to-LZ reduction.

    Position reads resolve to length-k blocks. The first touch of a block
    performs exactly one read of the colors string to learn the block's
    color; the block's content is a uniform random string derived from
    (seed, color), so equal colors always yield byte-identical blocks and
    query order cannot change the instance. It takes no lock of its own: the
    accessor serializes every call, ``materialize()`` included.
    """

    def __init__(self, tau: QueryCountedString, k: int, alphabet_size: int, seed: int):
        self.tau = tau
        self.tau_session = tau.session()
        self.k = int(k)
        self.alphabet_size = int(alphabet_size)
        self.seed = int(seed)
        self._blocks: dict[int, np.ndarray] = {}
        self._by_color: dict[int, np.ndarray] = {}

    @property
    def blocks_materialized(self) -> int:
        return len(self._blocks)

    @property
    def tau_reads(self) -> int:
        return self.tau_session.queries

    def _block_for_color(self, color: int) -> np.ndarray:
        block = self._by_color.get(color)
        if block is None:
            rng = make_rng(derive_seed(self.seed, "block", color))
            block = rng.integers(0, self.alphabet_size, size=self.k).astype(np.int64)
            self._by_color[color] = block
        return block

    def __call__(self, idx0: np.ndarray) -> np.ndarray:
        idx0 = np.asarray(idx0, dtype=np.int64)
        block_ids = idx0 // self.k
        offsets = idx0 % self.k
        uniq, inv = np.unique(block_ids, return_inverse=True)
        missing = [bid for bid in uniq.tolist() if bid not in self._blocks]
        if missing:
            colors = self.tau_session.read_many(np.array(missing, dtype=np.int64) + 1)
            for bid, color in zip(missing, colors.tolist()):
                self._blocks[bid] = self._block_for_color(color)
        table = np.empty((uniq.size, self.k), dtype=np.int64)
        for j, bid in enumerate(uniq.tolist()):
            table[j] = self._blocks[bid]
        return table[inv, offsets]


def generate_colors_to_lz(
    tau: QueryCountedString, alpha_prime: float, alphabet_size: int, seed: int
) -> QueryCountedString:
    """Lazy LZ instance of length n' * k encoding a colors instance.

    k = ceil(1 / alpha_prime), so that a colors count of at most
    alpha_prime * n' forces an LZ cost of at most 2 * alpha_prime * n.
    The returned accessor exposes the block provider as ``.provider`` for
    read-accounting checks.
    """
    n_prime = tau.length
    if not (1.0 / n_prime) < alpha_prime < 1.0:
        raise ValueError("alpha_prime must lie in (1/n', 1)")
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    k = math.ceil(1.0 / alpha_prime)
    provider = _ColorBlockProvider(tau, k, alphabet_size, seed)
    acc = QueryCountedString.from_provider(provider, length=n_prime * k, alphabet_size=alphabet_size)
    acc.provider = provider
    return acc


FAMILIES = ("wk", "coin", "lztight", "col2lz")


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one instance: family, parameters, seed."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")

    def build(self):
        """Materialize the instance: an array, or a lazy accessor for col2lz."""
        p = self.params
        if self.family == "wk":
            return generate_wk(int(p["n"]), int(p["k"]), self.seed)
        if self.family == "coin":
            return generate_coin_runs(int(p["n"]), float(p["p"]), self.seed)
        if self.family == "lztight":
            return generate_lz_tight(int(p["m"]), int(p["ell0"]))
        tau_tokens = p.get("tau")
        if tau_tokens is None:
            n_prime = int(p["n_prime"])
            n_colors = int(p["colors"])
            rng = make_rng(derive_seed(self.seed, "tau"))
            tau_tokens = rng.integers(0, n_colors, size=n_prime)
        tau = QueryCountedString.from_tokens(np.asarray(tau_tokens), alphabet_size=None)
        return generate_colors_to_lz(
            tau, float(p["alpha_prime"]), int(p.get("sigma", 2)), self.seed
        )

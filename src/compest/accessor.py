"""Query-counted access to input strings.

Every estimator reads its input only through a :class:`QuerySession` of this
layer, which records the set of distinct positions that run touched. That
makes query-complexity claims checkable: ``queries_used`` in an
:class:`EstimateReport` is a measurement, not an assumption.

Conventions:

* Positions are 1-indexed (``1 <= t <= n``); byte offsets in files are
  0-indexed and converted at the CLI boundary.
* A query is the first read of a distinct position. Re-reading a position is
  free ("cache-once"); all stated query budgets remain valid upper bounds
  under this accounting.
* Symbols are non-negative integers. Text and files are exposed as their
  bytes; files are memory-mapped read-only rather than copied into memory
  (the one alphabet pass at construction still reads every byte).
* A string is read through a session (counted) or :meth:`materialize`
  (not counted), and in no other way.
* A session's touched-position ledger costs O(q) memory for q distinct
  reads, until q nears n / 64; see :class:`_TouchedSet`.
* :meth:`QuerySession.read_all` marks the ledger full in O(1) and returns
  the backing array read-only, with no index array or copy. Every array a
  session returns fits ``alphabet_size``: the accessor checks it, not callers.
* A session may carry a read budget: a :meth:`QuerySession.read_many` that
  carries its distinct reads past it raises :class:`ReadBudgetSpent`, so a
  sampler can stop mid-pass and scan instead. ``read_all`` is never budgeted.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

_SEEN_CHUNK = 1 << 22


def distinct_count(values) -> int:
    """Number of distinct symbols in ``values``, with no sorted copy for bytes.

    One-byte input (viewed as ``uint8``, which maps distinct values to
    distinct values) fills a 256-entry seen table chunk by chunk, and the pass
    stops once all 256 byte values are seen. A chunk whose ``[min, max]``
    range is already all seen cannot add a symbol, so it costs a min and a
    max instead of the scatter. That holds after the first chunk whenever the
    symbols fill a contiguous byte range (0/1 binary data, ``0..sigma-1``
    tokens): at n = 1e8 such a pass takes 0.04 s instead of 0.41 s. Where the
    range has gaps (``ACGT`` text) every chunk still scatters, 0.42 s instead
    of 0.40 s.

    Other dtypes sort once and count adjacent differences. On int64 input
    that is faster than ``np.unique``, which hashes in numpy 2: 3 ms against
    35 ms for 1e6 symbols out of 2, 0.17 ms against 0.66 ms for 20 000 out
    of 200.
    """
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        return 0
    if arr.dtype.itemsize == 1 and arr.dtype.kind in "biu":
        arr = arr.view(np.uint8)
        seen = np.zeros(256, dtype=bool)
        for lo in range(0, arr.size, _SEEN_CHUNK):
            chunk = arr[lo : lo + _SEEN_CHUNK]
            if not seen[int(chunk.min()) : int(chunk.max()) + 1].all():
                seen[chunk] = True
                if seen.all():
                    break
        return int(np.count_nonzero(seen))
    ordered = np.sort(arr)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _alphabet_for(symbols: np.ndarray, declared: int | None) -> int:
    """``declared`` (default: the distinct count of ``symbols``), at least 2;
    raises if ``symbols`` hold more distinct symbols than declared."""
    inferred = distinct_count(symbols)
    size = inferred if declared is None else int(declared)
    if inferred > size:
        raise ValueError(f"{inferred} distinct symbols exceed declared alphabet size {size}")
    return max(2, size)


class ReadBudgetSpent(Exception):
    """A budgeted session's distinct reads passed its budget."""


class _TouchedSet:
    """Distinct touched 0-indexed positions out of ``length``.

    Held as a sorted unique int64 array while it has at most ``length // 64``
    entries, so a run that reads q positions costs O(q) memory and time. A
    batch that could push it past that bound (checked before the batch is
    sorted) switches it to a ``length``-byte bool bitmap for good: at that
    size the array already takes ``length / 8`` bytes, as much as a
    bit-packed bitmap would.

    While sorted, each :meth:`add` copies the whole array (``np.insert``), so
    it costs O(len + batch log batch): read positions in batches, not one at
    a time. :meth:`fill` marks every position touched in O(1), for good.
    """

    def __init__(self, length: int):
        self._length = length
        self._sorted = np.empty(0, dtype=np.int64)
        self._bitmap: np.ndarray | None = None
        self._full = False

    def __len__(self) -> int:
        if self._full:
            return self._length
        if self._bitmap is None:
            return int(self._sorted.size)
        return int(np.count_nonzero(self._bitmap))

    def fill(self) -> None:  # every position, for good: later adds are no-ops
        self._full, self._sorted, self._bitmap = True, None, None

    def add(self, idx0: np.ndarray) -> None:
        """Record the 0-indexed positions ``idx0``."""
        if self._full:
            return
        idx0 = np.ravel(idx0)
        if self._bitmap is None and self._sorted.size + idx0.size > self._length // 64:
            self._bitmap = np.zeros(self._length, dtype=bool)
            self._bitmap[self._sorted] = True
            self._sorted = None
        if self._bitmap is not None:
            self._bitmap[idx0] = True
            return
        batch = np.sort(idx0)
        keep = np.ones(batch.size, dtype=bool)
        keep[1:] = batch[1:] != batch[:-1]
        if self._sorted.size == 0:
            self._sorted = batch[keep]
            return
        at = np.searchsorted(self._sorted, batch)
        keep &= self._sorted[np.minimum(at, self._sorted.size - 1)] != batch
        self._sorted = np.insert(self._sorted, at[keep], batch[keep])


class QueryCountedString:
    """Read-only string of symbols that hands out query-counted sessions.

    Backed either by an array (in memory, or a read-only map of a file) or
    by a lazy provider callback that materializes symbols on demand (used by
    reduction instances, where generating the whole string up front would
    defeat sublinearity).

    The string itself counts nothing: each estimator run opens its own
    :meth:`session`, which counts the positions it touched itself. Sessions
    share only the provider, whose calls are serialized, so concurrent runs
    may each hold a session on one string.
    """

    def __init__(
        self,
        data: np.ndarray | None = None,
        *,
        provider: Callable[[np.ndarray], np.ndarray] | None = None,
        length: int | None = None,
        alphabet_size: int | None = None,
    ):
        if (data is None) == (provider is None):
            raise ValueError("exactly one of data or provider is required")
        if data is not None:
            data = np.ascontiguousarray(data)
            if data.ndim != 1:
                raise ValueError("backing data must be one-dimensional")
            if data.size == 0:
                raise ValueError("empty string")
            self._data = data
            self._provider = None
            self.length = int(data.size)
            self.alphabet_size = _alphabet_for(data, alphabet_size)
        else:
            if length is None or alphabet_size is None:
                raise ValueError("provider-backed strings need explicit length and alphabet_size")
            if length < 1:
                raise ValueError("empty string")
            self._data = None
            self._provider = provider
            self.length = int(length)
            self.alphabet_size = max(2, int(alphabet_size))
        self._lock = threading.Lock()  # serializes every provider call

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_bytes(cls, raw: bytes, alphabet_size: int | None = None) -> "QueryCountedString":
        return cls(np.frombuffer(raw, dtype=np.uint8), alphabet_size=alphabet_size)

    @classmethod
    def from_string(cls, text: str, alphabet_size: int | None = None) -> "QueryCountedString":
        return cls.from_bytes(text.encode("utf-8"), alphabet_size=alphabet_size)

    @classmethod
    def from_file(cls, path, alphabet_size: int | None = None) -> "QueryCountedString":
        """Map the file read-only: reads index the map, nothing is copied."""
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                raise ValueError(f"empty string: {path} has no bytes to map")
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(np.frombuffer(mapped, dtype=np.uint8), alphabet_size=alphabet_size)

    @classmethod
    def from_tokens(cls, tokens, alphabet_size: int | None = None) -> "QueryCountedString":
        return cls(np.asarray(tokens), alphabet_size=alphabet_size)

    @classmethod
    def from_provider(
        cls, provider: Callable[[np.ndarray], np.ndarray], length: int, alphabet_size: int
    ) -> "QueryCountedString":
        """Lazy accessor: ``provider`` maps 0-indexed position arrays to symbols."""
        return cls(provider=provider, length=length, alphabet_size=alphabet_size)

    # -- reading ----------------------------------------------------------

    def _fetch(self, idx0: np.ndarray) -> np.ndarray:
        if self._data is not None:
            return self._data[idx0]
        with self._lock:
            return np.asarray(self._provider(idx0))

    def _whole(self) -> np.ndarray:
        """Every symbol, read-only; a provider's are checked against the alphabet."""
        if self._data is not None:
            out = self._data.view()
        else:
            out = self._fetch(np.arange(self.length, dtype=np.int64)).view()
            _alphabet_for(out, self.alphabet_size)
        out.flags.writeable = False
        return out

    def _check(self, positions) -> np.ndarray:
        idx0 = np.asarray(positions, dtype=np.int64) - 1
        if idx0.size and (idx0.min() < 0 or idx0.max() >= self.length):
            bad = idx0[(idx0 < 0) | (idx0 >= self.length)][0] + 1
            raise IndexError(f"position {int(bad)} outside [1, {self.length}]")
        return idx0

    def session(self, budget: float | None = None) -> "QuerySession":
        """A new counted session; with a ``budget``, a read that carries its
        distinct reads past it raises :class:`ReadBudgetSpent`."""
        return QuerySession(self, budget)

    def materialize(self) -> np.ndarray:
        """Full copy of the string, read by no session and counted nowhere.

        Oracle plumbing: exact reference computations are not under the query
        model. For provider-backed strings this generates every position.
        """
        if self._data is not None:
            return self._data.copy()
        return self._fetch(np.arange(self.length, dtype=np.int64))


class _AllPositions:
    """Positions 1..n, as :meth:`QuerySession.read_all` asks for them: ``size``
    (what ``np.size`` reads) is n, and no index array exists unless asked for."""

    def __init__(self, n: int):
        self.size = n

    def __array__(self, dtype=None, copy=None):
        return np.arange(1, self.size + 1, dtype=dtype)


class QuerySession:
    """One estimator run's reads of a :class:`QueryCountedString`.

    ``queries`` counts the distinct positions touched through this session,
    the only place a read is counted. A repeat read is free, and a read
    outside ``[1, n]`` raises :class:`IndexError` and counts nothing. A
    session is not shared between threads; concurrent runs each open their own.
    """

    def __init__(self, parent: QueryCountedString, budget: float | None = None):
        self.parent = parent
        self.length = parent.length
        self.alphabet_size = parent.alphabet_size
        self._touched = _TouchedSet(parent.length)
        self._budget = budget
        # budget minus the reads at the last count and the positions asked for
        # since: while it stays >= 0, the reads cannot have passed the budget
        self._room = budget

    @property
    def queries(self) -> int:
        return len(self._touched)

    def queries_within(self, bound: int) -> int:
        """``queries``, which must not pass the run's planned ``bound``."""
        used = self.queries
        if used > bound:
            raise RuntimeError(f"{used} reads past the planned {bound}; the sampler is broken")
        return used

    def read_many(self, positions) -> np.ndarray:
        """Symbols at 1-indexed ``positions``, in their shape. ``read_all``'s
        positions mark the ledger full and return the whole string read-only.

        In a budgeted session, a batch that carries the distinct reads past
        the budget is recorded and raises :class:`ReadBudgetSpent` instead of
        returning. ``queries`` is recounted only once the positions asked for
        since the last count could have carried it past the budget."""
        if isinstance(positions, _AllPositions) and positions.size == self.length:
            self._touched.fill()
            return self.parent._whole()
        idx0 = self.parent._check(np.asarray(positions))
        self._touched.add(idx0)
        if self._budget is not None:
            self._room -= idx0.size
            if self._room < 0:
                self._room = self._budget - self.queries
                if self._room < 0:
                    raise ReadBudgetSpent(f"{self._budget - self._room} reads, budget {self._budget}")
        return self.parent._fetch(idx0)

    def read(self, position: int) -> int:
        return int(self.read_many(np.array([position], dtype=np.int64))[0])

    def read_all(self) -> np.ndarray:
        """The whole string (n queries), read-only: a view of the backing array,
        or a provider's symbols, which must fit the declared alphabet."""
        return self.read_many(_AllPositions(self.length))


@dataclass(frozen=True)
class ReadPlan:
    """A run's reads, fixed before its first: ``draws`` sampled positions, or
    an exact ``scan`` (no draws), in at most ``bound`` reads (n for a scan)."""

    scan: bool
    draws: int
    bound: int


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimator run and the accuracy contract it claims.

    An estimate ``est`` for a cost ``C`` meets a (lambda, epsilon) contract if

        C / lambda - epsilon * n  <=  est  <=  lambda * C + epsilon * n.

    ``confidence`` is the declared probability that the contract holds
    (2/3 unless an amplified variant was used).
    """

    estimate: float
    lam: float
    epsilon: float
    queries_used: int
    seed: int
    confidence: float = 2.0 / 3.0

    def __post_init__(self):
        if self.estimate < 0:
            raise ValueError("estimate must be nonnegative")
        if self.lam < 1:
            raise ValueError("multiplicative factor must be >= 1")
        if not (0 <= self.epsilon <= 1):
            raise ValueError("additive fraction must be in [0, 1]")
        if not (0 < self.confidence <= 1):
            raise ValueError("confidence must be in (0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "estimate": float(self.estimate),
            "lambda": float(self.lam),
            "epsilon": float(self.epsilon),
            "queries_used": int(self.queries_used),
            "seed": int(self.seed),
            "confidence": float(self.confidence),
        }


def meets_contract(report: EstimateReport, exact: float, n: int) -> bool:
    """True iff the report's estimate satisfies its claimed contract for ``exact``."""
    if exact < 0:
        raise ValueError("exact cost must be nonnegative")
    lo = exact / report.lam - report.epsilon * n
    hi = report.lam * exact + report.epsilon * n
    return lo <= report.estimate <= hi

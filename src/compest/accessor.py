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
  bytes; files are memory-mapped read-only rather than copied into memory.
  The alphabet pass reads every byte, but only on the first read of
  ``alphabet_size``, which only the RLE estimators and oracle make; it and
  every gather drop each ``_SEEN_CHUNK`` block's pages from the process once
  done with them, so a sampled run's RSS does not grow with the file.
* A string is read through a session (counted) or :meth:`materialize`
  (not counted), and in no other way.
* A session's touched-position ledger costs O(q) memory for q distinct
  reads, until q nears n / 64, and O(q log q) time in all for q positions
  asked, in batches of any size; see :class:`_TouchedSet`.
* :meth:`QuerySession.read_all` marks the ledger full in O(1) and returns
  the backing array read-only, with no index array or copy. Every array a
  session returns fits ``alphabet_size``: the accessor checks it, not callers.
* A session reads positions with :meth:`QuerySession.read_many`, and runs
  with :meth:`QuerySession.match_run`, which counts only the positions a
  one-position walk would read, however much of the backing array it
  compares at once.
* A session may carry a read budget: a read that carries its distinct reads
  past it raises :class:`ReadBudgetSpent`, so a sampler can stop mid-pass and
  scan instead. ``read_all`` is never budgeted.
* A run takes its plan's lane and checks its bound in :meth:`ReadPlan.run`.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

_BLOCK_BITS = 22
_SEEN_CHUNK = 1 << _BLOCK_BITS  # bytes per chunk of the seen-table pass and per block of a map
_GATHER_CHUNK = 1 << 16  # positions a file map's gather groups by block at once
# None where mmap has no madvise (Windows): there a file map's pages stay mapped
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


_FEW = 8  # the most seen symbols that a one-byte pass tests with one ``==`` each
_HEAD = 1 << 12  # symbols at the head of a chunk scattered before the ``==`` tests
_TEST = 1 << 18  # symbols per ``==`` test, so its two bool buffers stay small


def _add_few(chunk: np.ndarray, few: list[int], hit: np.ndarray, eq: np.ndarray) -> bool:
    """Add the symbols of one-byte ``chunk`` to ``few``, the symbols seen
    so far, found with one ``==`` per symbol into the bool buffers ``hit``
    and ``eq`` (``chunk``'s size). False, with ``few`` partly extended, once
    the chunk holds more than ``_FEW`` symbols."""
    hit[:] = False
    for v in few:
        np.equal(chunk, v, out=eq)
        hit |= eq
    while True:
        miss = int(hit.argmin())  # the first position that no seen symbol matched
        if hit[miss]:
            return True
        if len(few) == _FEW:
            return False
        few.append(int(chunk[miss]))
        np.equal(chunk, few[-1], out=eq)
        hit |= eq


def distinct_count(values, drop: Callable[[int], None] | None = None) -> int:
    """Number of distinct symbols in ``values``, with no sorted copy for bytes.

    One-byte input (viewed as ``uint8``, which maps distinct values to
    distinct values) goes chunk by chunk, and the pass stops once all 256
    byte values are seen. A chunk whose largest symbol lies in the run of
    seen values 0, 1, ... cannot add a symbol, so it costs one max: after
    the first chunk, every chunk of 0/1 binary data or of ``0..sigma-1``
    tokens does. While at most ``_FEW`` symbols are seen, a chunk is tested
    with one ``==`` per seen symbol (``ACGT`` text: four), after a scatter of
    its first ``_HEAD`` symbols, which shows most wide alphabets at once.
    Only a wider alphabet scatters whole chunks into the seen table, and a
    chunk whose ``[min, max]`` range is already all seen skips the scatter.
    At n = 1e8 (2 cores, numpy 2.4, in memory) the pass takes 7-8 ms on
    random binary data, against 23-25 ms with a min, a max and a first
    scatter per chunk, and 48-51 ms on ``ACGT`` text, against 308-316 ms
    with a scatter per chunk.

    ``drop``, if given, is called with each one-byte chunk's start offset
    once the chunk is counted; a mapped file releases that chunk's pages.

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
        seen = np.zeros(257, dtype=bool)  # seen[256] stays False, so argmin is the least unseen value
        narrow = True  # at most _FEW symbols seen: chunks are tested with ``==``
        bufs = np.empty((2, min(arr.size, _TEST)), dtype=bool)
        low = 0  # every value below ``low`` is seen
        for lo in range(0, arr.size, _SEEN_CHUNK):
            chunk = arr[lo : lo + _SEEN_CHUNK]
            top = int(chunk.max())
            if top >= low:
                if narrow:
                    seen[chunk[:_HEAD]] = True  # a wide alphabet shows in the first symbols
                    few = np.flatnonzero(seen).tolist()
                    narrow = len(few) <= _FEW and all(
                        _add_few(part, few, *bufs[:, : part.size])
                        for part in (chunk[at : at + _TEST] for at in range(0, chunk.size, _TEST))
                    )
                    if narrow:
                        seen[few] = True
                if not narrow and not seen[int(chunk.min()) : top + 1].all():
                    seen[chunk] = True
                low = int(seen.argmin())
            if drop is not None:
                drop(lo)
            if low == 256:
                break
        return int(np.count_nonzero(seen))
    ordered = np.sort(arr)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _gather_by_block(data: np.ndarray, idx0: np.ndarray, drop: Callable[[int], None]) -> np.ndarray:
    """``data[idx0]``, gathered one ``_SEEN_CHUNK`` block of ``data`` at a
    time, with ``drop`` called on each block's start offset once its
    positions are read. Dropping only after the whole gather would not do:
    a file fault maps the large folio around it, so a few hundred random
    reads in one call would map the whole file.

    Positions are grouped ``_GATHER_CHUNK`` at a time, so the grouping's
    index array takes at most 8 * ``_GATHER_CHUNK`` bytes however many
    positions are asked for."""
    flat = idx0.ravel()
    out = np.empty(flat.size, dtype=data.dtype)
    block_type = np.min_scalar_type((data.size - 1) >> _BLOCK_BITS)
    for at in range(0, flat.size, _GATHER_CHUNK):
        part, dest = flat[at : at + _GATHER_CHUNK], out[at : at + _GATHER_CHUNK]
        block = (part >> _BLOCK_BITS).astype(block_type)
        order = np.argsort(block, kind="stable")  # a radix sort on these small unsigned ints
        block = block[order]
        cuts = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, part.size]):
            take = order[lo:hi]
            dest[take] = data[part[take]]
            drop(int(block[lo]) << _BLOCK_BITS)
    return out.reshape(idx0.shape)


def _alphabet_for(symbols: np.ndarray, declared: int | None, drop: Callable[[int], None] | None = None) -> int:
    """``declared`` (default: the distinct count of ``symbols``), at least 2;
    raises if ``symbols`` hold more distinct symbols than declared."""
    inferred = distinct_count(symbols, drop)
    size = inferred if declared is None else int(declared)
    if inferred > size:
        raise ValueError(f"{inferred} distinct symbols exceed declared alphabet size {size}")
    return max(2, size)


class ReadBudgetSpent(Exception):
    """A budgeted session's distinct reads passed its budget."""


class _TouchedSet:
    """Distinct touched 0-indexed positions out of ``length``.

    Held as a sorted unique int64 array while it has at most ``length // 64``
    entries, so a run that reads q positions costs O(q) memory. A
    batch that could push it past that bound (checked before the batch is
    sorted) switches it to a ``length``-byte bool bitmap for good: at that
    size the array already takes ``length / 8`` bytes, as much as a
    bit-packed bitmap would.

    While sorted, :meth:`add` keeps each batch, uncopied, on a pending list.
    Once the pending batches hold as many entries as the array, they are
    sorted into it with duplicates dropped. Such a merge handles at most
    twice the entries pending, so q positions asked cost O(q log q) in all,
    however they are batched. A count, and a batch that could pass the
    bitmap bound, merge first too, at O(len) each. The sorted array and the
    pending batches together hold at most twice the distinct positions plus
    one batch. :meth:`fill` marks every position touched in O(1), for good.
    """

    def __init__(self, length: int):
        self._length = length
        self._sorted = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        self._bitmap: np.ndarray | None = None
        self._full = False

    def __len__(self) -> int:
        if self._full:
            return self._length
        if self._bitmap is None:
            self._merge()
            return int(self._sorted.size)
        return int(np.count_nonzero(self._bitmap))

    def fill(self) -> None:  # every position, for good: later adds are no-ops
        self._full, self._sorted, self._bitmap = True, None, None
        self._pending, self._pending_size = [], 0

    def _merge(self) -> None:
        """Sort the pending batches into the sorted array, one copy of each."""
        if not self._pending:
            return
        if self._sorted.size == 0 and len(self._pending) == 1:
            merged = np.sort(self._pending[0])  # the batch is the caller's: no in-place sort
        else:
            merged = np.concatenate([self._sorted, *self._pending])
            merged.sort()
        keep = np.ones(merged.size, dtype=bool)
        keep[1:] = merged[1:] != merged[:-1]
        self._sorted = merged[keep]
        self._pending, self._pending_size = [], 0

    def add(self, idx0: np.ndarray) -> None:
        """Record the 0-indexed positions ``idx0``, which the set may keep
        uncopied until its next merge, so nothing may write to them."""
        if self._full:
            return
        idx0 = np.ravel(idx0)
        limit = self._length // 64
        if self._bitmap is None and self._sorted.size + self._pending_size + idx0.size > limit:
            self._merge()
            if self._sorted.size + idx0.size > limit:
                self._bitmap = np.zeros(self._length, dtype=bool)
                self._bitmap[self._sorted] = True
                self._sorted = None
        if self._bitmap is not None:
            self._bitmap[idx0] = True
            return
        self._pending.append(idx0)
        self._pending_size += idx0.size
        if self._pending_size >= self._sorted.size:
            self._merge()


class QueryCountedString:
    """Read-only string of symbols that hands out query-counted sessions.

    Backed either by an array (in memory, or a read-only map of a file) or
    by a lazy provider callback that materializes symbols on demand (used by
    reduction instances, where generating the whole string up front would
    defeat sublinearity). A file map drops each block's pages from the
    process once a read is done with it; other backings keep theirs.

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
        _mapped: mmap.mmap | None = None,
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
            self._drop = None  # drops a block of the file map ``data`` views
            if _mapped is not None and _DONTNEED is not None:
                self._drop = lambda lo: _mapped.madvise(_DONTNEED, lo, _SEEN_CHUNK)
            self._declared = alphabet_size
            self._alphabet = None  # counted on first use: see ``alphabet_size``
            if alphabet_size is not None and data.dtype.itemsize == 1 and int(alphabet_size) >= 256:
                self._alphabet = int(alphabet_size)  # one-byte data holds at most 256 symbols
        else:
            if length is None or alphabet_size is None:
                raise ValueError("provider-backed strings need explicit length and alphabet_size")
            if length < 1:
                raise ValueError("empty string")
            self._data = self._drop = None
            self._provider = provider
            self.length = int(length)
            self._alphabet = max(2, int(alphabet_size))
        self._lock = threading.Lock()  # serializes every provider call and the alphabet pass

    @property
    def alphabet_size(self) -> int:
        """The declared alphabet size (default: the distinct symbol count),
        at least 2. An array's is counted on first use, once, by one pass
        over every symbol that no session counts, and a declared size below
        the distinct count raises a ``ValueError`` then, not at construction.
        One-byte data with a declared size of at least 256 needs no pass."""
        if self._alphabet is None:
            with self._lock:
                if self._alphabet is None:
                    self._alphabet = _alphabet_for(self._data, self._declared, self._drop)
        return self._alphabet

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_bytes(cls, raw: bytes, alphabet_size: int | None = None) -> "QueryCountedString":
        return cls(np.frombuffer(raw, dtype=np.uint8), alphabet_size=alphabet_size)

    @classmethod
    def from_string(cls, text: str, alphabet_size: int | None = None) -> "QueryCountedString":
        return cls.from_bytes(text.encode("utf-8"), alphabet_size=alphabet_size)

    @classmethod
    def from_file(cls, path, alphabet_size: int | None = None) -> "QueryCountedString":
        """Map the file read-only: reads index the map, nothing is copied.

        The alphabet pass and every session read drop each ``_SEEN_CHUNK``
        block's pages from this process (``MADV_DONTNEED``) once done with
        it. The pages stay in the page cache, so a later read maps them
        again without going to disk, and the map never holds much more than
        one block. ``read_all`` and :meth:`materialize` still map the whole
        file. Where ``mmap`` has no ``madvise`` (Windows), pages stay mapped."""
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                raise ValueError(f"empty string: {path} has no bytes to map")
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(np.frombuffer(mapped, dtype=np.uint8), alphabet_size=alphabet_size, _mapped=mapped)

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
        if self._drop is not None:
            return _gather_by_block(self._data, idx0, self._drop)
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
        idx0 = np.array(positions, dtype=np.int64)  # a copy the session owns
        idx0 -= 1
        return self._in_range(idx0)

    def _in_range(self, idx0: np.ndarray) -> np.ndarray:
        # as uint64 a negative position is past every length: one max checks both ends
        if idx0.size and int(idx0.view(np.uint64).max()) >= self.length:
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
        self._touched = _TouchedSet(parent.length)
        self._budget = budget
        # budget minus the reads at the last count and the positions asked for
        # since: while it stays >= 0, the reads cannot have passed the budget
        self._room = budget

    @property
    def alphabet_size(self) -> int:
        """The string's, read through on each use: see :attr:`QueryCountedString.alphabet_size`."""
        return self.parent.alphabet_size

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
        self._count(idx0)
        return self.parent._fetch(idx0)

    def _count(self, idx0: np.ndarray) -> None:
        """Record 0-indexed ``idx0`` in the ledger, raising once the distinct
        reads pass the budget."""
        idx0.flags.writeable = False  # the ledger may keep it uncopied
        self._touched.add(idx0)
        if self._budget is not None:
            self._room -= idx0.size
            if self._room < 0:
                self._room = self._budget - self.queries
                if self._room < 0:
                    raise ReadBudgetSpent(f"{self._budget - self._room} reads, budget {self._budget}")

    def match_run(self, starts, step: int, limits, symbols) -> tuple[np.ndarray, np.ndarray]:
        """(matched, read) for walkers that read from 1-indexed ``starts`` on
        in direction ``step`` (-1 or +1), each at most its ``limits`` (>= 1)
        positions: how many positions in a row hold the walker's ``symbols``,
        and how many it read, which is one more at a mismatch.

        It counts, through the ledger and budget of :meth:`read_many`, exactly
        the positions that a walk of one position per read would read: up to
        and including the first mismatch, or up to the limit. On an
        array-backed string each walker's block of ``limit`` positions is
        compared at once, and no symbol leaves the session. A provider's block
        is one position, since a fetch past a mismatch would cost real
        provider reads."""
        starts = np.asarray(starts, dtype=np.int64)
        limits = np.asarray(limits, dtype=np.int64)
        if step not in (-1, 1) or (limits.size and int(limits.min()) < 1):
            raise ValueError("a walk steps by -1 or +1 and reads at least one position")
        if self.parent._data is None:  # one position each: counted before the provider is asked
            idx0 = self.parent._check(starts)
            self._count(idx0)
            matched = (self.parent._fetch(idx0) == symbols).astype(np.int64)
            return matched, np.ones_like(matched)
        ends = np.cumsum(limits)  # each block's end in the batch
        total = int(ends[-1]) if ends.size else 0
        first = ends - limits
        at = np.arange(total, dtype=np.int64)
        base = np.repeat(starts - 1 - step * first, limits)
        idx0 = self.parent._in_range(base - at if step < 0 else base + at)
        match = self.parent._fetch(idx0) == np.repeat(symbols, limits)
        stop = np.minimum.reduceat(np.where(match, total, at), first)  # each block's first mismatch
        cut = np.minimum(stop + 1, ends)  # past its last position read
        self._count(idx0[at < np.repeat(cut, limits)])
        return np.minimum(stop, ends) - first, cut - first

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

    def run(self, sess: QuerySession, sampled: Callable | None, exact: Callable | None = None):
        """(value, reads) of the plan's lane on ``sess``: ``exact`` of the
        whole string, read-only, on a scan, else ``sampled()``; the reads
        must stay within ``bound``."""
        value = exact(sess.read_all()) if self.scan else sampled()
        return value, sess.queries_within(self.bound)


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

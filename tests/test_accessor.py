import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from compest import (
    EstimateReport,
    GeneratorSpec,
    QueryCountedString,
    colors_estimate,
    meets_contract,
    rle_additive_estimate,
)
from compest import accessor
from compest.accessor import QuerySession, ReadBudgetSpent, ReadPlan, distinct_count

BLOCK = accessor._SEEN_CHUNK  # a mapped file's pages are dropped in blocks of this many bytes


def test_read_counts_once():
    sess = QueryCountedString.from_string("abc").session()
    assert sess.queries == 0
    assert chr(sess.read(2)) == "b"
    assert sess.queries == 1
    assert chr(sess.read(2)) == "b"
    assert sess.queries == 1  # cache-once: repeat read is free


def test_read_out_of_range_rejected():
    sess = QueryCountedString.from_string("abc").session()
    with pytest.raises(IndexError):
        sess.read(4)
    with pytest.raises(IndexError):
        sess.read(0)
    # the first bad position is named, a negative or a too-large one, and the batch counts nothing
    with pytest.raises(IndexError, match="position -5 outside"):
        sess.read_many([2, -5, 2**62, 1])
    with pytest.raises(IndexError, match=f"position {2**62} outside"):
        sess.read_many(np.array([[1, 2], [2**62, -5]]))
    assert sess.queries == 0


def test_counter_equals_touched_set():
    w = QueryCountedString.from_tokens(np.arange(50) % 7)
    sess = w.session()
    positions = [3, 3, 17, 1, 17, 50, 3, 9]
    for t in positions:
        sess.read(t)
    assert sess.queries == len(set(positions))


def test_duplicate_positions_in_one_batch_count_once():
    w = QueryCountedString.from_tokens(np.arange(10))
    sess = w.session()
    sess.read_many(np.array([4, 4, 4, 9]))
    assert sess.queries == 2


def test_counter_never_exceeds_length():
    w = QueryCountedString.from_string("xyxy")
    sess = w.session()
    sess.read_all()
    sess.read_all()
    assert sess.queries == 4 == w.length


def test_read_all_is_a_read_only_view_that_fills_the_ledger():
    data = np.arange(1000, dtype=np.int64) % 7
    w = QueryCountedString.from_tokens(data)
    sess = w.session()
    sess.read_many(np.array([5, 900]))  # a sorted ledger first, then full
    whole = sess.read_all()
    assert np.shares_memory(whole, w._data) and np.array_equal(whole, data)
    with pytest.raises(ValueError):
        whole[0] = 3
    assert sess.queries == 1000
    assert np.array_equal(sess.read_many(np.array([3, 1000, 3])), [2, 5, 2])
    sess.read_many(np.arange(1, 1001))  # would switch a ledger to its bitmap
    assert sess.queries == 1000
    assert sess._touched._bitmap is None and sess._touched._sorted is None  # no ledger kept
    with pytest.raises(IndexError):
        sess.read(1001)
    assert w.session().queries == 0  # other sessions are untouched


def test_read_many_of_a_range_takes_the_generic_path(monkeypatch):
    w = QueryCountedString.from_tokens(np.arange(100) % 5)
    sess = w.session()
    got = sess.read_many(range(1, 100))
    assert sess.queries == 99 and not sess._touched._full
    assert not np.shares_memory(got, w._data) and got.flags.writeable
    assert np.array_equal(sess.read_many(range(1, 101)), np.arange(100) % 5)
    assert sess.queries == 100 and not sess._touched._full
    # read_all's own positions are n of them by np.size, in O(1), and 1..n as an array
    asked = []
    real = QuerySession.read_many
    monkeypatch.setattr(QuerySession, "read_many", lambda self, pos: asked.append(pos) or real(self, pos))
    w.session().read_all()
    assert np.size(asked[0]) == 100 and np.array_equal(np.asarray(asked[0]), np.arange(1, 101))


def test_plan_run_raises_once_sampled_reads_pass_the_bound():
    sess = QueryCountedString.from_tokens(np.arange(100) % 5).session()
    plan = ReadPlan(False, 3, 3)
    assert plan.run(sess, lambda: int(sess.read_many([1, 2, 3]).sum())) == (3, 3)
    with pytest.raises(RuntimeError, match="sampler is broken"):
        plan.run(sess, lambda: sess.read(4))


def test_plan_run_scans_with_the_read_only_string():
    data = np.arange(100) % 5
    sess = QueryCountedString.from_tokens(data).session()
    seen = []
    value, reads = ReadPlan(True, 0, 100).run(sess, None, lambda whole: seen.append(whole) or int(whole.sum()))
    assert value == int(data.sum()) and reads == 100 == sess.queries
    assert np.array_equal(seen[0], data) and not seen[0].flags.writeable


def test_match_run_counts_up_to_the_first_mismatch():
    data = np.array([0, 0, 0, 1, 1, 0, 0, 0, 0, 0])
    sess = QueryCountedString.from_tokens(data).session()
    matched, read = sess.match_run([1, 6, 4], 1, [5, 5, 1], [0, 0, 1])
    assert matched.tolist() == [3, 5, 1] and read.tolist() == [4, 5, 1]
    assert sess.queries == 9  # not position 5, past the first walker's mismatch at 4
    matched, read = sess.match_run([10], -1, [9], [0])
    assert (matched.tolist(), read.tolist(), sess.queries) == ([5], [6], 10)
    with pytest.raises(ReadBudgetSpent):
        QueryCountedString.from_tokens(data).session(budget=3).match_run([1], 1, [9], [0])
    for starts, step, limits in (([1], 1, [0]), ([1], 2, [2])):
        with pytest.raises(ValueError):
            sess.match_run(starts, step, limits, [0])
    with pytest.raises(IndexError):
        sess.match_run([8], 1, [4], [0])


def test_match_run_on_a_provider_reads_one_position_per_walker():
    data = np.zeros(10, dtype=np.int64)
    asked = []
    w = QueryCountedString.from_provider(lambda idx0: asked.append(idx0.tolist()) or data[idx0], 10, 2)
    sess = w.session()
    matched, read = sess.match_run([2, 9], -1, [1, 5], [0, 0])
    assert matched.tolist() == read.tolist() == [1, 1] and asked == [[1, 8]] and sess.queries == 2


def test_read_all_checks_a_providers_alphabet():
    data = np.arange(64) % 3

    def provider(idx0):
        return data[idx0]

    sess = QueryCountedString.from_provider(provider, 64, 3).session()
    whole = sess.read_all()
    assert np.array_equal(whole, data) and not whole.flags.writeable
    assert data.flags.writeable  # the provider's own array stays writable
    sess = QueryCountedString.from_provider(provider, 64, 2).session()
    assert np.array_equal(sess.read_many(np.arange(1, 65)), data)  # sampled reads do not count symbols
    with pytest.raises(ValueError, match="3 distinct symbols exceed declared alphabet size 2"):
        sess.read_all()


def test_empty_rejected():
    with pytest.raises(ValueError):
        QueryCountedString.from_string("")


def test_alphabet_size_floor_and_validation():
    w = QueryCountedString.from_tokens(np.zeros(5, dtype=np.uint8))
    assert w.alphabet_size == 2
    with pytest.raises(ValueError):
        QueryCountedString.from_tokens(np.arange(5), alphabet_size=3)
    # a declared size is checked before the floor: below the distinct count it raises
    for declared in (1, 0, -3):
        with pytest.raises(ValueError, match="exceed declared alphabet size"):
            QueryCountedString.from_tokens([0, 1, 1, 0], alphabet_size=declared)
    assert QueryCountedString.from_tokens(np.zeros(5, dtype=np.uint8), alphabet_size=1).alphabet_size == 2
    # provider-backed strings have no symbols to check at construction and keep the floor
    lazy = QueryCountedString.from_provider(lambda idx: np.zeros(idx.size, np.uint8), 5, 1)
    assert lazy.alphabet_size == 2


def _run_threads(worker, count):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_sessions_are_safe():
    w = QueryCountedString.from_tokens(np.arange(5000) % 3)
    queries = {}

    def worker(i):
        sess = w.session()
        sess.read_many(np.arange(1 + 1000 * i, 2001 + 1000 * i))
        queries[i] = sess.queries

    _run_threads(worker, 3)
    assert queries == {i: 2000 for i in range(3)}


@pytest.mark.parametrize("n", [10, 1000])  # first add goes to the bitmap / the sorted ledger
@pytest.mark.parametrize("position", [np.int64(5), np.array(5), np.array([[5, 7], [5, 2]])])
def test_read_many_keeps_the_positions_shape(n, position):
    w = QueryCountedString.from_tokens(np.arange(n) % 9)
    sess = w.session()
    got = sess.read_many(position)
    assert got.shape == np.shape(position)
    assert np.array_equal(got, (np.asarray(position) - 1) % 9)
    assert sess.queries == np.unique(position).size


def test_ledger_crossing_the_bitmap_switch_counts_distinct_positions():
    n = 6400  # the sorted ledger holds at most n // 64 = 100 positions
    w = QueryCountedString.from_tokens(np.arange(n) % 5)
    s1, s2 = w.session(), w.session()
    seen1, seen2 = set(), set()
    rng = np.random.default_rng(5)
    for step in range(12):
        batch = rng.integers(1, 60, size=int(rng.integers(1, 30)))
        batch = np.concatenate([batch, batch[:3]])  # repeats inside the batch
        sess, seen = (s1, seen1) if step % 3 else (s2, seen2)
        sess.read_many(batch)
        seen.update(batch.tolist())
        assert sess.queries == len(seen)
    assert s1._touched._bitmap is None and s2._touched._bitmap is None
    s1.read_many(np.arange(200, 300))  # 100 more would pass n // 64
    seen1.update(range(200, 300))
    assert s1._touched._bitmap is not None
    assert s1.queries == len(seen1)
    s1.read_many(np.arange(250, 350))  # repeats across batches, bitmap side
    seen1.update(range(250, 350))
    assert s1.queries == len(seen1)


def test_budget_raises_once_distinct_reads_pass_it():
    w = QueryCountedString.from_tokens(np.arange(10_000) % 3)
    sess = w.session(budget=10)  # the ledger stays sorted: 10 reads, n // 64 = 156
    sess.read_many([1, 2, 2, 3, 3, 3])  # duplicates in a batch count once
    sess.read_many(np.tile([1, 2, 3], 20))  # re-reads count nothing, though a recount runs
    assert sess.queries == 3
    assert sess.read_many(np.arange(4, 11)).tolist() == (np.arange(3, 10) % 3).tolist()
    assert sess.queries == 10  # exactly on the budget
    sess.read_many(np.arange(1, 11))
    with pytest.raises(ReadBudgetSpent):
        sess.read_many([5, 11])  # one more distinct position
    assert sess.queries == 11  # the batch that passed the budget is recorded
    assert sess._touched._bitmap is None


@pytest.mark.parametrize("seed", range(6))
def test_budget_holds_across_the_bitmap_switch(seed):
    n, budget = 6400, 120  # the sorted ledger holds at most n // 64 = 100 positions
    w = QueryCountedString.from_tokens(np.arange(n) % 5)
    sess, seen = w.session(budget=budget), set()
    rng = np.random.default_rng(seed)
    while True:
        batch = rng.integers(1, 200, size=int(rng.integers(1, 25)))
        seen.update(batch.tolist())
        if len(seen) > budget:
            with pytest.raises(ReadBudgetSpent):
                sess.read_many(batch)
            break
        sess.read_many(batch)
        assert sess.queries == len(seen)
    assert sess._touched._bitmap is not None and sess.queries == len(seen)


@pytest.mark.parametrize("budget", [None, 300])
@pytest.mark.parametrize("seed", range(4))
def test_ledger_matches_a_python_set(seed, budget):
    n = 64 * 400  # the sorted ledger holds at most n // 64 = 400 positions
    w = QueryCountedString.from_tokens(np.arange(n) % 5)
    sess, seen, pending_at_a_count = w.session(budget=budget), set(), 0
    rng = np.random.default_rng(seed)
    while sess._touched._bitmap is None:
        batch = rng.integers(1, 700, size=int(rng.integers(0, 30)))  # empty batches too
        if rng.random() < 0.3:
            batch = np.concatenate([batch, batch[: batch.size // 2]])  # repeats inside the batch
        if batch.size % 2 == 0 and rng.random() < 0.3:
            batch = batch.reshape(2, -1)
        seen.update(batch.ravel().tolist())
        if budget is not None and len(seen) > budget:
            with pytest.raises(ReadBudgetSpent):
                sess.read_many(batch)
            assert sess.queries == len(seen)
            return
        got = sess.read_many(batch)
        assert got.shape == batch.shape and np.array_equal(got, (batch - 1) % 5)
        if rng.random() < 0.3:
            pending_at_a_count += bool(sess._touched._pending)
            assert sess.queries == len(seen)
    assert pending_at_a_count and sess.queries == len(seen)
    assert budget is None  # 400 distinct reads pass the budget first


def test_budget_raises_on_the_batch_that_passes_it_while_batches_are_pending():
    w = QueryCountedString.from_tokens(np.arange(64_000) % 3)  # sorted side: up to 1000
    sess = w.session(budget=130)
    sess.read_many(np.arange(1, 101))
    for lo in (101, 111, 121):
        sess.read_many(np.arange(lo, lo + 10))  # 130 distinct reads, 30 of them pending
    assert sess._touched._pending
    with pytest.raises(ReadBudgetSpent):
        sess.read_many([5, 131])
    assert sess.queries == 131 and sess._touched._bitmap is None


def test_pending_batches_count_in_the_bitmap_switch():
    w = QueryCountedString.from_tokens(np.arange(6400) % 5)  # sorted side: up to 100
    sess = w.session()
    sess.read_many(np.arange(1, 61))
    sess.read_many(np.arange(41, 71))  # 20 repeats, 10 new: pending
    assert sess._touched._pending
    # 60 sorted + 30 pending + 15 asked could pass 100: the merge finds 70
    # distinct, and 70 + 15 cannot, so the ledger stays sorted
    sess.read_many(np.arange(71, 86))
    assert sess._touched._bitmap is None and sess.queries == 85
    sess.read_many(np.arange(86, 91))
    assert sess._touched._pending
    sess.read_many(np.arange(91, 102))  # 90 distinct + 11 asked passes 100
    assert sess._touched._bitmap is not None and not sess._touched._pending
    assert sess.queries == 101


def test_ledger_merges_cost_about_the_positions_asked(monkeypatch):
    # every array the ledger sorts, concatenates or inserts into, summed over
    # 3000 reads of one position each: a copy of the ledger per read would be
    # about 3000^2 / 2 entries
    w = QueryCountedString.from_tokens(np.arange(10**6, dtype=np.int64) % 7)
    built = []

    class CountingNumpy:
        def __getattr__(self, name):
            real = getattr(np, name)
            if name not in ("sort", "concatenate", "insert"):
                return real

            def counted(*args, **kwargs):
                out = real(*args, **kwargs)
                built.append(out.size)
                return out

            return counted

    positions = np.random.default_rng(0).permutation(10**6)[:3000] + 1
    monkeypatch.setattr(accessor, "np", CountingNumpy())
    sess = w.session()
    for t in positions.tolist():
        sess.read(t)
    assert sess.queries == 3000 and sess._touched._bitmap is None
    assert sum(built) <= 4 * 3000


def test_unbudgeted_sessions_and_read_all_never_raise():
    n = 5000
    w = QueryCountedString.from_tokens(np.arange(n) % 4)
    sess = w.session()
    for lo in range(1, n + 1, 700):
        sess.read_many(np.arange(lo, min(lo + 700, n + 1)))
    assert sess.queries == n
    for budget in (0, 10):
        sess = w.session(budget=budget)
        sess.read_many(np.arange(1, budget + 1))
        assert sess.read_all().size == n and sess.queries == n


def test_concurrent_sessions_are_safe_on_the_sorted_ledger():
    n = 10**6  # 3000 reads per session stay below n // 64, so no ledger goes dense
    w = QueryCountedString.from_tokens(np.arange(n, dtype=np.int64) % 7)
    positions = [np.arange(lo, lo + 3000) for lo in (1, 1001, 2001, 3001)]
    queries = {}

    def worker(i):
        sess = w.session()
        for chunk in np.array_split(np.random.default_rng(i).permutation(positions[i]), 30):
            sess.read_many(chunk)
        queries[i] = sess.queries

    _run_threads(worker, 4)
    assert queries == {i: 3000 for i in range(4)}


def test_concurrent_sessions_on_a_mapped_file_while_its_block_is_dropped(tmp_path):
    # every gather drops the pages of the block it read, so each reader's
    # block is dropped by the others, and by one thread that does nothing else
    raw = np.random.default_rng(8).integers(0, 256, size=BLOCK + 5000, dtype=np.uint8)
    path = tmp_path / "w.bin"
    raw.tofile(path)
    w = QueryCountedString.from_file(path)
    finished = []
    got, queries = {}, {}

    def worker(i):
        if i == 0:
            while len(finished) < 3:
                if w._drop is not None:
                    w._drop(0)
            return
        try:
            sess = w.session()
            order = np.random.default_rng(i).integers(1, BLOCK + 1, size=6000)  # all in block 0
            got[i] = order, np.concatenate([sess.read_many(chunk) for chunk in np.array_split(order, 300)])
            queries[i] = sess.queries
        finally:
            finished.append(i)

    _run_threads(worker, 4)
    for i in range(1, 4):
        order, values = got[i]
        assert np.array_equal(values, raw[order - 1])
        assert queries[i] == np.unique(order).size


def test_concurrent_sessions_on_a_provider_backed_string():
    spec = GeneratorSpec("col2lz", {"n_prime": 5000, "alpha_prime": 0.1, "colors": 400}, seed=3)
    w = spec.build()
    k = w.provider.k
    positions = [np.arange(1 + 8000 * i, 20001 + 8000 * i) for i in range(4)]  # overlapping
    got, queries = {}, {}

    def worker(i):
        sess = w.session()
        order = np.random.default_rng(i).permutation(positions[i])
        chunks = np.array_split(order, 2000)  # 10 positions each: many interleaved provider calls
        values = np.concatenate([sess.read_many(chunk) for chunk in chunks])
        got[i] = values[np.argsort(order)]
        queries[i] = sess.queries

    _run_threads(worker, 4)
    assert queries == {i: len(positions[i]) for i in range(4)}
    truth = spec.build().materialize()
    for i in range(4):
        assert np.array_equal(got[i], truth[positions[i] - 1])
    blocks = np.unique((np.concatenate(positions) - 1) // k).size
    assert w.provider.blocks_materialized == w.provider.tau_reads == blocks


def _materialize_during_reads(seed):
    """One thread materializes a fresh col2lz string (blocks of 2) while
    three read 40 positions of it through sessions, one at a time, so their
    colors reads overlap its own; all four start together."""
    spec = GeneratorSpec("col2lz", {"n_prime": 2000, "alpha_prime": 0.5, "colors": 400}, seed=seed)
    w = spec.build()
    start = threading.Barrier(4, timeout=60)
    orders = [np.random.default_rng(i).permutation(w.length)[:40] + 1 for i in range(4)]
    got = {}

    def worker(i):
        start.wait()
        if i == 0:
            got[i] = w.materialize()
        else:
            sess = w.session()
            got[i] = np.array([sess.read(int(t)) for t in orders[i]])

    _run_threads(worker, 4)
    return spec, w, orders, got


def test_materialize_while_sessions_read_a_provider_backed_string():
    # the race between materialize() and session reads is narrow, so it is
    # run on 20 fresh strings; a lost colors read or a failed reader fails it
    for seed in range(20):
        spec, w, orders, got = _materialize_during_reads(seed)
        truth = spec.build().materialize()
        assert np.array_equal(got[0], truth)
        assert all(np.array_equal(got[i], truth[orders[i] - 1]) for i in range(1, 4))
        assert w.provider.blocks_materialized == w.provider.tau_reads == w.length // w.provider.k


@pytest.mark.parametrize(
    "values",
    [
        np.array([7], dtype=np.uint8),
        np.arange(256, dtype=np.uint8),
        np.array([-3, 5, -3, 0, -1_000_000]),
        np.array([-128, -1, 0, 127, -1], dtype=np.int8),
        np.random.default_rng(1).integers(0, 70_000, size=200_000),
        np.random.default_rng(2).integers(-(2**62), 2**62, size=5_000),
        # one new byte past the first chunk, then one inside an already
        # seen [min, max] range
        np.concatenate([np.tile(np.array([0, 2], dtype=np.uint8), 1 << 22), [9], [1]]).astype(np.uint8),
    ],
    ids=["n1", "all-bytes", "negative", "negative-int8", "sigma70000", "wide-int64", "late-bytes"],
)
def test_distinct_count_matches_unique(values):
    assert distinct_count(values) == np.unique(values).size


def test_from_file_maps_without_copy(tmp_path):
    raw = bytes(np.random.default_rng(3).integers(0, 4, size=1000, dtype=np.uint8))
    path = tmp_path / "w.bin"
    path.write_bytes(raw)
    w = QueryCountedString.from_file(path)
    assert w.alphabet_size == 4
    assert not w._data.flags.writeable
    copy = w.materialize()
    assert copy.flags.writeable and copy.tobytes() == raw
    copy[0] ^= 1
    assert w.materialize().tobytes() == raw


def test_from_file_rejects_empty_file_and_small_declared_alphabet(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        QueryCountedString.from_file(empty)
    path = tmp_path / "w.bin"
    path.write_bytes(bytes([1, 2, 3, 1]))
    with pytest.raises(ValueError):
        QueryCountedString.from_file(path, alphabet_size=2)
    assert QueryCountedString.from_file(path, alphabet_size=3).alphabet_size == 3


def _file_and_tokens(tmp_path, n, seed=5):
    raw = np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8)
    path = tmp_path / f"w{n}.bin"
    raw.tofile(path)
    mapped = QueryCountedString.from_file(path)
    assert mapped._drop is not None or accessor._DONTNEED is None  # the block-by-block path runs
    return mapped, QueryCountedString.from_tokens(raw), raw


class _LoggedBlocks:
    """An array whose reads are logged as (block, positions read)."""

    def __init__(self, data, log):
        self.data, self.size, self.dtype, self.log = data, data.size, data.dtype, log

    def __getitem__(self, idx):
        blocks = np.unique(idx >> accessor._BLOCK_BITS).tolist()
        assert len(blocks) == 1, "one gather per block"
        self.log.append((blocks[0], idx.tolist()))
        return self.data[idx]


@pytest.mark.parametrize("kind", ["sorted", "one-block", "shuffled", "sorted-2d", "empty"])
def test_a_block_gather_reads_each_block_once_then_drops_it(monkeypatch, kind):
    # blocks of 16 bytes and groups of 50 positions; per group, each block
    # it touches, in block order, is read at its positions in batch order
    # and then dropped
    monkeypatch.setattr(accessor, "_BLOCK_BITS", 4)
    monkeypatch.setattr(accessor, "_GATHER_CHUNK", 50)
    rng = np.random.default_rng(8)
    data = rng.integers(0, 256, 1000).astype(np.uint8)
    idx = {
        "sorted": np.sort(rng.integers(0, 1000, 300)),
        "one-block": rng.integers(5 * 16, 6 * 16, 120),
        "shuffled": rng.integers(0, 1000, 300),
        "sorted-2d": np.sort(rng.integers(0, 1000, 120)).reshape(2, 60),
        "empty": np.zeros(0, dtype=np.int64),
    }[kind]
    want = []
    flat = idx.ravel()
    for at in range(0, flat.size, 50):
        part = flat[at : at + 50]
        for block in np.unique(part >> 4).tolist():
            want += [(block, part[part >> 4 == block].tolist()), ("drop", block << 4)]
    log = []
    got = accessor._gather_by_block(_LoggedBlocks(data, log), idx, lambda lo: log.append(("drop", lo)))
    assert got.dtype == data.dtype and np.array_equal(got, data[idx])
    assert log == want


@pytest.mark.parametrize("n", [1, 5000, 2 * BLOCK + 4097])  # one byte; not a page multiple; past two block edges
def test_a_mapped_file_reads_as_its_tokens_do(tmp_path, n):
    mapped, tokens, raw = _file_and_tokens(tmp_path, n)
    assert mapped.alphabet_size == tokens.alphabet_size
    rng = np.random.default_rng(n)
    edges = np.array([e + d for e in range(BLOCK, n, BLOCK) for d in (-1, 0, 1, 2)], dtype=np.int64)
    batches = [
        rng.integers(1, n + 1, size=3000),  # unsorted, repeats
        np.array([n, 1, n, 1]),  # the last and first bytes, repeated
        np.array([], dtype=np.int64),
        rng.integers(1, n + 1, size=(7, 5)),
        np.concatenate([edges, edges[::-1], [1, n]]),
        np.int64(n),
    ]
    a, b = mapped.session(), tokens.session()
    for batch in batches:
        got, want = a.read_many(batch), b.read_many(batch)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
        assert a.queries == b.queries
    # walks across each block edge, both ways, matching up to the first byte that differs
    starts = np.concatenate([edges[(edges >= 1) & (edges <= n)], [1, n]])
    for step in (-1, 1):
        limits = np.full(starts.size, 40, dtype=np.int64)
        limits = np.minimum(limits, starts if step < 0 else n + 1 - starts)
        symbols = raw[starts - 1]
        a, b = mapped.session(), tokens.session()
        got, want = a.match_run(starts, step, limits, symbols), b.match_run(starts, step, limits, symbols)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)) and a.queries == b.queries
    assert np.array_equal(mapped.session().read_all(), raw)
    assert np.array_equal(mapped.materialize(), raw)


def test_a_mapped_file_without_a_page_release_keeps_its_pages(tmp_path, monkeypatch):
    # mmap has no madvise on Windows: the string reads the map directly, as before
    monkeypatch.setattr(accessor, "_DONTNEED", None)
    monkeypatch.setattr(accessor, "_gather_by_block", None)  # calling it would raise
    raw = np.random.default_rng(6).integers(0, 3, size=BLOCK + 100, dtype=np.uint8)
    path = tmp_path / "w.bin"
    raw.tofile(path)
    w = QueryCountedString.from_file(path)
    assert w._drop is None and w.alphabet_size == 3
    positions = np.array([BLOCK + 100, 1, BLOCK, BLOCK + 1])
    assert np.array_equal(w.session().read_many(positions), raw[positions - 1])


_PEAK_CHILD = """
import sys
from compest.cli import main

def hwm_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = hwm_kib()
assert main(["rle-est", "--mode", "additive", sys.argv[1]]) == 0
assert main(["colors-est", "--lambda", "50", sys.argv[1]]) == 0
print(hwm_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_sampled_cli_run_maps_little_of_its_file(tmp_path):
    """Peak RSS rise of a child process over two sampled runs on a 64 MiB
    file, measured from its own VmHWM: the file's pages are dropped block by
    block, so the rise stays far below the file. (A child's ru_maxrss would
    carry the peak of the process that started it.)"""
    n = 64 << 20
    path = tmp_path / "big.bin"
    np.random.default_rng(7).integers(0, 2, size=n, dtype=np.uint8).tofile(path)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rise_kib = int(proc.stdout.split()[-1])
    assert rise_kib * 1024 < n // 4, rise_kib


def test_file_estimates_allocate_far_less_than_the_input(tmp_path):
    n = 16 * 2**20
    path = tmp_path / "big.bin"
    np.random.default_rng(4).integers(0, 2, size=n, dtype=np.uint8).tofile(path)
    tracemalloc.start()
    try:
        w = QueryCountedString.from_file(path)
        rle = rle_additive_estimate(w, 0.05, seed=1)
        colors = colors_estimate(w, 50.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rle.queries_used < n // 100 and colors.queries_used < n // 100
    assert peak < n // 2  # one whole-input copy or n-byte bitmap would cost n


def test_provider_backed_accessor_is_lazy():
    calls = []

    def provider(idx0):
        calls.append(idx0.copy())
        return idx0 % 5

    w = QueryCountedString.from_provider(provider, length=1000, alphabet_size=5)
    sess = w.session()
    assert sess.read(11) == 0
    assert sess.queries == 1
    assert sum(c.size for c in calls) == 1


def test_meets_contract_examples():
    def rep(estimate, lam, eps):
        return EstimateReport(estimate, lam, eps, 0, 0)

    assert meets_contract(rep(5, 1.0, 0.0), exact=5, n=10)
    assert meets_contract(rep(0, 1.0, 0.5), exact=4, n=10)
    assert not meets_contract(rep(100, 2.0, 0.0), exact=10, n=10)
    with pytest.raises(ValueError):
        meets_contract(rep(1, 1.0, 0.0), exact=-1, n=10)


def test_report_validation():
    with pytest.raises(ValueError):
        EstimateReport(-1.0, 1.0, 0.0, 0, 0)
    with pytest.raises(ValueError):
        EstimateReport(1.0, 0.5, 0.0, 0, 0)
    with pytest.raises(ValueError):
        EstimateReport(1.0, 1.0, 1.5, 0, 0)
    for confidence in (7.0, 0.0, -4.0):
        with pytest.raises(ValueError, match="confidence"):
            EstimateReport(1.0, 1.0, 0.0, 0, 0, confidence=confidence)


def test_json_dict_uses_lambda_key():
    d = EstimateReport(1.0, 2.0, 0.1, 5, 9).to_json_dict()
    assert d["lambda"] == 2.0 and d["queries_used"] == 5

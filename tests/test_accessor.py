import sys
import threading
import tracemalloc

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
from compest.accessor import QuerySession, ReadBudgetSpent, distinct_count


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

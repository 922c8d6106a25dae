"""Tests of the functional set-associative cache."""

import copy
import random

import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import SetAssociativeCache


def make(capacity=4 * 1024, line=32, assoc=4, **kw) -> SetAssociativeCache:
    return SetAssociativeCache(capacity, line, assoc, **kw)


class TestGeometry:
    def test_table1_l1_geometry(self):
        c = make()
        assert c.n_sets == 32

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            make(capacity=5000)
        with pytest.raises(ConfigurationError):
            make(assoc=3)
        with pytest.raises(ConfigurationError):
            make(capacity=64, line=32, assoc=4)

    def test_line_address(self):
        c = make()
        assert c.line_address(0x1005) == 0x1000
        assert c.line_address(0x101F) == 0x1000
        assert c.line_address(0x1020) == 0x1020

    def test_index_stride(self):
        # With stride 32 (bank count), consecutive same-bank lines map
        # to consecutive sets instead of colliding.
        c = make(capacity=1024, line=32, assoc=2, index_stride_lines=32)
        a = c.set_index(0)
        b = c.set_index(32 * 32)  # next line of the same bank
        assert b == (a + 1) % c.n_sets


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = make()
        assert not c.access(0x1000).hit
        assert c.access(0x1000).hit
        assert c.access(0x101F).hit  # same line

    def test_distinct_lines_miss(self):
        c = make()
        c.access(0x1000)
        assert not c.access(0x1020).hit

    def test_stats(self):
        c = make()
        c.access(0x0)
        c.access(0x0)
        c.access(0x4, is_write=True)
        s = c.stats
        assert s.reads == 2
        assert s.writes == 1
        assert s.hits == 2
        assert s.misses == 1
        assert s.miss_rate == pytest.approx(1 / 3)

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            make().access(-4)


class TestEvictionAndWriteback:
    def test_lru_eviction_within_set(self):
        c = make(capacity=256, line=32, assoc=2)  # 4 sets
        step = 32 * c.n_sets  # same-set stride
        c.access(0 * step)
        c.access(1 * step)
        c.access(2 * step)  # evicts way with address 0
        assert not c.probe(0)
        assert c.probe(step)

    def test_dirty_eviction_reports_writeback(self):
        c = make(capacity=256, line=32, assoc=2)
        step = 32 * c.n_sets
        c.access(0, is_write=True)
        c.access(step)
        result = c.access(2 * step)
        assert result.writeback == 0
        assert result.evicted == 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_is_silent(self):
        c = make(capacity=256, line=32, assoc=2)
        step = 32 * c.n_sets
        c.access(0)
        c.access(step)
        result = c.access(2 * step)
        assert result.writeback is None
        assert result.evicted == 0

    def test_capacity_never_exceeded(self):
        c = make(capacity=1024, line=32, assoc=4)
        for i in range(500):
            c.access(i * 32)
        assert c.resident_lines <= 1024 // 32


class TestWriteNoAllocate:
    def test_hit_dirties_in_place(self):
        c = make()
        c.access(0x40)  # clean fill
        assert c.write_no_allocate(0x40)
        assert 0x40 in c.dirty_lines()

    def test_miss_does_not_allocate(self):
        c = make()
        assert not c.write_no_allocate(0x40)
        assert not c.probe(0x40)


class TestFlush:
    def test_full_flush(self):
        c = make()
        c.access(0x0, is_write=True)
        c.access(0x40)
        written, invalidated = c.flush()
        assert written == 1
        assert invalidated == 2
        assert c.resident_lines == 0

    def test_predicate_flush(self):
        c = make()
        c.access(0x0, is_write=True)
        c.access(0x1000, is_write=True)
        written, invalidated = c.flush(lambda addr: addr < 0x100)
        assert (written, invalidated) == (1, 1)
        assert not c.probe(0x0)
        assert c.probe(0x1000)

    def test_invalidate_all_drops_dirty_silently(self):
        c = make()
        c.access(0x0, is_write=True)
        count = c.invalidate_all()
        assert count == 1
        assert c.resident_lines == 0
        # invalidate_all is the post-flush power-off step: no writeback
        # counted here.
        assert c.stats.writebacks == 0

    def test_probe_is_non_destructive(self):
        c = make()
        c.access(0x0)
        before = c.stats.accesses
        assert c.probe(0x0)
        assert c.stats.accesses == before


class TestLazySets:
    """An LRU set's list appears on its first fill; until then every
    unfilled set is the shared, immutable empty tuple."""

    def test_only_filled_sets_own_state(self):
        c = make()
        step = 32 * c.n_sets
        for way in range(6):  # one set: fills, then evicts
            c.access(way * step, is_write=True)
        c.access(32)  # a second set
        owned = [i for i, s in enumerate(c._sets) if s != ()]
        assert owned == [0, 1]
        assert len(c._sets[0]) == 4 and c.resident_lines == 5
        assert c.probe(5 * step) and not c.probe(64)
        assert not c.write_no_allocate(64)  # unfilled set: a miss

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_placeholder_never_written(self, policy):
        c = make(policy=policy)
        unfilled = copy.deepcopy(c._sets)  # LRU: all the empty tuple
        for address in range(0, 64 * 1024, 96):
            c.access(address, is_write=address % 3 == 0)
        c.flush()
        c.invalidate_all()
        assert c._sets == unfilled and not c._dirty
        assert c.access(0).hit is False  # refills after invalidation
        assert c.access(0).hit is True


class TestReadAllocate:
    """The flat demand read against the general :meth:`access`."""

    @staticmethod
    def drive(flat, ref, seed, n=4000):
        """Random reads (``read_allocate`` on ``flat``, ``access`` on
        ``ref``) interleaved with the same write-backs, general
        accesses and partial flushes on both."""
        rng = random.Random(seed)
        for _ in range(n):
            address = rng.randrange(1 << 14)
            op = rng.random()
            if op < 0.6:
                result = ref.access(address)
                assert flat.read_allocate(address) == (result.hit, result.writeback)
            elif op < 0.85:
                assert flat.write_no_allocate(address) == ref.write_no_allocate(
                    address
                )
            elif op < 0.99:  # the MRU filter must stay coherent
                is_write = rng.random() < 0.5
                assert flat.access(address, is_write) == ref.access(
                    address, is_write
                )
            else:  # leaves free ways below used ones
                doomed = rng.randrange(8)
                predicate = lambda a: (a >> 5) % 8 == doomed  # noqa: E731
                assert flat.flush(predicate) == ref.flush(predicate)

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_access(self, stride, seed):
        flat = make(capacity=1024, assoc=4, index_stride_lines=stride)
        ref = make(capacity=1024, assoc=4, index_stride_lines=stride)
        self.drive(flat, ref, seed)
        assert flat.stats == ref.stats
        assert flat.stats.evictions and flat.stats.writebacks  # exercised
        assert flat.dirty_lines() == ref.dirty_lines()
        # The same lines in the same recency order.
        assert flat._sets == ref._sets

    def test_non_lru_policy_takes_the_general_path(self):
        flat = make(capacity=1024, assoc=4, policy="fifo")
        ref = make(capacity=1024, assoc=4, policy="fifo")
        self.drive(flat, ref, seed=4, n=1000)
        assert flat.stats == ref.stats
        assert flat._sets == ref._sets


class TestReplay:
    """A batched replay against one ``access`` per reference."""

    @staticmethod
    def blocks(seed, n_blocks=40):
        """Random blocks over a few sets, some all-read, one with a
        negative address."""
        rng = random.Random(seed)
        bad = rng.randrange(n_blocks)
        for b in range(n_blocks):
            n = rng.randrange(0, 60)
            addresses = [rng.randrange(1 << 13) for _ in range(n)]
            writes = None if b % 3 == 0 else [rng.random() < 0.3 for _ in range(n)]
            if b == bad:
                addresses.insert(rng.randrange(n + 1), -32)
                if writes is not None:
                    writes.insert(0, False)
            yield addresses, writes

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_access(self, policy, seed):
        flat = make(capacity=1024, assoc=4, policy=policy)
        ref = make(capacity=1024, assoc=4, policy=policy)
        raised = 0
        for addresses, writes in self.blocks(seed):
            expected = ([], [])
            flags = writes or [False] * len(addresses)
            try:
                for offset, (address, is_write) in enumerate(zip(addresses, flags)):
                    result = ref.access(address, is_write)
                    if not result.hit:
                        expected[0].append(offset)
                        expected[1].append(result.writeback)
            except ConfigurationError:
                with pytest.raises(ConfigurationError):
                    flat.replay(addresses, writes)
                raised += 1
            else:
                assert flat.replay(addresses, writes) == expected
            assert flat.stats == ref.stats
            assert flat._sets == ref._sets and flat._dirty == ref._dirty
        assert raised == 1
        assert flat.stats.writebacks and flat.stats.read_hits  # exercised

"""Set-associative write-back cache hierarchy."""

import random

import pytest

from repro.ir.program import BYTES_PER_WORD
from repro.machine.config import (
    CacheHierarchyConfig,
    CacheLevelConfig,
    itanium2_cache,
)
from repro.sim.cache import CacheHierarchy


def small_hierarchy():
    """Tiny, easy-to-reason-about geometry: L1 4 sets x 2 ways x 64B."""
    return CacheHierarchy(
        CacheHierarchyConfig(
            levels=(
                CacheLevelConfig("L1", 512, 64, 2, 1),
                CacheLevelConfig("L2", 2048, 64, 4, 5),
            ),
            memory_latency=50,
        )
    )


WORDS_PER_BLOCK = 64 // 8  # 8


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = small_hierarchy()
        assert c.access(0, False) == 50  # cold: memory
        assert c.access(0, False) == 1  # L1 hit
        assert c.access(1, False) == 1  # same 64B block

    def test_block_granularity(self):
        c = small_hierarchy()
        c.access(0, False)
        assert c.access(WORDS_PER_BLOCK, False) == 50  # next block: miss

    def test_l2_hit_after_l1_eviction(self):
        c = small_hierarchy()
        # Fill one L1 set (4 sets; blocks mapping to set 0: block 0, 4, 8...)
        c.access(0 * WORDS_PER_BLOCK * 4, False)
        c.access(1 * WORDS_PER_BLOCK * 4, False)
        c.access(2 * WORDS_PER_BLOCK * 4, False)  # evicts the LRU line from L1
        lat = c.access(0, False)  # evicted from L1, still in L2
        assert lat == 5

    def test_lru_order(self):
        c = small_hierarchy()
        a, b, d = (i * WORDS_PER_BLOCK * 4 for i in range(3))
        c.access(a, False)
        c.access(b, False)
        c.access(a, False)  # refresh a: b is now LRU
        c.access(d, False)  # evicts b
        assert c.access(a, False) == 1
        assert c.access(b, False) == 5  # b fell to L2

    def test_store_write_allocate(self):
        c = small_hierarchy()
        assert c.access(0, True) == 50  # store miss allocates
        assert c.access(0, False) == 1

    def test_writeback_counted(self):
        c = small_hierarchy()
        c.access(0, True)  # dirty line in set 0
        c.access(WORDS_PER_BLOCK * 4, False)
        c.access(WORDS_PER_BLOCK * 8, False)  # evicts dirty line 0
        assert c.stats.writebacks >= 1

    def test_stats_accumulate(self):
        c = small_hierarchy()
        c.access(0, False)
        c.access(0, False)
        assert c.stats.accesses == 2
        assert c.stats.hits["L1"] == 1
        assert c.stats.misses["L1"] == 1
        assert c.stats.hit_rate("L1") == 0.5

    def test_reset(self):
        c = small_hierarchy()
        c.access(0, False)
        c.reset()
        assert c.stats.accesses == 0
        assert c.access(0, False) == 50  # cold again


class TestItanium2Geometry:
    def test_latencies(self):
        c = CacheHierarchy(itanium2_cache())
        assert c.access(0, False) == 150
        assert c.access(0, False) == 1

    def test_l1_capacity(self):
        c = CacheHierarchy(itanium2_cache())
        # touch 16KB of distinct data: all should then hit in L1
        n_blocks = 16 * 1024 // 64
        for i in range(n_blocks):
            c.access(i * 8, False)
        hits_before = c.stats.hits["L1"]
        for i in range(n_blocks):
            c.access(i * 8, False)
        assert c.stats.hits["L1"] == hits_before + n_blocks

    def test_l2_block_size_is_128(self):
        c = CacheHierarchy(itanium2_cache())
        c.access(0, False)  # fills L1(64B) and L2/L3 (128B)
        # second half of the 128B L2 block: L1 miss (different 64B block),
        # but L2 hit
        assert c.access(8, False) == 5

    def test_sequential_scan_mostly_hits(self):
        c = CacheHierarchy(itanium2_cache())
        for w in range(1024):
            c.access(w, False)
        # 1 miss per 8-word block
        assert c.stats.misses["L1"] == 1024 // 8


def reference_access(self: CacheHierarchy, word_addr: int, is_store: bool) -> int:
    """``CacheHierarchy.access`` as it was before the L1-hit fast path,
    kept verbatim (``self`` is the hierarchy it drives)."""
    byte_addr = word_addr * BYTES_PER_WORD
    self.stats.accesses += 1

    hit_idx = None
    latency = self.config.memory_latency
    for i, level in enumerate(self.levels):
        block_addr = byte_addr // level.block_bytes
        if level.lookup(block_addr):
            self.stats.hits[level.cfg.name] += 1
            hit_idx = i
            latency = level.cfg.latency
            break
        self.stats.misses[level.cfg.name] += 1

    fill_until = hit_idx if hit_idx is not None else len(self.levels)
    for i in range(fill_until - 1, -1, -1):
        level = self.levels[i]
        block_addr = byte_addr // level.block_bytes
        evicted_dirty, _ = level.fill(block_addr, dirty=False)
        if evicted_dirty:
            self.stats.writebacks += 1

    if is_store:
        l1 = self.levels[0]
        l1.set_dirty(byte_addr // l1.block_bytes)
    return latency


def tiny_three_level() -> CacheHierarchyConfig:
    """2-way everywhere, so lines are evicted from and hit in L2 and L3."""
    return CacheHierarchyConfig(
        levels=(
            CacheLevelConfig("L1", 256, 64, 2, 1),
            CacheLevelConfig("L2", 1024, 64, 2, 4),
            CacheLevelConfig("L3", 4096, 128, 2, 9),
        ),
        memory_latency=40,
    )


def _streams(span: int):
    rng = random.Random(7)
    rand = [(rng.randrange(span), rng.random() < 0.3) for _ in range(4000)]
    strided = [
        ((base + k * stride) % span, rng.random() < 0.3)
        for stride in (1, 8, 24, 136)
        for base in (0, 5)
        for k in range(400)
    ]
    return {"random": rand, "strided": strided}


def _set_state(cache: CacheHierarchy, word_addr: int) -> list:
    """Per level, the (tag, dirty) order of the set ``word_addr`` maps to."""
    byte_addr = word_addr * BYTES_PER_WORD
    state = []
    for level in cache.levels:
        block = byte_addr // level.block_bytes
        state.append(list(level.sets[block % level.n_sets].items()))
    return state


class TestFastPathMatchesReference:
    @pytest.mark.parametrize(
        "config,span",
        [(itanium2_cache(), 1 << 16), (tiny_three_level(), 1 << 11)],
        ids=["itanium2", "tiny-2way"],
    )
    @pytest.mark.parametrize("stream", ["random", "strided"])
    def test_every_access(self, config, span, stream):
        fast, ref = CacheHierarchy(config), CacheHierarchy(config)
        accesses = _streams(span)[stream]
        for run in range(2):
            for addr, is_store in accesses:
                assert fast.access(addr, is_store) == reference_access(
                    ref, addr, is_store
                )
                assert fast.stats == ref.stats
                assert _set_state(fast, addr) == _set_state(ref, addr)
            for lf, lr in zip(fast.levels, ref.levels):
                assert [list(s.items()) for s in lf.sets] == [
                    list(s.items()) for s in lr.sets
                ]
            fast.reset()
            ref.reset()

    def test_stream_reaches_every_level(self):
        ref = CacheHierarchy(tiny_three_level())
        for addr, is_store in _streams(1 << 11)["random"]:
            reference_access(ref, addr, is_store)
        assert all(ref.stats.hits[lv] > 0 for lv in ("L1", "L2", "L3"))
        assert ref.stats.misses["L3"] > 0 and ref.stats.writebacks > 0

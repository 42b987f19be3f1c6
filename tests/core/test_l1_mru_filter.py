"""The MRU re-hit filter in front of the stacked L1 kernel.

``mru_rehits`` marks an access whose set's previous access (at most
``MRU_WINDOW`` positions back) carried the same tag; the stacked engine
drops those before it sorts the frame. Dropping must be exact: misses,
miss streams and snapshots equal the per-access reference loop at every
associativity, across frame splits and checkpoint cuts. The mask itself
is pinned exactly, so a filter that looks one step too far or too short,
ignores an intervening same-set access, or matches tags across sets is
caught even where the cache outcome would hide it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.l1_cache import MRU_WINDOW, L1CacheConfig, L1CacheSim, mru_rehits

WAYS = [1, 2, 4, 8, 64]


def ones(n):
    return np.ones(n, dtype=np.int64)


def arr(xs):
    return np.array(xs, dtype=np.int64)


def rehit_stream(rng, n_sets, length):
    """A stream dense in the filter's edge cases.

    Tags come from a small universe; a share of accesses put a tag in a
    random set instead of its home set (one tag in several sets). Then
    some positions copy the access 1..MRU_WINDOW+2 places back, making
    re-hits at, inside and beyond the window, some with an intervening
    same-set access of another tag; and some accesses repeat in runs.
    """
    universe = int(rng.integers(2, 4 * n_sets * 2 + 3))
    tags = rng.integers(0, universe, length)
    sets = np.where(
        rng.random(length) < 0.3, rng.integers(0, n_sets, length), tags % n_sets
    )
    for i in range(1, length):
        if rng.random() < 0.4:
            k = int(rng.integers(1, min(i, MRU_WINDOW + 2) + 1))
            tags[i], sets[i] = tags[i - k], sets[i - k]
    reps = rng.integers(1, 4, length)
    return np.repeat(tags, reps)[:length], np.repeat(sets, reps)[:length]


def reference_mask(tags, sets):
    """The filter's definition, one access at a time."""
    out = np.zeros(len(tags), dtype=bool)
    for i in range(len(tags)):
        for k in range(1, min(MRU_WINDOW, i) + 1):
            if sets[i - k] == sets[i]:
                out[i] = tags[i - k] == tags[i]
                break
    return out


def true_rehits(tags, sets):
    """Accesses whose set's previous access, at any distance, had the tag."""
    last = {}
    out = np.zeros(len(tags), dtype=bool)
    for i, (t, s) in enumerate(zip(tags.tolist(), sets.tolist())):
        out[i] = last.get(s) == t
        last[s] = t
    return out


def at_window(distance):
    """Tag 7 in set 0, ``distance`` positions apart, other sets between."""
    tags = arr([7, *range(1, distance), 7])
    sets = arr([0, *[1] * (distance - 1), 0])
    return tags, sets


class TestMask:
    def test_rehit_at_exactly_the_window(self):
        tags, sets = at_window(MRU_WINDOW)
        assert mru_rehits(tags, sets).tolist() == [False] * MRU_WINDOW + [True]

    def test_rehit_one_step_beyond_the_window_is_kept(self):
        tags, sets = at_window(MRU_WINDOW + 1)
        assert not mru_rehits(tags, sets).any()

    def test_intervening_same_set_access_blocks(self):
        # 7 at distance 2 is not the set's most recent tag: 9 is.
        tags = arr([7, 9, 7])
        sets = arr([0, 0, 0])
        assert mru_rehits(tags, sets).tolist() == [False, False, False]
        tags = arr([7, 1, 9, 7])
        sets = arr([0, 1, 0, 0])
        assert mru_rehits(tags, sets).tolist() == [False] * 4

    def test_one_tag_in_several_sets_is_not_a_rehit(self):
        tags = arr([5, 5, 5, 5])
        sets = arr([0, 1, 2, 0])
        assert mru_rehits(tags, sets).tolist() == [False, False, False, True]

    def test_nearest_same_set_access_decides(self):
        tags = arr([3, 4, 3, 3])
        sets = arr([0, 1, 1, 0])
        # Position 3: nearest set-0 access is position 0 (tag 3), since
        # position 2's tag 3 went to set 1.
        assert mru_rehits(tags, sets).tolist() == [False, False, False, True]

    def test_single_set_form_is_consecutive_repeats(self):
        gids = arr([1, 1, 2, 1, 1, 1, 3, 2, 2])
        want = [False, True, False, False, True, True, False, False, True]
        assert mru_rehits(gids).tolist() == want
        assert mru_rehits(gids, np.zeros(len(gids), dtype=np.int64)).tolist() == want

    def test_short_streams(self):
        assert mru_rehits(arr([])).tolist() == []
        assert mru_rehits(arr([]), arr([])).tolist() == []
        assert mru_rehits(arr([4]), arr([0])).tolist() == [False]
        assert mru_rehits(arr([4, 4]), arr([2, 2])).tolist() == [False, True]

    @given(seed=st.integers(0, 10_000), log_sets=st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_definition(self, seed, log_sets):
        rng = np.random.default_rng(seed)
        tags, sets = rehit_stream(rng, 1 << log_sets, int(rng.integers(0, 150)))
        mask = mru_rehits(tags, sets)
        assert mask.tolist() == reference_mask(tags, sets).tolist()
        # Every marked access is a true MRU re-hit (the window only
        # limits how many are found).
        assert not (mask & ~true_rehits(tags, sets)).any()
        # On uint16 set keys, as the stacked engine passes them.
        assert mru_rehits(tags, sets.astype(np.uint16)).tolist() == mask.tolist()


def assert_same(fast, ref, refs, sets):
    a = fast.access_frame(refs, ones(len(refs)), sets)
    b = ref.access_frame(refs, ones(len(refs)), sets)
    assert a.accesses == b.accesses == len(refs)
    assert a.misses == b.misses
    assert a.miss_refs.tolist() == b.miss_refs.tolist()
    assert fast.snapshot_state() == ref.snapshot_state()


def pair(ways, n_sets):
    cfg = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
    fast, ref = L1CacheSim(cfg), L1CacheSim(cfg, use_reference=True)
    assert fast.engine == "stacked" and ref.engine == "reference"
    return fast, ref


class TestFilteredKernelMatchesReference:
    @given(
        seed=st.integers(0, 10_000),
        ways=st.sampled_from(WAYS),
        log_sets=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_splits_with_carried_stacks(self, seed, ways, log_sets):
        rng = np.random.default_rng(seed)
        n_sets = 1 << log_sets
        fast, ref = pair(ways, n_sets)
        # A warm-up frame leaves carried stacks in every touched set.
        warm, warm_sets = rehit_stream(rng, n_sets, int(rng.integers(1, 60)))
        assert_same(fast, ref, warm, warm_sets)
        tags, sets = rehit_stream(rng, n_sets, int(rng.integers(1, 400)))
        cuts = np.sort(rng.integers(0, len(tags) + 1, int(rng.integers(0, 5))))
        bounds = [0, *cuts.tolist(), len(tags)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert_same(fast, ref, tags[a:b], sets[a:b])

    @given(
        seed=st.integers(0, 10_000),
        ways=st.sampled_from(WAYS),
        log_sets=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_snapshot_restore_cut_mid_stream(self, seed, ways, log_sets):
        rng = np.random.default_rng(seed)
        n_sets = 1 << log_sets
        tags, sets = rehit_stream(rng, n_sets, int(rng.integers(2, 300)))
        cut = int(rng.integers(1, len(tags)))
        fast, ref = pair(ways, n_sets)
        assert_same(fast, ref, tags[:cut], sets[:cut])
        # Resume each engine from the other's snapshot; both must finish
        # like the uninterrupted reference.
        fast2, ref2 = pair(ways, n_sets)
        fast2.restore_state(ref.snapshot_state())
        ref2.restore_state(fast.snapshot_state())
        want = ref.access_frame(tags[cut:], ones(len(tags) - cut), sets[cut:])
        for sim in (fast2, ref2):
            got = sim.access_frame(tags[cut:], ones(len(tags) - cut), sets[cut:])
            assert got.misses == want.misses
            assert got.miss_refs.tolist() == want.miss_refs.tolist()
            assert sim.snapshot_state() == ref.snapshot_state()

    def test_rehit_at_and_beyond_the_window(self):
        for ways in WAYS:
            fast, ref = pair(ways, 4)
            assert_same(fast, ref, *at_window(MRU_WINDOW))
            assert_same(fast, ref, *at_window(MRU_WINDOW + 1))

    def test_intervening_same_set_access(self):
        # Direct-mapped: 9 evicts 7, so the second 7 must miss.
        fast, ref = pair(1, 2)
        assert_same(fast, ref, arr([7, 1, 9, 7]), arr([0, 1, 0, 0]))
        res = L1CacheSim(L1CacheConfig(size_bytes=2 * 64, ways=1)).access_frame(
            arr([7, 1, 9, 7]), ones(4), arr([0, 1, 0, 0])
        )
        assert res.misses == 4

    def test_one_tag_in_several_sets(self):
        # The same tag in two sets is two lines: both miss.
        for ways in WAYS:
            fast, ref = pair(ways, 4)
            assert_same(fast, ref, arr([5, 5, 5, 5]), arr([0, 1, 2, 0]))
        res = L1CacheSim(L1CacheConfig(size_bytes=4 * 2 * 64)).access_frame(
            arr([5, 5, 5]), ones(3), arr([0, 1, 0])
        )
        assert res.misses == 2 and res.miss_refs.tolist() == [5, 5]

    def test_accesses_count_every_access(self):
        fast, _ = pair(2, 2)
        res = fast.access_frame(arr([3, 3, 3, 3]), ones(4), arr([1, 1, 1, 1]))
        assert (res.accesses, res.misses, res.miss_refs.tolist()) == (4, 1, [3])

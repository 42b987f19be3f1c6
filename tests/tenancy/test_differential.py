"""Differential tests: every partitioning policy, batched vs reference.

The dual-engine contract extends to tenancy: a merged multi-tenant stream
simulated with the batched kernels must be bit-identical — including the
per-tenant stat vectors — to the per-access reference loops, for every
partitioning policy, and a single-tenant "merge" with a full-cache quota
must equal the plain single-tenant simulation.
"""

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.tenancy import (
    POLICIES,
    PartitionedL2,
    PartitionedTLB,
    TenancyConfig,
    merge_traces,
    static_quotas,
    tenant_of_refs,
    utility_quotas,
    way_quotas,
)

L2 = L2CacheConfig(size_bytes=64 * 1024, l2_tile_texels=16)


def _config(tenancy, tlb_entries=8):
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2,
        tlb_entries=tlb_entries,
        tenancy=tenancy,
    )


def _tenancy(policy, bases, traces, tlb_quotas=None):
    if policy == "static":
        quotas = static_quotas(L2, len(traces))
    elif policy == "way":
        quotas = way_quotas(8, len(traces))
    elif policy == "utility":
        quotas = utility_quotas(traces, 2048, L2)
    else:
        quotas = None
    return TenancyConfig(
        tid_bases=bases,
        policy=policy,
        quotas=quotas,
        tlb_quotas=tlb_quotas,
        ways=8,
    )


@pytest.fixture(scope="module")
def merged_pair(village_trace, city_trace):
    return merge_traces([village_trace, city_trace], schedule="rr", seed=0)


class TestEngineIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_bit_identical_across_engines(
        self, merged_pair, village_trace, city_trace, policy
    ):
        merged, bases = merged_pair
        config = _config(
            _tenancy(policy, bases, [village_trace, city_trace])
        )
        batched = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        reference = MultiLevelTextureCache(
            config, merged.address_space, use_reference=True
        ).run_trace(merged)
        # FrameCacheStats equality covers the per-tenant vectors too.
        assert batched.frames == reference.frames
        for f in batched.frames:
            assert f.tenants is not None and f.tenants.n_tenants == 2

    def test_partitioned_tlb_bit_identical(
        self, merged_pair, village_trace, city_trace
    ):
        merged, bases = merged_pair
        config = _config(
            _tenancy(
                "static", bases, [village_trace, city_trace], tlb_quotas=(4, 4)
            )
        )
        batched = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        reference = MultiLevelTextureCache(
            config, merged.address_space, use_reference=True
        ).run_trace(merged)
        assert batched.frames == reference.frames

    def test_bursty_weighted_stream_bit_identical(
        self, village_trace, city_trace
    ):
        merged, bases = merge_traces(
            [village_trace, city_trace],
            schedule="bursty",
            weights=[2.0, 1.0],
            seed=5,
        )
        config = _config(_tenancy("none", bases, [village_trace, city_trace]))
        batched = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        reference = MultiLevelTextureCache(
            config, merged.address_space, use_reference=True
        ).run_trace(merged)
        assert batched.frames == reference.frames


class TestAttribution:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tenant_vectors_sum_to_frame_totals(
        self, merged_pair, village_trace, city_trace, policy
    ):
        merged, bases = merged_pair
        config = _config(_tenancy(policy, bases, [village_trace, city_trace]))
        res = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        for f in res.frames:
            t = f.tenants
            assert int(t.texel_reads.sum()) == f.texel_reads
            assert int(t.l1_accesses.sum()) == f.l1_accesses
            assert int(t.l1_misses.sum()) == f.l1_misses
            assert int(t.l2_accesses.sum()) == f.l2.accesses
            assert int(t.l2_full_hits.sum()) == f.l2.full_hits
            assert int(t.l2_partial_hits.sum()) == f.l2.partial_hits
            assert int(t.l2_full_misses.sum()) == f.l2.full_misses
            assert int(t.l2_evictions.sum()) == f.l2.evictions
            assert int(t.tlb_accesses.sum()) == f.tlb.accesses
            assert int(t.tlb_hits.sum()) == f.tlb.hits

    def test_homogeneous_tenants_attribution_is_symmetric(self, village_trace):
        # Two clones of the same workload on a statically split L2 read
        # the same texels and pull the same unique blocks into their
        # private partitions. (Hit *counts* may differ slightly: the L1
        # is shared, so the interleaving perturbs each clone's miss
        # stream — but not its footprint.)
        merged, bases = merge_traces([village_trace, village_trace])
        config = _config(
            _tenancy("static", bases, [village_trace, village_trace]),
            tlb_entries=None,
        )
        res = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        for f in res.frames:
            t = f.tenants
            assert t.texel_reads[0] == t.texel_reads[1]
            assert t.l2_full_misses[0] == t.l2_full_misses[1]


class TestSingleTenantEquivalence:
    def test_full_quota_single_tenant_equals_plain_sim(self, village_trace):
        merged, bases = merge_traces([village_trace])
        tenancy = TenancyConfig(
            tid_bases=bases, policy="static", quotas=(L2.n_blocks,)
        )
        shared = MultiLevelTextureCache(
            _config(tenancy), merged.address_space
        ).run_trace(merged)
        plain = MultiLevelTextureCache(
            _config(None), village_trace.address_space
        ).run_trace(village_trace)
        for s, p in zip(shared.frames, plain.frames):
            assert s.texel_reads == p.texel_reads
            assert s.l1_accesses == p.l1_accesses
            assert s.l1_misses == p.l1_misses
            assert s.l2 == p.l2
            assert s.tlb == p.tlb
            assert np.array_equal(s.tenants.texel_reads, [p.texel_reads])


TINY_L2 = L2CacheConfig(size_bytes=8 * 1024, l2_tile_texels=16)  # 8 blocks


def _canonical(tree):
    """A snapshot tree with engine-independent orderings made canonical."""
    if isinstance(tree, dict):
        out = {k: _canonical(v) for k, v in tree.items() if k != "engine"}
        if "sector_gids" in tree:
            # A set-associative part's sector dict: order is incidental.
            out["sector_gids"] = sorted(
                zip(out.pop("sector_gids"), out.pop("sector_bits"))
            )
        return out
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, (list, tuple)):
        return [_canonical(v) for v in tree]
    return tree


def _four_tenant_bursty(village_trace, city_trace):
    traces = [village_trace, city_trace, village_trace, city_trace]
    merged, bases = merge_traces(traces, schedule="bursty", seed=3)
    return traces, merged, bases


def _interleaved_walk(config, merged):
    """Per-frame ``(l2, tlb)`` per-tenant count matrices of a stream-order walk.

    An oracle independent of the hierarchy's segment logic: the L1 miss
    stream goes through the reference L2/TLB one access per call, in
    stream order, whatever the partitioning.
    """
    space = merged.address_space
    sim = MultiLevelTextureCache(config, space, use_reference=True)
    tenancy = config.tenancy
    l2_parted = isinstance(sim.l2, PartitionedL2)
    tlb_parted = isinstance(sim.tlb, PartitionedTLB)
    out = []
    for frame in merged.frames:
        sets = space.l1_set_indices(frame.refs, config.l1.n_sets)
        miss = sim.l1.access_frame(frame.refs, frame.weights, sets).miss_refs
        gids, subs = space.l2_addresses(miss, config.l2.l2_tile_texels)
        owners = tenant_of_refs(miss, tenancy.tid_bases)
        l2 = np.zeros((tenancy.n_tenants, 5), dtype=np.int64)
        tlb = np.zeros((tenancy.n_tenants, 2), dtype=np.int64)
        for gid, sub, t in zip(gids, subs, owners.tolist()):
            g, s = np.array([gid]), np.array([sub])
            res = sim.tlb.access_frame(t, g) if tlb_parted else sim.tlb.access_frame(g)
            tlb[t] += [res.accesses, res.hits]
            res = sim.l2.access_blocks(t, g, s) if l2_parted else sim.l2.access_blocks(g, s)
            l2[t] += [
                res.accesses,
                res.full_hits,
                res.partial_hits,
                res.full_misses,
                res.evictions,
            ]
        out.append((l2, tlb))
    return out


def _assert_engines_identical(config, merged):
    batched = MultiLevelTextureCache(config, merged.address_space)
    reference = MultiLevelTextureCache(
        config, merged.address_space, use_reference=True
    )
    walk = _interleaved_walk(config, merged)
    for frame, (l2, tlb) in zip(merged.frames, walk):
        b = batched.run_frame(frame)
        r = reference.run_frame(frame)
        # FrameCacheStats equality covers the frame totals and the
        # per-tenant vectors.
        assert b == r
        t = b.tenants
        np.testing.assert_array_equal(
            np.stack(
                [
                    t.l2_accesses,
                    t.l2_full_hits,
                    t.l2_partial_hits,
                    t.l2_full_misses,
                    t.l2_evictions,
                ],
                axis=1,
            ),
            l2,
        )
        np.testing.assert_array_equal(
            np.stack([t.tlb_accesses, t.tlb_hits], axis=1), tlb
        )
        assert _canonical(batched.snapshot_state()) == _canonical(
            reference.snapshot_state()
        )


class TestPerTenantCalls:
    @pytest.mark.parametrize("tlb_quotas", [None, (2, 1, 2, 1)])
    @pytest.mark.parametrize("policy", ["static", "utility", "way"])
    def test_tiny_quotas_bursty_four_tenants(
        self, village_trace, city_trace, policy, tlb_quotas
    ):
        traces, merged, bases = _four_tenant_bursty(village_trace, city_trace)
        if policy == "static":
            quotas = static_quotas(TINY_L2, 4)
        elif policy == "utility":
            quotas = utility_quotas(traces, 2048, TINY_L2)
        else:
            quotas = way_quotas(8, 4)
        tenancy = TenancyConfig(
            tid_bases=bases,
            policy=policy,
            quotas=quotas,
            tlb_quotas=tlb_quotas,
            ways=8,
        )
        config = HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=TINY_L2,
            tlb_entries=8,
            tenancy=tenancy,
        )
        _assert_engines_identical(config, merged)

    @pytest.mark.parametrize(
        "policy, quotas, tlb_quotas",
        [
            ("none", None, (2, 1, 2, 1)),  # shared L2, partitioned TLB
            ("static", (2, 2, 2, 2), None),  # partitioned L2, shared TLB
        ],
    )
    def test_shared_level_keeps_the_interleaving(
        self, village_trace, city_trace, policy, quotas, tlb_quotas
    ):
        _, merged, bases = _four_tenant_bursty(village_trace, city_trace)
        tenancy = TenancyConfig(
            tid_bases=bases, policy=policy, quotas=quotas, tlb_quotas=tlb_quotas
        )
        config = HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=TINY_L2,
            tlb_entries=8,
            tenancy=tenancy,
        )
        _assert_engines_identical(config, merged)

"""Host-side cmat build: distinct-nu batching, the propagator memo, and
the shard guards that rely on its blocks.

``CmatPropagator.build`` inverts ``I - dt * nu * C_n`` once per distinct
(exact-bits nu, mode) pair; these tests pin that every block is
bit-identical to a per-pair ``np.linalg.inv``, that the memo never
leaks into returned shards, and that the modelled (simulated) build
cost is still one inverse per pair.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import linear_benchmark, nl03c_scaled, small_test
from repro.collision import CmatPropagator, CollisionOperator
from repro.grid import ConfigGrid, VelocityGrid
from repro.machine import frontier_like, single_node
from repro.vmpi import VirtualWorld
from repro.xgyro import XgyroEnsemble
from repro.xgyro.shared_cmat import SharedCmatScheme

PRESETS = {"small_test": small_test, "linear_benchmark": linear_benchmark}


def operator_for(inp):
    d = inp.grid_dims()
    return CollisionOperator(
        d, VelocityGrid.build(d), ConfigGrid.build(d), inp.collision_params()
    )


def per_pair(op, dt, ic, n_mode):
    """Reference block: one inverse per (ic, n) pair."""
    eye = np.eye(op.dims.nv)
    return np.linalg.inv(eye - dt * op.nu_profile()[ic] * op.mode_matrix(n_mode))


@lru_cache(maxsize=None)
def reference_tensor(preset):
    """Per-pair reference blocks of a preset, shape (nc, nt, nv, nv)."""
    inp = PRESETS[preset]()
    op = operator_for(inp)
    d = op.dims
    return np.array(
        [[per_pair(op, inp.delta_t, ic, n) for n in range(d.nt)] for ic in range(d.nc)]
    )


@pytest.fixture
def inverse_counter(monkeypatch):
    """Counts the matrices ``np.linalg.inv`` actually inverts."""
    counts = {"calls": 0, "matrices": 0}
    real_inv = np.linalg.inv

    def counting_inv(a):
        a = np.asarray(a)
        counts["calls"] += 1
        counts["matrices"] += int(np.prod(a.shape[:-2], dtype=np.int64))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return counts


@st.composite
def build_plans(draw):
    """A preset, a partition of its ic indices into calls, a mode subset."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    d = PRESETS[preset]().grid_dims()
    ics = draw(st.permutations(range(d.nc)))
    cuts = sorted(draw(st.sets(st.integers(1, d.nc - 1), max_size=6)))
    bounds = [0] + cuts + [d.nc]
    calls = [ics[a:b] for a, b in zip(bounds, bounds[1:])]
    modes = draw(
        st.lists(st.integers(0, d.nt - 1), min_size=1, max_size=d.nt, unique=True)
    )
    return preset, calls, modes


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(build_plans())
    def test_any_partition_matches_per_pair_inverse(self, plan):
        preset, calls, modes = plan
        inp = PRESETS[preset]()
        prop = CmatPropagator(operator_for(inp), dt=inp.delta_t)
        ref = reference_tensor(preset)
        for ics in calls:
            out = prop.build(ics, modes)
            assert np.array_equal(out, ref[np.ix_(ics, modes)])

    def test_uniform_nu_inverts_once_per_mode(self, inverse_counter):
        inp = small_test(nu_profile_eps=0.0)
        op = operator_for(inp)
        assert len(set(op.nu_profile().tolist())) == 1
        prop = CmatPropagator(op, dt=inp.delta_t)
        d = op.dims
        half = d.nc // 2
        lo = prop.build(range(half), range(d.nt))
        hi = prop.build(range(half, d.nc), range(d.nt))
        assert inverse_counter["matrices"] == d.nt
        assert inverse_counter["calls"] == d.nt
        for n in range(d.nt):
            expect = per_pair(op, inp.delta_t, 0, n)
            assert np.array_equal(lo[:, n], np.broadcast_to(expect, lo[:, n].shape))
            assert np.array_equal(hi[:, n], np.broadcast_to(expect, hi[:, n].shape))

    def test_nu_one_ulp_apart_is_never_merged(self, inverse_counter):
        inp = small_test()
        op = operator_for(inp)
        nu = np.full(op.dims.nc, 1.0)
        nu[1::2] = np.nextafter(1.0, 2.0)
        op.nu_profile = lambda: nu.copy()
        prop = CmatPropagator(op, dt=inp.delta_t)
        out = prop.build(range(op.dims.nc), [0, 2])
        assert inverse_counter["matrices"] == 2 * 2
        assert sorted(prop._memo) == sorted(
            (float(v), n) for v in (nu[0], nu[1]) for n in (0, 2)
        )
        for i in (0, 1):
            for j, n in enumerate((0, 2)):
                assert np.array_equal(out[i, j], per_pair(op, inp.delta_t, i, n))

    def test_results_own_their_memory(self):
        inp = small_test()
        prop = CmatPropagator(operator_for(inp), dt=inp.delta_t)
        first = prop.build([0, 1, 4], [0, 1])
        second = prop.build([0, 1, 4], [0, 1])
        assert first.flags.owndata and second.flags.owndata
        assert not np.shares_memory(first, second)
        for block in prop._memo.values():
            assert not block.flags.writeable
            assert not np.shares_memory(first, block)
            assert not np.shares_memory(second, block)
        # a bit-flip in one result reaches neither the memo nor a peer
        first.view(np.uint64)[0, 0, 0, 0] ^= np.uint64(1)
        assert np.array_equal(second, prop.build([0, 1, 4], [0, 1]))
        assert not np.array_equal(first, second)

    def test_memo_lives_with_the_propagator(self):
        inp = small_test()
        a = CmatPropagator(operator_for(inp), dt=inp.delta_t)
        b = CmatPropagator(operator_for(inp), dt=inp.delta_t)
        a.build([0], [0])
        assert a._memo and not b._memo


class TestInverseCount:
    def test_nl03c_finalize_inverts_each_distinct_pair_once(self, inverse_counter):
        base = nl03c_scaled()
        inputs = [
            base.with_updates(dlntdr=(2.0 + 0.1 * m, 2.0 + 0.1 * m), name=f"m{m}")
            for m in range(4)
        ]
        ens = XgyroEnsemble(VirtualWorld(frontier_like(n_nodes=32)), inputs)
        first = ens.members[0]
        d = first.dims
        distinct = len(set(first.collision_operator.nu_profile().tolist())) * d.nt
        assert distinct == 40
        assert inverse_counter["matrices"] == distinct
        # the simulated charge still models one inverse per (ic, n) pair
        prop = ens.scheme._prop
        world = ens.world
        pairs = 0
        for shards in ens.scheme.shards.values():
            for s in shards:
                flops = prop.build_flops(s.n_ic, first.decomp.nt_loc)
                charged = world.category_time("cmat_build", [s.world_rank])
                assert charged == world.machine.compute_seconds(flops)
                pairs += s.n_ic * first.decomp.nt_loc
        assert pairs == d.nc * d.nt == 1024


def sweep(k):
    base = small_test()
    return [
        base.with_updates(dlntdr=(2.0 + m, 2.0 + m), name=f"m{m}") for m in range(k)
    ]


def fresh_blocks(ens, shard, i2):
    """The shard's blocks from a brand-new operator and propagator."""
    first = ens.members[0]
    prop = CmatPropagator(operator_for(first.inp), dt=first.inp.delta_t)
    n_idx = range(*first.decomp.nt_slice(i2).indices(first.dims.nt))
    return prop.build(shard.ic_indices, n_idx)


def old_checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestShardGuards:
    def test_corrupt_verify_repair_then_recover(self):
        ens = XgyroEnsemble(VirtualWorld(single_node(ranks=16)), sweep(2))
        scheme = ens.scheme
        assembled = dict(scheme._checksums)
        target = scheme.shards[0][1].world_rank
        before = scheme._cmat[target].copy()

        scheme.corrupt_shard(target, seed=3)
        assert scheme.verify_shards() == (target,)
        scheme.repair_shard(target)
        assert scheme._checksums[target] == assembled[target]
        assert np.array_equal(scheme._cmat[target], before)
        assert scheme.verify_shards() == ()

        ens.drop_members([1])
        assert scheme.verify_shards() == ()
        for i2, shards in scheme.shards.items():
            for s in shards:
                assert np.array_equal(scheme._cmat[s.world_rank], fresh_blocks(ens, s, i2))

    def test_checksum_matches_tobytes_digest(self):
        ens = XgyroEnsemble(VirtualWorld(single_node(ranks=16)), sweep(2))
        scheme = ens.scheme
        shard = scheme._cmat[scheme.shards[0][0].world_rank]
        assert shard.flags.c_contiguous
        assert SharedCmatScheme._checksum(shard) == old_checksum(shard)
        strided = shard[:, ::-1]
        assert SharedCmatScheme._checksum(strided) == old_checksum(strided)

        owned = {s.world_rank: s.n_ic for s in scheme.shards[0]}
        ens.drop_members([1])
        merged = [
            scheme._cmat[s.world_rank]
            for s in scheme.shards[0]
            if s.n_ic > owned[s.world_rank]
        ]
        assert merged
        for arr in merged:
            assert SharedCmatScheme._checksum(arr) == old_checksum(arr)


class TestBaseMatrixCache:
    def test_alternating_operators_each_assemble_once(self, monkeypatch):
        calls = []
        real = CollisionOperator.species_block

        def counting(self, s):
            calls.append(id(self))
            return real(self, s)

        monkeypatch.setattr(CollisionOperator, "species_block", counting)
        a = operator_for(small_test())
        b = operator_for(small_test(nu=0.2))
        for _ in range(3):
            a.base_matrix()
            b.mode_matrix(1)
        n_species = a.dims.n_species
        assert calls.count(id(a)) == n_species
        assert calls.count(id(b)) == n_species
        assert a._base_matrix is a._base_matrix
        assert not a._base_matrix.flags.writeable
        assert a.base_matrix().flags.writeable

    def test_dropped_operator_is_collectable(self):
        op = operator_for(small_test())
        op.base_matrix()
        ref = weakref.ref(op)
        del op
        gc.collect()
        assert ref() is None

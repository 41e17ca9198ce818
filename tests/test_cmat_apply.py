"""Bit-identity of the collision-apply kernel.

``apply_propagator`` (and the ``propagator_operand`` + ``apply_operand``
pair the shared-cmat scheme uses to serve k members from one operand)
must reproduce, bit for bit, the per-(ic, mode) contraction

    np.einsum("ctvw,cwt->cvt", cmat, h, optimize=True)

which the kernel replaced.  The einsum lives here only, as the
reference: the XGYRO-vs-sequential oracle pins ``max_abs == 0.0`` and
the host benchmark pins model fingerprints, so any change of bits —
even at the 1e-18 level — would show up there as a failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgyro import small_test
from repro.collision.cmat import apply_operand, apply_propagator, propagator_operand
from repro.errors import InputError
from repro.vmpi import VirtualWorld
from repro.xgyro import XgyroEnsemble
import repro.xgyro.shared_cmat as shared_cmat


def reference(cmat: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.einsum("ctvw,cwt->cvt", cmat, h, optimize=True)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def random_blocks(rng, n_ic, n_modes, nv):
    cmat = rng.standard_normal((n_ic, n_modes, nv, nv))
    h = rng.standard_normal((n_ic, nv, n_modes)) + 1j * rng.standard_normal(
        (n_ic, nv, n_modes)
    )
    return cmat, h


def assert_bit_identical(cmat: np.ndarray, h: np.ndarray) -> None:
    ref = reference(cmat, h)
    out = apply_propagator(cmat, h)
    assert out.shape == ref.shape
    assert np.array_equal(bits(out), bits(ref))
    pair = apply_operand(propagator_operand(cmat), h)
    assert np.array_equal(bits(pair), bits(ref))


@pytest.mark.parametrize("nv", [16, 256])
@pytest.mark.parametrize("n_modes", [1, 2, 8])
@pytest.mark.parametrize("n_ic", [1, 3, 4])
def test_matches_einsum_bits(n_ic, n_modes, nv):
    rng = np.random.default_rng(1000 * n_ic + 10 * n_modes + nv)
    assert_bit_identical(*random_blocks(rng, n_ic, n_modes, nv))


@pytest.mark.parametrize("o0,o1", [(0, 2), (1, 4), (3, 6), (5, 6)])
def test_row_slice_matches_einsum_bits(o0, o1):
    """The overlapped schedule applies ``cmat[o0:o1]`` chunk by chunk."""
    rng = np.random.default_rng(7)
    cmat, h = random_blocks(rng, 6, 4, 64)
    assert_bit_identical(cmat[o0:o1], h[o0:o1])
    # a chunk's rows carry the same bits as in the whole-shard apply
    whole = apply_propagator(cmat, h)
    assert np.array_equal(bits(apply_propagator(cmat[o0:o1], h[o0:o1])),
                          bits(whole[o0:o1]))


def test_noncontiguous_h_matches_einsum_bits():
    rng = np.random.default_rng(11)
    cmat, _ = random_blocks(rng, 3, 2, 32)
    wide = rng.standard_normal((3, 64, 4)) + 1j * rng.standard_normal((3, 64, 4))
    h = wide[:, ::2, 1:3]
    assert not h.flags.c_contiguous
    assert_bit_identical(cmat, h)


def test_one_operand_serves_every_member():
    rng = np.random.default_rng(13)
    cmat, _ = random_blocks(rng, 4, 2, 64)
    operand = propagator_operand(cmat)
    for _ in range(3):
        _, h = random_blocks(rng, 4, 2, 64)
        assert np.array_equal(bits(apply_operand(operand, h)),
                              bits(reference(cmat, h)))


def test_shape_mismatch_raises():
    with pytest.raises(InputError):
        apply_propagator(np.zeros((2, 2, 4, 4)), np.zeros((2, 4, 3), dtype=complex))
    # same n_ic * n_modes row count, so only the per-axis check catches it
    with pytest.raises(InputError):
        apply_propagator(np.zeros((2, 2, 4, 4)), np.zeros((4, 4, 1), dtype=complex))
    with pytest.raises(InputError):
        apply_operand(propagator_operand(np.zeros((1, 2, 4, 4))),
                      np.zeros((2, 4, 1), dtype=complex))


@pytest.mark.parametrize("overlap", ["off", "full"])
def test_operand_built_once_per_rank_and_chunk(small_machine, monkeypatch, overlap):
    """The operand serves all k members: built once per (rank, group)
    per step, or once per (rank, chunk) on the overlapped schedule."""
    calls = []
    build = shared_cmat.propagator_operand

    def counting(cmat_block):
        calls.append(cmat_block.shape[0])
        return build(cmat_block)

    monkeypatch.setattr(shared_cmat, "propagator_operand", counting)
    world = VirtualWorld(small_machine)
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(3)
    ]
    ens = XgyroEnsemble(world, inputs, ranks=range(12), overlap=overlap)
    shards = [s for group in ens.scheme.shards.values() for s in group]
    if overlap == "off":
        per_step = len(shards)
    else:
        per_step = sum(
            len(group) * min(4, min(s.n_ic for s in group))
            for group in ens.scheme.shards.values()
        )
    n_steps = 2
    for _ in range(n_steps):
        ens.step()
    assert len(calls) == n_steps * per_step
    # every owned row goes through an operand exactly once per step
    assert sum(calls) == n_steps * sum(s.n_ic for s in shards)

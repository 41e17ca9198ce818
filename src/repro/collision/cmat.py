"""The collisional constant tensor ``cmat`` (implicit propagator).

CGYRO advances the stiff collision term implicitly:

    h^{n+1} = (I - dt * C(ic, n))^{-1} h^n .

Because ``C`` is constant, the inverse is precomputed once per
simulation and stored — for every owned ``(ic, n)`` pair — as the dense
``nv x nv`` *cmat* blocks.  This turns each collisional step into a
matrix-vector product (order-of-magnitude cheaper than an iterative
solve) at the price of ``nv^2 * nc * nt`` doubles of memory: the
dominant buffer of the whole code, ~10x everything else combined for
nl03c, and the object XGYRO shares across an ensemble.

:class:`CmatPropagator` builds blocks for an arbitrary subset of
``(ic, n)`` pairs, so the same code path serves a serial run, a CGYRO
rank (``nc_loc`` slice) and an XGYRO rank (``nc / (k * P1')`` slice of
the ensemble-wide distribution).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import InputError
from repro.collision.operator import CollisionOperator
from repro.grid.dims import GridDims


def cmat_total_bytes(dims: GridDims, dtype=np.float64) -> int:
    """Bytes of the full (undistributed) cmat tensor."""
    return dims.nv * dims.nv * dims.nc * dims.nt * np.dtype(dtype).itemsize


def cmat_block_bytes(dims: GridDims, n_ic: int, n_modes: int, dtype=np.float64) -> int:
    """Bytes of a cmat block covering ``n_ic`` x ``n_modes`` pairs."""
    return dims.nv * dims.nv * n_ic * n_modes * np.dtype(dtype).itemsize


class CmatPropagator:
    """Builds and applies ``(I - dt C)^{-1}`` blocks.

    Parameters
    ----------
    operator:
        The assembled collision operator.
    dt:
        Time-step entering the implicit solve; cmat *values* depend on
        it, which is why ``dt`` is part of the cmat signature.
    """

    def __init__(self, operator: CollisionOperator, dt: float) -> None:
        if dt <= 0:
            raise InputError(f"dt must be > 0, got {dt}")
        self.operator = operator
        self.dt = float(dt)
        #: read-only inverses keyed by ``(nu, n_mode)``; see :meth:`build`
        self._memo: Dict[Tuple[float, int], np.ndarray] = {}

    @property
    def dims(self) -> GridDims:
        """Grid dimensions of the underlying operator."""
        return self.operator.dims

    def build(
        self, ic_indices: Sequence[int], n_indices: Sequence[int]
    ) -> np.ndarray:
        """Propagator blocks for the given (ic, n) index sets.

        Returns ``A`` of shape ``(len(ic_indices), len(n_indices), nv,
        nv)`` with ``A[i, j] = (I - dt * nu(ic_i) * C_{n_j})^{-1}``.

        The collisionality profile enters only as a scalar per ic, so
        the block of a pair depends on ``(nu(ic), n)`` alone.  Per mode,
        the systems of the not-yet-seen distinct ``nu`` values (exact
        float bits, never a tolerance) are inverted in one stacked
        ``np.linalg.inv`` call; LAPACK factors each matrix of the stack
        on its own, so every block is bit-identical to a per-pair
        inverse.  The inverses are kept in a per-instance memo, so the
        many shard calls of one propagator (a shared-cmat ``finalize``,
        SDC repairs, recovery adoption) invert each ``(nu, n)`` once.
        ``nu`` depends on theta only, so the memo holds at most
        ``n_theta * nt`` blocks and lives as long as the propagator.

        The returned array is freshly allocated and owns its data: no
        block shares memory with the memo or with another result.
        """
        dims = self.dims
        ic_indices = list(ic_indices)
        n_indices = list(n_indices)
        for ic in ic_indices:
            if not 0 <= ic < dims.nc:
                raise InputError(f"ic {ic} out of range [0, {dims.nc})")
        profile = self.operator.nu_profile()
        nus = [float(profile[ic]) for ic in ic_indices]
        nv = dims.nv
        out = np.empty((len(ic_indices), len(n_indices), nv, nv))
        for j, n_mode in enumerate(n_indices):
            missing = [
                nu for nu in dict.fromkeys(nus) if (nu, n_mode) not in self._memo
            ]
            if missing:
                c_n = self.operator.mode_matrix(n_mode)
                eye = np.eye(nv)
                inverses = np.linalg.inv(
                    np.stack([eye - self.dt * nu * c_n for nu in missing])
                )
                inverses.setflags(write=False)
                for nu, inv in zip(missing, inverses):
                    self._memo[(nu, n_mode)] = inv
            for i, nu in enumerate(nus):
                out[i, j] = self._memo[(nu, n_mode)]
        return out

    def build_flops(self, n_ic: int, n_modes: int) -> float:
        """Estimated flops to build a block (one LU-grade inverse/pair).

        This is the *modelled* CGYRO cost charged to simulated clocks —
        one inverse per (ic, n) pair — not the host's work, which
        :meth:`build` reduces to one inverse per distinct (nu, n).
        """
        return float(n_ic) * float(n_modes) * (2.0 / 3.0 + 2.0) * self.dims.nv**3


def apply_propagator(cmat_block: np.ndarray, h_block: np.ndarray) -> np.ndarray:
    """Collisional step: apply cmat blocks to a COLL-layout field block.

    Parameters
    ----------
    cmat_block:
        Shape ``(n_ic, n_modes, nv, nv)``, real.
    h_block:
        Shape ``(n_ic, nv, n_modes)``, complex (COLL layout:
        configuration x velocity x toroidal).

    Returns
    -------
    Updated block of the same shape as ``h_block``.

    This is :func:`propagator_operand` followed by
    :func:`apply_operand`.  The operand is the one numpy's
    ``einsum("ctvw,cwt->cvt", optimize=True)`` builds internally (the
    transposed blocks cast to complex128), and the apply is the batched
    matmul that einsum dispatches to, so the result has the same bits
    as that einsum.  Every (ic, mode) row is computed on its own, by
    one vector-matrix product against its own block: a row's bits do
    not depend on which other rows, members or chunks share the call.
    That is why a shared-cmat ensemble stays bit-identical to its
    members run one at a time.  A caller applying one block to several
    field blocks (the k members of an XGYRO ensemble) builds the
    operand once and calls :func:`apply_operand` per field block.
    """
    return apply_operand(propagator_operand(cmat_block), h_block)


def propagator_operand(cmat_block: np.ndarray) -> np.ndarray:
    """The complex operand :func:`apply_operand` multiplies by.

    Shape ``(n_ic, n_modes, nv, nv)``, complex128, C-contiguous, with
    ``operand[c, t] = cmat_block[c, t].T``.  It is transient: build it
    per apply (it is twice the size of the real block it comes from)
    rather than keeping it beside the shared tensor.
    """
    return np.ascontiguousarray(np.swapaxes(cmat_block, 2, 3), dtype=np.complex128)


def apply_operand(operand: np.ndarray, h_block: np.ndarray) -> np.ndarray:
    """Apply a :func:`propagator_operand` to a COLL-layout field block.

    ``h_block`` has shape ``(n_ic, nv, n_modes)``; the result has the
    same shape.  See :func:`apply_propagator` for why the bits match
    the per-row contraction.
    """
    n_ic, n_modes, nv, nv2 = operand.shape
    if nv != nv2:
        raise InputError(
            f"cmat blocks must be square, got operand shape {operand.shape}"
        )
    if h_block.shape != (n_ic, nv, n_modes):
        raise InputError(
            f"h block shape {h_block.shape} incompatible with cmat "
            f"{operand.shape}; expected ({n_ic}, {nv}, {n_modes})"
        )
    rows = h_block.transpose(0, 2, 1).reshape(n_ic * n_modes, 1, nv)
    out = np.matmul(rows, operand.reshape(n_ic * n_modes, nv, nv))
    return out.reshape(n_ic, n_modes, nv).transpose(0, 2, 1)


def apply_flops(n_ic: int, n_modes: int, nv: int) -> float:
    """Flops of one collisional application (complex matvec per pair)."""
    return 8.0 * float(n_ic) * float(n_modes) * float(nv) ** 2

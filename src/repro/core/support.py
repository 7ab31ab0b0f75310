"""Bit-packed co-support kernels (pruning strategy 1, Section 5.3.1).

"Only consider pairs of items for which at least one customer has non-zero
willingness to pay for both": the pruning rule needs, for every candidate
pair of bundles, whether their per-user support masks intersect.  The dense
formulation — an ``(M, B)`` boolean stack and a float matmul — costs
O(M·B) bytes per scan and O(M) work per greedy merge.

Packing each support mask into ``uint8`` words (the idiom of
:mod:`repro.fim.bitset`, which runs the vertical frequent-itemset miners)
shrinks masks 8× versus boolean arrays — 64× versus the float32 matmul
operands — and turns every intersection test into a word-wise AND:

* :func:`item_support_bits` packs the per-item support of a
  :class:`~repro.core.wtp.WTPMatrix` once;
* :func:`bundle_support_bits` derives a bundle's mask as the word-OR of
  its items' rows;
* :func:`co_supported_pairs_packed` emits exactly the pair list of the
  dense reference, in the same (row-major, i < j) order.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a per-user boolean support mask into ``uint8`` words."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValidationError(f"expected a 1-D support mask, got shape {mask.shape}")
    return np.packbits(mask)


def unpack_mask(bits: np.ndarray, n_users: int) -> np.ndarray:
    """Inverse of :func:`pack_mask`, truncated to *n_users* entries."""
    return np.unpackbits(bits, count=n_users).astype(bool)


def masks_intersect(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two packed masks share any set bit (one word-AND pass)."""
    return bool(np.any(first & second))


def supported_count(bits: np.ndarray) -> int:
    """Number of supporting users in a packed mask."""
    return int(np.bitwise_count(bits).sum())


def item_support_bits(wtp: WTPMatrix) -> np.ndarray:
    """Packed per-item support, shape ``(n_items, ceil(n_users / 8))``.

    Row ``i`` packs the mask "user has positive WTP for item ``i``", built
    column by column through :meth:`WTPMatrix.support_mask`.
    """
    n_words = (wtp.n_users + 7) // 8
    bits = np.empty((wtp.n_items, n_words), dtype=np.uint8)
    for item in range(wtp.n_items):
        bits[item] = np.packbits(wtp.support_mask([item]))
    return bits


def bundle_support_bits(item_bits: np.ndarray, items: Sequence[int]) -> np.ndarray:
    """A bundle's packed support: word-OR of its items' rows.

    Exact for non-negative WTP: a bundle's raw WTP is positive for a user
    iff some member item's WTP is (a sum of non-negative floats is positive
    iff one addend is).
    """
    items = list(items)
    if len(items) == 1:
        return item_bits[items[0]]
    return np.bitwise_or.reduce(item_bits[items], axis=0)


def co_supported_pairs_packed(packed: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, whose packed masks intersect.

    Matches the dense reference (upper-triangle of the support Gram matrix)
    exactly, including its row-major emission order, while touching
    O(B²·M/8) bytes instead of forming an ``(M, B)`` float operand.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValidationError(
            f"expected packed masks of shape (n_bundles, n_words), got {packed.shape}"
        )
    n_bundles = packed.shape[0]
    pairs: list[tuple[int, int]] = []
    for i in range(n_bundles - 1):
        hits = np.flatnonzero((packed[i + 1 :] & packed[i]).any(axis=1))
        pairs.extend((i, int(i + 1 + j)) for j in hits)
    return pairs

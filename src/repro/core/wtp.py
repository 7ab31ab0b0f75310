"""The willingness-to-pay matrix ``W`` (paper, Section 3).

``W`` is an M×N non-negative matrix: ``W[u, i]`` is how much consumer ``u``
is willing to pay for item ``i``.  The matrix is the single input every
bundling algorithm consumes; Section 6.1.1's ratings-to-WTP mapping (in
:mod:`repro.data.wtp_mapping`) is one way to produce it.

Bundle-level willingness to pay follows Equation 1:

    w_{u,b} = (1 + θ) · Σ_{i∈b} w_{u,i}

with the convention — implied by the paper's statement that "θ only applies
to bundling, Components is not affected by θ" — that the interaction factor
``(1 + θ)`` applies only to bundles of two or more items.

Storage
-------
``W`` is always a dense, read-only float64 array, as in the paper's
scalability study (Section 6.3), which clones users into a dense
population.  SciPy sparse input is densified at construction by duck
typing (anything with ``toarray``), so this module never imports SciPy.

The kernel-facing contract is :meth:`WTPMatrix.raw_sum` (per-user sum over
item columns, bit-identical to ``values[:, items].sum(axis=1)``), its
block form :meth:`WTPMatrix.raw_sums` (many equal-size bundles over a
range of users) and :meth:`WTPMatrix.support_mask` (boolean "values any
item positive" mask).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from repro.core.bundle import Bundle
from repro.core.kernels import check_chunk_elements, chunk_width, iter_chunks
from repro.errors import ValidationError


def _build_dense(values) -> np.ndarray:
    """Validate *values* and return a frozen float64 copy."""
    if hasattr(values, "toarray"):  # SciPy sparse, densified at the boundary
        values = values.toarray()
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        # Ragged rows or non-numeric entries: numpy's coercion error,
        # re-raised as the API's validation error.
        raise ValidationError(f"WTP matrix input is not numeric 2-D: {exc}") from exc
    if array.ndim != 2:
        raise ValidationError(f"WTP matrix must be 2-D, got shape {array.shape}")
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise ValidationError(f"WTP matrix must be non-empty, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError("WTP matrix contains non-finite entries")
    if np.any(array < 0):
        raise ValidationError("WTP matrix contains negative entries")
    array = array.copy()
    array.setflags(write=False)
    return array


class WTPMatrix:
    """M×N willingness-to-pay matrix, stored as a read-only float64 array.

    Parameters
    ----------
    values:
        Array-like of shape ``(n_users, n_items)`` — or a SciPy sparse
        matrix, which is densified.  Entries must be finite and
        non-negative.  Input is copied and frozen read-only.
    item_labels:
        Optional human-readable item names (used by case-study reports).
    """

    def __init__(self, values, item_labels: Sequence[str] | None = None) -> None:
        if isinstance(values, WTPMatrix):
            if item_labels is None:
                item_labels = values.item_labels
            values = values._values
        self._values = _build_dense(values)
        if item_labels is not None:
            labels = [str(label) for label in item_labels]
            if len(labels) != self.n_items:
                raise ValidationError(
                    f"got {len(labels)} item labels for {self.n_items} items"
                )
            self._item_labels: tuple[str, ...] | None = tuple(labels)
        else:
            self._item_labels = None

    # ------------------------------------------------------------------ shape
    @property
    def n_users(self) -> int:
        """M, the number of consumers."""
        return self._values.shape[0]

    @property
    def n_items(self) -> int:
        """N, the number of items."""
        return self._values.shape[1]

    @property
    def nnz(self) -> int:
        """Number of positive entries."""
        return int(np.count_nonzero(self._values))

    @property
    def density(self) -> float:
        """Fraction of positive entries."""
        return self.nnz / (self.n_users * self.n_items)

    @property
    def values(self) -> np.ndarray:
        """The matrix as a read-only dense array."""
        return self._values

    @property
    def item_labels(self) -> tuple[str, ...] | None:
        """Item names if provided at construction."""
        return self._item_labels

    def label_of(self, item: int) -> str:
        """Readable name for *item* (falls back to ``"item <i>"``)."""
        if self._item_labels is not None:
            return self._item_labels[item]
        return f"item {item}"

    # ------------------------------------------------------------- aggregates
    @property
    def total(self) -> float:
        """Aggregate willingness to pay — the revenue upper bound.

        The denominator of the paper's *revenue coverage* metric
        (Section 6.1.2).
        """
        return float(self._values.sum())

    def column(self, item: int) -> np.ndarray:
        """Per-user WTP for a single item (a read-only view)."""
        return self._values[:, item]

    def iter_columns(
        self, chunk_elements: int | None = None
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, block)`` column blocks under a budget.

        ``block`` is a read-only zero-copy view of the item columns
        ``[start, stop)``, shape ``(n_users, stop-start)``, holding at most
        ``chunk_elements`` values, so consumers that scan the whole matrix
        — transaction building, subset enumeration, list-price baselines —
        work block by block.  ``chunk_elements=None`` yields one
        all-columns block (the streaming kernels' convention for
        "unchunked").
        """
        width = chunk_width(
            self.n_items, self.n_users, check_chunk_elements(chunk_elements)
        )
        for start, stop in iter_chunks(self.n_items, width):
            yield start, stop, self._values[:, start:stop]

    # --------------------------------------------------------- kernel contract
    def raw_sum(self, items: Sequence[int]) -> np.ndarray:
        """Per-user WTP summed over *items* (float64).

        This is the kernel-facing raw-WTP primitive: exactly
        ``values[:, list(items)].sum(axis=1)``.
        """
        return self._values[:, list(items)].sum(axis=1)

    def raw_sums(self, items: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Raw WTP of users ``start:stop`` for equal-size bundles at once.

        *items* is an ``(n_bundles, size)`` item-index matrix; column ``k``
        of the ``(stop - start, n_bundles)`` result sums row ``k``'s items
        exactly as :meth:`raw_sum` sums them on a matrix of the same number
        of users.  numpy lays a gather of two or more rows out user-major,
        so each user's sum runs left to right in item order; a one-row
        gather is item-contiguous and sums pairwise.
        """
        return self._values[start:stop, items].sum(axis=2)

    def support_mask(self, items: Sequence[int]) -> np.ndarray:
        """Boolean mask of users with positive WTP for *any* of *items*."""
        return (self._values[:, list(items)] > 0).any(axis=1)

    def bundle_wtp(self, bundle: Bundle, theta: float = 0.0) -> np.ndarray:
        """Per-user WTP for *bundle* under Equation 1 (float64).

        The ``(1 + θ)`` interaction factor applies only when the bundle has
        two or more items; a singleton's WTP is the item's WTP unchanged.
        """
        if bundle.size == 1:
            return self.column(bundle.items[0]).copy()
        return self.raw_sum(bundle.items) * (1.0 + theta)

    def support(self, bundle: Bundle) -> np.ndarray:
        """Boolean mask of users with positive WTP for any item of *bundle*."""
        return self.support_mask(bundle.items)

    # ------------------------------------------------------------ persistence
    def save_npz(self, path) -> None:
        """Persist the ``values`` array (and labels) to a compressed ``.npz``."""
        payload: dict[str, np.ndarray] = {"values": self._values}
        if self._item_labels is not None:
            payload["labels"] = np.array(self._item_labels)
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load_npz(cls, path) -> "WTPMatrix":
        """Inverse of :meth:`save_npz`.

        Only the dense ``values`` layout is readable; any stored dtype
        loads as float64.  A CSC-triplet archive (``data`` / ``indices`` /
        ``indptr``) raises :class:`~repro.errors.ValidationError`.
        """
        with np.load(Path(path), allow_pickle=False) as archive:
            if "values" not in archive.files:
                raise ValidationError(
                    f"{path} holds arrays {sorted(archive.files)}, not the dense "
                    "'values' layout; CSC-triplet (data/indices/indptr) WTP "
                    "archives are no longer readable"
                )
            labels = archive["labels"].tolist() if "labels" in archive.files else None
            return cls(archive["values"], item_labels=labels)

    # ----------------------------------------------------------- derivations
    def subset_items(self, items: Sequence[int]) -> "WTPMatrix":
        """A new matrix restricted to the given item columns (reindexed 0..)."""
        items = list(items)
        if not items:
            raise ValidationError("cannot build a WTP matrix with zero items")
        labels = None
        if self._item_labels is not None:
            labels = [self._item_labels[i] for i in items]
        return WTPMatrix(self._values[:, items], item_labels=labels)

    def subset_users(self, users: Sequence[int]) -> "WTPMatrix":
        """A new matrix restricted to the given user rows."""
        users = list(users)
        if not users:
            raise ValidationError("cannot build a WTP matrix with zero users")
        return WTPMatrix(self._values[users, :], item_labels=self._item_labels)

    def apply_delta(self, removed: Sequence[int], added=None) -> "WTPMatrix":
        """Population churn: drop user rows, append new ones.

        ``removed`` holds indices into the *current* population; ``added``
        is an optional ``(n_added, n_items)`` array-like of new rows.
        Retained users keep their relative order and the added rows are
        appended after them, so every retained user's row — and with it any
        per-user aggregate (:meth:`raw_sum`, :meth:`support_mask`) — is
        bit-identical to the pre-delta matrix.  This is the matrix-level
        primitive behind :class:`repro.core.delta.PopulationDelta`.
        """
        removed = list(removed)
        if len(set(removed)) != len(removed):
            raise ValidationError("removed user indices must be unique")
        for user in removed:
            if not 0 <= int(user) < self.n_users:
                raise ValidationError(
                    f"removed user index {user} out of range for {self.n_users} users"
                )
        keep = np.ones(self.n_users, dtype=bool)
        if removed:
            keep[np.asarray(removed, dtype=np.intp)] = False
        if added is not None:
            added = np.asarray(added, dtype=np.float64)
            if added.ndim != 2 or (added.size and added.shape[1] != self.n_items):
                raise ValidationError(
                    f"added rows must have shape (n, {self.n_items}), "
                    f"got {added.shape}"
                )
        if not np.any(keep) and (added is None or added.shape[0] == 0):
            raise ValidationError("a delta may not remove the entire population")
        source = self._values[keep]
        if added is not None and added.shape[0]:
            source = np.vstack([source, added])
        return WTPMatrix(source, item_labels=self._item_labels)

    @classmethod
    def stack(cls, matrices: Sequence["WTPMatrix"]) -> "WTPMatrix":
        """The matrices' rows concatenated in order (labels of the first)."""
        return cls(
            np.vstack([matrix._values for matrix in matrices]),
            item_labels=matrices[0].item_labels,
        )

    def clone_users(self, factor: int) -> "WTPMatrix":
        """Stack *factor* copies of the user population (Section 6.3).

        The paper's scalability study "clones the users in the same dataset
        using a multiplication factor"; this reproduces that workload.
        """
        if factor < 1:
            raise ValidationError(f"clone factor must be >= 1, got {factor}")
        return WTPMatrix.stack([self] * factor)

    def scaled(self, factor: float) -> "WTPMatrix":
        """A new matrix with every entry multiplied by *factor* (> 0)."""
        if factor <= 0:
            raise ValidationError(f"scale factor must be > 0, got {factor}")
        return WTPMatrix(self._values * factor, item_labels=self._item_labels)

    def __repr__(self) -> str:
        return (
            f"WTPMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"total={self.total:.2f})"
        )

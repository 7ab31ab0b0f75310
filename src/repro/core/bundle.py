"""Immutable bundles of items.

A *bundle* (paper, Section 3) is a non-empty set of item indices.  Bundles are
the unit every algorithm manipulates: configurations are collections of
bundles, prices attach to bundles, and willingness to pay is defined per
bundle via Equation 1.

:class:`Bundle` is a thin immutable wrapper around a sorted tuple of item
indices.  It is hashable (usable as a cache key), supports set algebra, and
renders compactly.  It also carries its items as an integer bit mask, so
the set tests behind the laminarity checks (``intersects``, ``issubset``,
``isdisjoint``) are single integer ANDs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import ValidationError


class Bundle:
    """An immutable, non-empty set of item indices.

    Items are arbitrary non-negative integers (column indices into the WTP
    matrix).  Two bundles are equal iff they contain the same items.

    >>> Bundle([2, 0]) == Bundle.of(0, 2)
    True
    >>> (Bundle.of(0) | Bundle.of(1)).items
    (0, 1)
    """

    __slots__ = ("_items", "_hash", "_mask")

    def __init__(self, items: Iterable[int]) -> None:
        unique = sorted(set(items))
        if not unique:
            raise ValidationError("a bundle must contain at least one item")
        for item in unique:
            if isinstance(item, bool) or not isinstance(item, (int,)):
                raise ValidationError(f"bundle items must be ints, got {item!r}")
            if item < 0:
                raise ValidationError(f"bundle items must be >= 0, got {item}")
        self._items: tuple[int, ...] = tuple(int(item) for item in unique)
        self._hash = hash(self._items)
        # The item bit mask, built on first use (0: not built yet; a
        # bundle is never empty, so a built mask is never 0).
        self._mask = 0

    @classmethod
    def of(cls, *items: int) -> "Bundle":
        """Build a bundle from item arguments: ``Bundle.of(1, 5, 2)``."""
        return cls(items)

    @classmethod
    def singleton(cls, item: int) -> "Bundle":
        """Build a size-1 bundle for *item*."""
        return cls((item,))

    @property
    def items(self) -> tuple[int, ...]:
        """The items, as a sorted tuple."""
        return self._items

    @property
    def size(self) -> int:
        """Number of items in the bundle (``|b|`` in the paper)."""
        return len(self._items)

    def is_singleton(self) -> bool:
        """True for size-1 bundles, which represent individual components."""
        return len(self._items) == 1

    def union(self, other: "Bundle") -> "Bundle":
        """The merged bundle ``self ∪ other``."""
        return Bundle(self._items + other._items)

    def _bits(self) -> int:
        """The items as an integer: bit i is set iff item i is in the bundle."""
        mask = self._mask
        if not mask:
            for item in self._items:
                mask |= 1 << item
            self._mask = mask
        return mask

    def intersects(self, other: "Bundle") -> bool:
        """True if the bundles share at least one item."""
        return self._bits() & other._bits() != 0

    def issubset(self, other: "Bundle") -> bool:
        """True if every item of *self* belongs to *other*."""
        return self._bits() & ~other._bits() == 0

    def isdisjoint(self, other: "Bundle") -> bool:
        """True if the bundles share no item."""
        return self._bits() & other._bits() == 0

    def __or__(self, other: "Bundle") -> "Bundle":
        return self.union(other)

    def __contains__(self, item: int) -> bool:
        return item in self._items

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bundle):
            return NotImplemented
        return self._items == other._items

    def __lt__(self, other: "Bundle") -> bool:
        # Deterministic ordering (by item tuple) so sorted() over bundles
        # is stable across runs; not a subset relation.
        if not isinstance(other, Bundle):
            return NotImplemented
        return self._items < other._items

    def __repr__(self) -> str:
        inner = ", ".join(str(item) for item in self._items)
        return f"Bundle({{{inner}}})"


def validate_partition(bundles: Iterable[Bundle], n_items: int) -> None:
    """Check Problem 1's structural conditions for a pure configuration.

    The bundles must be pairwise disjoint and their union must be exactly
    ``{0, ..., n_items - 1}``.  Raises :class:`ValidationError` otherwise.
    """
    seen: set[int] = set()
    for bundle in bundles:
        for item in bundle:
            if item in seen:
                raise ValidationError(f"item {item} appears in more than one bundle")
            if item >= n_items:
                raise ValidationError(f"item {item} is out of range for n_items={n_items}")
            seen.add(item)
    if len(seen) != n_items:
        missing = sorted(set(range(n_items)) - seen)
        raise ValidationError(f"items not covered by any bundle: {missing[:10]}")


def laminar_order(bundles: Sequence[Bundle]) -> list[int]:
    """Indices of *bundles* sorted by ``(-size, items)``: every bundle
    comes after all its strict supersets, and duplicates are adjacent."""
    return sorted(
        range(len(bundles)), key=lambda k: (-bundles[k].size, bundles[k].items)
    )


def laminar_walk(
    ordered: Sequence[Bundle],
) -> tuple[list[int | None], tuple[int, int] | None]:
    """Parents of a laminar family in one pass over its items.

    *ordered* must be in :func:`laminar_order`.  Each item points at the
    latest bundle that holds it, which in a laminar family is the smallest
    holder so far.  A bundle's parent — its smallest strict superset — is
    then the common holder of all its items (``None`` for a root).  When
    its items disagree, some earlier bundle intersects it without holding
    it, and no earlier bundle can fit inside it, so the two overlap.

    Returns ``(parents, violation)``: ``parents[k]`` indexes *ordered*
    for every bundle walked, and ``violation`` is ``None`` or the pair
    ``(later, earlier)`` of the first bundle that breaks the family and an
    earlier one it duplicates (equal bundles) or overlaps.  The walk
    stops at the violation.  O(total items) dictionary lookups, where a
    pairwise check makes O(bundles²) set tests.
    """
    holder: dict[int, int] = {}
    parents: list[int | None] = []
    for index, bundle in enumerate(ordered):
        owners = [holder.get(item) for item in bundle.items]
        parent = owners[0]
        if any(owner != parent for owner in owners):
            culprit = next(
                owner
                for owner in owners
                if owner is not None and not bundle.issubset(ordered[owner])
            )
            return parents, (index, culprit)
        if parent is not None and ordered[parent] == bundle:
            return parents, (index, parent)
        parents.append(parent)
        for item in bundle.items:
            holder[item] = index
    return parents, None


def validate_laminar(bundles: Iterable[Bundle], n_items: int) -> None:
    """Check Problem 2's structural conditions for a mixed configuration.

    Any two bundles must be either disjoint or nested (a laminar family),
    and the union must cover ``{0, ..., n_items - 1}``.  A violating pair
    is named in input order.
    """
    bundle_list = list(bundles)
    covered: set[int] = set()
    for bundle in bundle_list:
        for item in bundle:
            if item >= n_items:
                raise ValidationError(f"item {item} is out of range for n_items={n_items}")
            covered.add(item)
    if len(covered) != n_items:
        missing = sorted(set(range(n_items)) - covered)
        raise ValidationError(f"items not covered by any bundle: {missing[:10]}")
    order = laminar_order(bundle_list)
    _, violation = laminar_walk([bundle_list[k] for k in order])
    if violation is None:
        return
    first, second = (bundle_list[k] for k in sorted(order[v] for v in violation))
    if first == second:
        raise ValidationError(f"duplicate bundle in configuration: {first}")
    raise ValidationError(
        f"bundles {first} and {second} overlap without nesting "
        "(violates the mixed-bundling laminarity condition)"
    )

"""The one-pass laminar walk against the pairwise oracles.

:func:`~repro.core.choice.build_forest` and
:func:`~repro.core.bundle.validate_laminar` share
:func:`~repro.core.bundle.laminar_walk`.  On random laminar families both
must match the pairwise oracles of ``tests/laminar_oracles.py`` exactly —
forest shape, child order, and acceptance.  On random non-laminar families
both must raise the oracle's exception type with its wording, naming a
pair that really is a duplicate or an overlap; where the family has a
single offending pair, the message must be the oracle's word for word.
"""

import re

import numpy as np
import pytest

from repro.core.bundle import Bundle, validate_laminar
from repro.core.choice import build_forest
from repro.core.configuration import MixedConfiguration
from repro.core.pricing import PricedBundle
from repro.errors import ConfigurationError, ValidationError

from laminar_oracles import pairwise_build_forest, pairwise_validate_laminar

N_ITEMS = 12
BUNDLE = r"(Bundle\(\{.*?\}\))"
FOREST_MESSAGES = (
    rf"duplicate offer for bundle {BUNDLE}$",
    rf"offers {BUNDLE} and {BUNDLE} overlap without nesting$",
)
LAMINAR_MESSAGES = (
    rf"duplicate bundle in configuration: {BUNDLE}$",
    rf"bundles {BUNDLE} and {BUNDLE} overlap without nesting \(violates the .*\)$",
)


def random_laminar(rng) -> list[Bundle]:
    """A random laminar family covering every item: a random hierarchy of
    splits, of which a random subset (always the leaves) is kept."""
    family: list[Bundle] = []

    def split(items: list[int]) -> None:
        if len(items) == 1 or rng.random() < 0.6:
            family.append(Bundle(items))
        if len(items) == 1:
            return
        order = rng.permutation(items).tolist()
        cuts = sorted(rng.choice(range(1, len(items)), size=rng.integers(1, 3)))
        for part in np.split(np.array(order), np.unique(cuts)):
            split(part.tolist())

    split(list(range(N_ITEMS)))
    rng.shuffle(family)
    return family


def random_non_laminar(rng) -> list[Bundle]:
    """A laminar family plus one or two random bundles, which may duplicate
    a member or cross one (or, rarely, nest)."""
    family = random_laminar(rng)
    for _ in range(rng.integers(1, 3)):
        if rng.random() < 0.25:
            extra = family[rng.integers(len(family))]
        else:
            size = rng.integers(2, N_ITEMS)
            extra = Bundle(rng.choice(N_ITEMS, size=size, replace=False).tolist())
        family.insert(rng.integers(len(family) + 1), extra)
    return family


def offending_pairs(family: list[Bundle]) -> list[tuple[Bundle, Bundle]]:
    return [
        (a, b)
        for i, a in enumerate(family)
        for b in family[i + 1 :]
        if a == b or (a.intersects(b) and not (a.issubset(b) or b.issubset(a)))
    ]


def shape(roots) -> list:
    return [(node.bundle, node.offer.price, shape(node.children)) for node in roots]


def offers_of(family: list[Bundle]) -> list[PricedBundle]:
    return [PricedBundle(b, float(k), 0.0, 0.0) for k, b in enumerate(family)]


def named_bundles(message: str, patterns) -> list[str]:
    for pattern in patterns:
        match = re.match(pattern, message)
        if match:
            return list(match.groups())
    raise AssertionError(f"unexpected wording: {message!r}")


def raised(fn, *args):
    try:
        fn(*args)
    except (ConfigurationError, ValidationError) as error:
        return error
    return None


def assert_fails_like_oracle(ours, oracle, patterns, offenders):
    """*ours* and *oracle* are the errors the walk and the oracle raised."""
    assert oracle is not None and ours is not None
    assert type(ours) is type(oracle)
    named_bundles(str(oracle), patterns)
    names = frozenset(named_bundles(str(ours), patterns))
    assert names in {frozenset((str(a), str(b))) for a, b in offenders}
    if len(offenders) == 1:
        assert str(ours) == str(oracle)


@pytest.mark.parametrize("seed", range(60))
def test_laminar_families_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    family = random_laminar(rng)
    assert not offending_pairs(family)
    offers = offers_of(family)
    assert shape(build_forest(offers)) == shape(pairwise_build_forest(offers))
    validate_laminar(family, N_ITEMS)
    pairwise_validate_laminar(family, N_ITEMS)
    config = MixedConfiguration(offers, N_ITEMS)
    assert config.forest() is config.forest()
    assert shape(config.forest()) == shape(pairwise_build_forest(offers))


@pytest.mark.parametrize("seed", range(120))
def test_non_laminar_families_fail_like_the_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    family = random_non_laminar(rng)
    offenders = offending_pairs(family)
    if not offenders:  # the extra bundles happened to nest
        offers = offers_of(family)
        assert shape(build_forest(offers)) == shape(pairwise_build_forest(offers))
        validate_laminar(family, N_ITEMS)
        return
    offers = offers_of(family)
    assert_fails_like_oracle(
        raised(build_forest, offers),
        raised(pairwise_build_forest, offers),
        FOREST_MESSAGES,
        offenders,
    )
    assert_fails_like_oracle(
        raised(validate_laminar, family, N_ITEMS),
        raised(pairwise_validate_laminar, family, N_ITEMS),
        LAMINAR_MESSAGES,
        offenders,
    )

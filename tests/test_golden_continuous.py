"""Bit-identity of the four heuristics on continuous WTP.

On the ratings golden (``test_golden_default.py``) most bundle sums happen
to round the same way in either order of addition.  This snapshot pins
fits on seeded lognormal WTP with θ = 0.13, float64 and float32 mixed
states and two scan threads, so a change in how a pair scan assembles
``(raw(b1) + raw(b2)) · (1 + θ)`` or ``score1 + score2`` shows in the last
bit.  A narrow chunk budget (seven columns per block) must reproduce the
same bits as the default budget.

Regenerate (only after an *intentional* behaviour change) with::

    PYTHONPATH=src python tests/golden/make_continuous.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_continuous", GOLDEN_DIR / "make_continuous.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()

CHUNK_BUDGETS = {
    "default": {},
    "split": {"chunk_elements": generator.N_USERS * 7},
}


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN_DIR / "continuous.json").read_text())["fits"]


@pytest.fixture(scope="module")
def wtp():
    return generator.continuous_wtp()


@pytest.mark.parametrize("budget", list(CHUNK_BUDGETS))
@pytest.mark.parametrize("state_dtype", generator.STATE_DTYPES)
@pytest.mark.parametrize("method", list(generator.METHODS))
def test_continuous_fit_is_bit_identical(golden, wtp, method, state_dtype, budget):
    got = generator.fit_record(wtp, method, state_dtype, **CHUNK_BUDGETS[budget])
    want = golden[state_dtype][method]
    assert got["revenue"] == want["revenue"], (
        f"expected revenue {float.fromhex(want['revenue'])!r}, "
        f"got {float.fromhex(got['revenue'])!r}"
    )
    assert got["offers"] == want["offers"]

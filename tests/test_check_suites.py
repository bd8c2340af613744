"""The decider, trichotomy and reduction check suites of `prodcsp check` pass
item by item."""

import pytest

from prodcsp.checks import run_suites


@pytest.mark.parametrize("suite", ["membership", "trichotomy", "reductions"])
def test_suite_passes(suite):
    results = run_suites([suite])
    assert results
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed

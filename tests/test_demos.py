"""Every demo script runs to completion against the library in src/."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    code, _, err = run_python([str(script)], 120)
    assert code == 0, err

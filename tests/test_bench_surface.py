"""The benchmark's workloads run against the current program.

``bench/workloads.py`` calls the library the way the benchmark times it, so a
changed signature or return shape fails here before a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["weyl-wide", "operator-algebra", "mc-serial"])
def test_one_check_per_workload_holds(name):
    workload = workloads.WORKLOADS[name]
    outcome = workload.check(workload.draw(np.random.default_rng(1)))
    assert outcome.verdicts and outcome.misses() == []

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


def test_pooled_check_has_the_bits_of_one_worker(fresh_pool):
    workload = workloads.WORKLOADS["mc-pool"]
    inputs = workload.draw(np.random.default_rng(1))
    pooled = workload.check(inputs)
    reference = workload.reference(inputs)
    assert pooled.verdicts and pooled.misses() == [] and reference.misses() == []
    assert (np.asarray(pooled.values, dtype="<f8").tobytes()
            == np.asarray(reference.values, dtype="<f8").tobytes())

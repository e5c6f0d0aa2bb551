"""Bitwise pin of every Monte Carlo estimator at fixed seeds.

Each case hashes the float64 bytes of one estimator's output, computed with
one worker.  The budgets span several chunks with a partial last one, so the
pin covers the chunk plan, the substreams and the merge order.  A change
that moves any of these bits must update the digest and say why.
"""

import hashlib

import numpy as np
import pytest

from focklab.fock_core import EVector, TruncationSpec
from focklab.hardy_chi import HardyChiFunction, mc_f_transform, mc_pair_integral
from focklab.partitions import BasisKey
from focklab.unitary_haar import invariance_report, pushforward_consistency, sample_moments

SPEC = TruncationSpec(4, 3)
SAMPLES = 20001


def _moments(transform):
    estimates, diagnostics = sample_moments(3, SAMPLES, 71, transform)
    values = [v for e in estimates.values() for v in (e.mean, e.stderr)]
    return values + [diagnostics["branch_events"], diagnostics["worst_defect"]]


def _invariance():
    report = invariance_report(3, SAMPLES, 72)
    return [row[f] for rows in report["sides"].values() for row in rows
            for f in ("empirical", "stderr", "z")]


def _pushforward():
    report = pushforward_consistency(2, SAMPLES, 73)
    values = [row[f] for row in report["moments"] for f in ("projected", "direct", "stderr", "z")]
    return values + [report["branch_events"], report["worst_defect"]]


def _transform():
    f = HardyChiFunction(SPEC, {
        BasisKey.vacuum(): 0.5,
        BasisKey.make((1,), (2,)): 1.0 - 0.25j,
        BasisKey.make((2, 1), (1, 2)): -0.75j,
    })
    est = mc_f_transform(f, EVector((0.4 - 0.3j, 0.2j, 0.0)), 2, SAMPLES, 74)
    values = [est.estimate.real, est.estimate.imag, est.stderr]
    for _, term in sorted(est.taylor_terms.items()):
        values += [term.estimate.real, term.estimate.imag, term.stderr]
    return values


def _pair():
    est = mc_pair_integral(BasisKey.make((2,), (1,)), BasisKey.make((1, 1), (1, 2)), 2, SAMPLES, 75)
    return [est.estimate.real, est.estimate.imag, est.stderr]


GOLDEN = {
    "sample_moments.direct": (
        lambda: _moments("direct"),
        "d06924bbc38c6031626545226c0399d0a89cbab1cfde423d472b98e0db6109cf",
    ),
    "sample_moments.project": (
        lambda: _moments("project"),
        "aabee8ddad8e7d10595b6faea9071803c19df2fda69f0818f9aa6f558a8b0eee",
    ),
    "invariance_report": (
        _invariance,
        "f1d0d39fbaf92b9c68ca5ee959f866e6a3de30ff5708b4267a6713efee2166ea",
    ),
    "pushforward_consistency": (
        _pushforward,
        "e11d2bd00d1c47c3eab57cd5fd75fddff7479b24e7a2c254377f04e1300277bf",
    ),
    "mc_f_transform": (
        _transform,
        "7bf5e5aeb53bc5c51a56454ba77cf7c8a1e768f0c0f7aeaadb048fa627ae698f",
    ),
    "mc_pair_integral": (
        _pair,
        "454b4d7d60dae65bcbc3de4e0428faa0fa2fdd7be2ba9209e13e52ee49779b07",
    ),
}


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_estimator_bits_are_pinned(name):
    compute, expected = GOLDEN[name]
    assert digest(compute()) == expected

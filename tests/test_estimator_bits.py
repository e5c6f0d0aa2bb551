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
        "0d67bc2ec92a74dc7aa7735d5947a1691846da62489f2bb7c02bc9012723fbdc",
    ),
    "sample_moments.project": (
        lambda: _moments("project"),
        "03dde583716d18fdce13402f9bfe0fb877ce127af44df67149a4837857760b9a",
    ),
    "invariance_report": (
        _invariance,
        "d136468d69cd77638fe87c40e7abea8d43d6a3e2a47ae51dc8680716019c4565",
    ),
    "pushforward_consistency": (
        _pushforward,
        "904a482ffb5e7508d1c4d1d21e0bcdaa1d3741cfee95ac61ea3973922c80aaf3",
    ),
    "mc_f_transform": (
        _transform,
        "4e31bb5e6b133407367f79bbc13b2a07513df29c7a4b01f93c9e8a5c25e0f6eb",
    ),
    "mc_pair_integral": (
        _pair,
        "96039d7b86cf9ac5accd7cf63aef0eb446745dff4ceea9aade69796dd8800204",
    ),
}


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_estimator_bits_are_pinned(name):
    compute, expected = GOLDEN[name]
    assert digest(compute()) == expected

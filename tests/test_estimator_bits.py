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
        "9cf5ebff644bc3763d3aa2a79fc88ba5ad8c189f1c693a95faeec3686ae451df",
    ),
    "sample_moments.project": (
        lambda: _moments("project"),
        "4a2ba0af48186b3098665c40933796619f519c1d5c4e36c726c4dcc1b8d0a524",
    ),
    "invariance_report": (
        _invariance,
        "33fb0a4b74b0a0dafbca1d0c8e2fd6f9495535244622a1ad15c52b3faac92de4",
    ),
    "pushforward_consistency": (
        _pushforward,
        "2571a45bd71ebba37d917f83bbd6e794fe6b198c5e9be2d9aac006ae46d02a1c",
    ),
    "mc_f_transform": (
        _transform,
        "51e28ebc32792eca0befbb483158a4245d9504e0567d1df8df1444cf22532564",
    ),
    "mc_pair_integral": (
        _pair,
        "7bf1e0af97616f2ad7e7998ebc972ba5811c872e6843334eda066808b90131cc",
    ),
}


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_estimator_bits_are_pinned(name):
    compute, expected = GOLDEN[name]
    assert digest(compute()) == expected

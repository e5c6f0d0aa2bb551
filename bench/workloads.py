"""The four workloads: input generators and checks.

A check applies every identity of its workload to one freshly drawn input
and compares the result with an independent route, an exact value, or a
property the method must have.  ``draw`` turns a generator into program
inputs and runs outside the timed region; ``check`` is what the benchmark
times.  Every focklab call goes through a module attribute, so the tracer
sees the calls the benchmark makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from focklab import fock_core as fc
from focklab import hardy_chi as hc
from focklab import hardy_w as hw
from focklab import heisenberg as hei
from focklab import operators as ops
from focklab import partitions as pt
from focklab import semigroups as sg
from focklab import unitary_haar as uh

# tolerances of the suites that contract the same identities (cli.py)
WEYL_TOL = 1e-8
GW_TOL = 1e-8
EXACT_TOL = 1e-10
UNITARITY_TOL = 1e-10

MARGIN = 16
MC_SAMPLES = 16384  # two 8192-sample chunks, so two workers both get a task
HAAR_SIZES = (1, 2, 3, 4, 5, 6)
PUSHFORWARD_SIZES = (1, 2, 3)
LEVEL_ONE_DEGREES = (0, 1, 2)


@dataclass
class Outcome:
    """Result of one check.

    ``verdicts`` lists (identity, value, limit); the identity holds when
    value <= limit.  ``values`` are the raw estimates that a reference run
    must reproduce bit for bit (Monte Carlo workloads only).
    """

    verdicts: list
    values: tuple = ()

    def misses(self) -> list:
        return [v for v in self.verdicts if not v[1] <= v[2]]


@dataclass(frozen=True)
class Workload:
    name: str
    checks_per_round: int
    draw: Callable[[np.random.Generator], dict]
    check: Callable[[dict], Outcome]
    reference: Callable[[dict], Outcome] | None = None


def _complex(rng, n, scale):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def _evector(values) -> fc.EVector:
    return fc.EVector(tuple(complex(v) for v in values))


def _real_evector(rng, n, scale) -> fc.EVector:
    return fc.EVector(tuple(float(v) for v in scale * rng.standard_normal(n)))


# -- weyl-wide ------------------------------------------------------------------

WEYL_SPEC = fc.TruncationSpec(6, 3)
WEYL_INPUT_DEGREE = 4


def draw_weyl(rng) -> dict:
    spec = WEYL_SPEC
    keys = pt.enumerate_keys(WEYL_INPUT_DEGREE, spec.dim)
    coeffs = _complex(rng, len(keys), 0.7)
    f = hw.HardyWFunction(fc.FockVector(spec, dict(zip(keys, coeffs))))

    def quaternion():
        return hei.QuaternionVector(_real_evector(rng, 3, 0.4), _real_evector(rng, 3, 0.4))

    def element():
        a, b = _evector(_complex(rng, 3, 0.5)), _evector(_complex(rng, 3, 0.5))
        return hei.HeisenbergElement(a, b, complex(*rng.standard_normal(2)) * 0.3)

    return {
        "f": f,
        "p": quaternion(),
        "q": quaternion(),
        "x": element(),
        "y": element(),
        "a": _evector(_complex(rng, 3, 0.8)),
        "r": float(rng.uniform(0.1, 1.0)),
        "s": float(rng.uniform(0.1, 0.5)),
    }


def check_weyl(inp: dict) -> Outcome:
    f, a, r, s = inp["f"], inp["a"], inp["r"], inp["s"]
    weyl = hei.weyl_relation_residual(inp["p"], inp["q"], f, margin=MARGIN)
    rep = hei.ws_homomorphism_residual(inp["x"], inp["y"], f, margin=MARGIN)
    mult_quadrature = hw.residual(sg.gw_mult(f, a, r), sg.gw_mult_oracle(f, a, r))
    shift_quadrature = hw.residual(sg.gw_shift_quadrature(f, a, r), sg.gw_shift(f, a, r))
    mult_flow = hw.residual(
        sg.gw_mult_oracle(sg.gw_mult_oracle(f, a, r), a, s), sg.gw_mult_oracle(f, a, r + s)
    )
    shift_flow = hw.residual(sg.gw_shift(sg.gw_shift(f, a, r), a, s), sg.gw_shift(f, a, r + s))
    return Outcome(
        [
            ("weyl_relation", weyl, WEYL_TOL),
            ("ws_representation", rep, WEYL_TOL),
            ("gw_mult_quadrature_vs_series", mult_quadrature, GW_TOL),
            ("gw_shift_quadrature_vs_series", shift_quadrature, GW_TOL),
            ("gw_mult_flow", mult_flow, GW_TOL),
            ("gw_shift_flow", shift_flow, GW_TOL),
        ]
    )


# -- operator-algebra -------------------------------------------------------------

OPERATOR_SPECS = (fc.TruncationSpec(6, 3), fc.TruncationSpec(6, 4))
# Every check has the same structure, so checks cost alike and the median
# check time does not depend on which degrees a draw happened to pick.
MAX_POWER = 4
MONOMIAL_DEGREE = 5
SPARSE_SUPPORT = 2
SPARSE_DEGREE = 3
SPARSE_TERMS = 3


def draw_operators(rng) -> dict:
    out = []
    for spec in OPERATOR_SPECS:
        d = spec.dim
        support = rng.choice(d, SPARSE_SUPPORT, replace=False)
        x = np.zeros(d, dtype=complex)
        x[support] = _complex(rng, SPARSE_SUPPORT, 0.8)
        keys = pt.degree_keys(SPARSE_DEGREE, d)
        chosen = rng.choice(len(keys), min(SPARSE_TERMS, len(keys)), replace=False)
        coeffs = _complex(rng, chosen.size, 1.0)
        out.append(
            {
                "spec": spec,
                "a": _evector(_complex(rng, d, 0.7)),
                "b": _evector(_complex(rng, d, 0.7)),
                "x": _evector(x),
                "f": hc.HardyChiFunction(spec, {keys[i]: c for i, c in zip(chosen, coeffs)}),
            }
        )
    return {"spaces": out}


def _operator_verdicts(spec, a, b, x, f) -> list:
    tag = f"d{spec.dim}"
    exp_a = ops.exp_creation(a, spec)
    additivity = ops.exp_creation(a + b, spec).max_block_difference(
        exp_a.compose(ops.exp_creation(b, spec))
    )
    coherent = (
        exp_a.apply(fc.exponential_vector(x, spec)) - fc.exponential_vector(x + a, spec)
    ).norm(fc.GRAM_W)
    first = ops.creation(a, 1, spec)
    powers = {1: first}
    power_gap = 0.0
    for k in range(2, MAX_POWER + 1):
        powers[k] = ops.creation(a, k, spec)
        iterated = first
        for _ in range(k - 1):
            iterated = first.compose(iterated)
        power_gap = max(power_gap, powers[k].max_block_difference(iterated))
    monomial = fc.tensor_power(x, MONOMIAL_DEGREE, spec)
    adjoint_gap = 0.0
    for m, created in powers.items():
        via_adjoint = ops.adjoint(fc.GRAM_H, created).apply(monomial)
        closed_form = ops.annihilation_monomial(a, m, x, MONOMIAL_DEGREE, spec)
        adjoint_gap = max(adjoint_gap, (via_adjoint - closed_form).norm(fc.GRAM_W))
    intertwine = hw.residual(
        hw.shift(hc.f_transform(f, fc.GRAM_W), a),
        hc.f_transform(hc.mult_group_chi(f, a, ops.W_ADJOINT), fc.GRAM_W),
    )
    return [
        (f"exp_creation_additivity.{tag}", additivity, EXACT_TOL),
        (f"exp_creation_coherent_shift.{tag}", coherent, EXACT_TOL),
        (f"creation_power.{tag}", power_gap, EXACT_TOL),
        (f"adjoint_closed_form.{tag}", adjoint_gap, EXACT_TOL),
        (f"mult_group_intertwines_shift.{tag}", intertwine, EXACT_TOL),
    ]


def check_operators(inp: dict) -> Outcome:
    verdicts = []
    for space in inp["spaces"]:
        verdicts += _operator_verdicts(**space)
    return Outcome(verdicts)


# -- mc-serial / mc-pool ----------------------------------------------------------

MC_SPEC = fc.TruncationSpec(6, 3)


def draw_mc(rng) -> dict:
    seeds = [int(s) for s in rng.integers(0, 2**31 - 64, size=3)]
    return {"moment_seed": seeds[0], "push_seed": seeds[1], "transform_seed": seeds[2],
            "x1": complex(_complex(rng, 1, 0.9)[0])}


def _mc(inp: dict, workers: int) -> Outcome:
    verdicts, values = [], []
    z = oracles.Z_BOUND
    for m in HAAR_SIZES:
        estimates, diagnostics = uh.sample_moments(
            m, MC_SAMPLES, inp["moment_seed"] + m, workers=workers
        )
        for name in uh.MOMENT_NAMES:
            est = estimates[name]
            exact = oracles.haar_moment(name, m)
            verdicts.append((f"haar.{name}.m{m}", oracles.z_score(est.mean, est.stderr, exact), z))
            values += [est.mean, est.stderr]
        values += [diagnostics["branch_events"], diagnostics["worst_defect"]]
    for m in PUSHFORWARD_SIZES:
        report = uh.pushforward_consistency(m, MC_SAMPLES, inp["push_seed"] + 2 * m, workers=workers)
        for row in report["moments"]:
            gap = oracles.z_score(row["projected"], row["stderr"], row["direct"])
            verdicts.append((f"pushforward.{row['name']}.m{m}", gap, z))
            values += [row["projected"], row["direct"], row["stderr"]]
        verdicts.append((f"pushforward.unitarity.m{m}", report["worst_defect"], UNITARITY_TOL))
        values += [report["branch_events"], report["worst_defect"]]
    x1 = inp["x1"]
    x = fc.EVector((x1,) + (0j,) * (MC_SPEC.dim - 1))
    for k in LEVEL_ONE_DEGREES:
        key = pt.BasisKey.make((k,), (1,)) if k else pt.BasisKey.vacuum()
        est = hc.mc_f_transform(
            hc.HardyChiFunction.basis(MC_SPEC, key), x, 1, MC_SAMPLES,
            inp["transform_seed"] + k, workers=workers,
        )
        exact = oracles.level_one_transform(k, x1)
        verdicts.append((f"level_one.transform.k{k}", oracles.z_score(est.estimate, est.stderr, exact), z))
        values += [est.estimate.real, est.estimate.imag, est.stderr]
        if k:
            term = est.taylor_terms[k]
            exact = oracles.level_one_taylor(k, x1)
            verdicts.append((f"level_one.taylor.k{k}", oracles.z_score(term.estimate, term.stderr, exact), z))
            values += [term.estimate.real, term.estimate.imag, term.stderr]
    return Outcome(verdicts, tuple(float(v) for v in values))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("weyl-wide", 6, draw_weyl, check_weyl),
        Workload("operator-algebra", 4, draw_operators, check_operators),
        Workload("mc-serial", 3, draw_mc, lambda inp: _mc(inp, 1)),
        Workload("mc-pool", 2, draw_mc, lambda inp: _mc(inp, 2), lambda inp: _mc(inp, 1)),
    )
}

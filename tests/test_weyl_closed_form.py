"""The wide Weyl flows against a closed form of the Weyl operators.

Every flow step maps a function s P(x) exp<x|z>, with P a polynomial of
degree <= D, to another one, with no truncation: a shift by b sends P to
P(. + b) and s to s exp<b|z>, a multiplication by exp<x|a> sends z to z + a,
and a scale by v sends s to s v.  On the workspace the value is s times
P exp<x|z> cut at degree D, and the cut is exact, because a coefficient of
degree n needs only the degrees <= n of each factor (Bargmann 1961).  So the
closed form runs the public gather kernels on the base workspace alone, with
no margin, no tail probe and no fibre table.

It stays an oracle here: run through it, the Weyl relation and the
representation law would hold by construction.
"""

import numpy as np
import pytest

from focklab import polycalc as pc
from focklab.fock_core import EVector, TruncationSpec
from focklab.hardy_w import random_evector, random_polynomial
from focklab.heisenberg import (
    HeisenbergElement,
    QuaternionVector,
    eh_im,
    heis_mul,
    weyl,
    ws_rep,
    ws_rep_displayed,
)

SPEC = TruncationSpec(6, 3)
MARGIN = 16


def closed_form(c, spec, steps):
    """The steps of ``polycalc._wide_flow`` applied to c, from the three rules."""
    poly, z, s = np.asarray(c, dtype=complex), np.zeros(spec.dim, dtype=complex), 1.0 + 0j
    for kind, vec in steps:
        if kind == "scale":
            s *= complex(vec)
            continue
        v = np.asarray(vec.coords, dtype=complex)
        if kind == "shift":
            poly = pc.apply_shift(poly, vec, spec)
            s *= np.exp(np.sum(v * z.conj()))  # <b|z>, linear in b
        else:
            z = z + v
    return s * pc.apply_exp_mult(poly, EVector(tuple(z)), spec)


def _gap(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _quaternion(rng, real):
    return QuaternionVector(random_evector(3, rng, 0.4, real), random_evector(3, rng, 0.4, real))


def _element(rng):
    return HeisenbergElement(random_evector(3, rng, 0.5), random_evector(3, rng, 0.5),
                             complex(rng.standard_normal(), rng.standard_normal()) * 0.3)


def _weyl_rhs(p, q):
    return weyl(q).steps() + weyl(p).steps() + [("scale", np.exp(-0.5 * eh_im(p, q)))]


def _step_lists(rng):
    """The step lists of the suites' Weyl checks, drawn as the suites draw them."""
    p, q = _quaternion(rng, True), _quaternion(rng, True)
    pc_, qc_ = _quaternion(rng, False), _quaternion(rng, False)
    x, y = _element(rng), _element(rng)
    return {
        "real weyl lhs": weyl(p + q).steps(),
        "real weyl rhs": _weyl_rhs(p, q),
        "complex weyl rhs": _weyl_rhs(pc_, qc_),
        "ws lhs": ws_rep(heis_mul(x, y)).steps(),
        "ws rhs": ws_rep(y).steps() + ws_rep(x).steps(),
        "displayed rhs": ws_rep_displayed(y).steps() + ws_rep_displayed(x).steps(),
    }


def test_wide_flows_match_the_closed_form():
    rng = np.random.default_rng(11)
    worst = {}
    for _ in range(100):
        c = random_polynomial(SPEC, rng, 3, scale=0.7).coefficients()
        for name, steps in _step_lists(rng).items():
            gap = _gap(pc._wide_flow(c, SPEC, MARGIN, steps), closed_form(c, SPEC, steps))
            worst[name] = max(worst.get(name, 0.0), gap)
    assert len(worst) == 6
    assert max(worst.values()) <= 1e-12, worst


def _planted():
    """The draw of ``test_weyl_relation_deepens_past_dropped_tails``: the
    Weyl right-hand side loses 1.7e-7 at a fixed depth of 22."""
    c = random_polynomial(SPEC, np.random.default_rng(74), 4, scale=0.7).coefficients()
    p = QuaternionVector(EVector((-0.11, 0.15, 0.42)), EVector((0.21, 0.27, 1.33)))
    q = QuaternionVector(EVector((-0.48, 0.04, -1.36)), EVector((0.8, 0.81, 0.35)))
    return c, _weyl_rhs(p, q)


def test_a_fixed_depth_misses_the_closed_form_on_the_planted_draw():
    c, steps = _planted()
    want = closed_form(c, SPEC, steps)
    assert _gap(pc._flow_at(c, SPEC, SPEC.max_degree + MARGIN, steps), want) > 1e-9
    assert _gap(pc._wide_flow(c, SPEC, MARGIN, steps), want) <= 1e-12


def _record_flows(monkeypatch):
    """(depth, kinds) of every ``_flow_at`` call, in order."""
    calls = []
    flow_at = pc._flow_at

    def recording(c, spec, depth, steps, rows=None):
        calls.append((depth, [kind for kind, _ in steps]))
        return flow_at(c, spec, depth, steps, rows)

    monkeypatch.setattr(pc, "_flow_at", recording)
    return calls


def test_the_planted_draw_still_deepens(monkeypatch):
    calls = _record_flows(monkeypatch)
    c, steps = _planted()
    pc._wide_flow(c, SPEC, MARGIN, steps)
    top = SPEC.max_degree
    # the lead shift and the trailing multiplication and scales run on spec;
    # only the span from the first multiplication to the last shift deepens
    lead, span, trail = ["shift"], ["mult", "scale", "shift"], ["mult", "scale", "scale"]
    assert calls[0] == (top, lead)
    assert calls[-2:] == [(top + 2 * MARGIN, span), (top, trail)]
    assert {depth for depth, kinds in calls if kinds in (lead, trail)} == {top}
    assert max(depth for depth, _ in calls[:-2]) == top + MARGIN


def test_lists_without_a_shift_after_a_multiplication_run_on_spec(monkeypatch):
    calls = _record_flows(monkeypatch)
    rng = np.random.default_rng(5)
    f = random_polynomial(SPEC, rng, 4, scale=0.7)
    p, q, x = _quaternion(rng, True), _quaternion(rng, True), _element(rng)
    pc._wide_flow(f.coefficients(), SPEC, MARGIN, weyl(p + q).steps())
    ws_rep(x, "w").apply(f)
    weyl(q).apply(f)
    assert len(calls) == 3
    assert {depth for depth, _ in calls} == {SPEC.max_degree}


@pytest.mark.parametrize("margin", [-1, -8])
def test_wide_flow_rejects_a_negative_margin(margin):
    c, steps = _planted()
    with pytest.raises(ValueError, match=f"margin must be >= 0, got {margin}"):
        pc._wide_flow(c, SPEC, margin, steps)

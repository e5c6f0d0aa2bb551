"""Tests of the benchmark's own oracles and of its self-time arithmetic.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent


# -- oracles ------------------------------------------------------------------

def _beta_moment(m: int, k: int) -> Fraction:
    """E X^k for X ~ Beta(1, m-1), from the Beta function; X = 1 when m = 1."""
    if m == 1:
        return Fraction(1)
    return Fraction((m - 1) * math.factorial(k) * math.factorial(m - 2), math.factorial(m + k - 1))


def _longest_increasing(seq) -> int:
    best = []
    for i, v in enumerate(seq):
        best.append(1 + max((best[j] for j in range(i) if seq[j] < v), default=0))
    return max(best, default=0)


def _permutations_without_long_increase(k: int, m: int) -> int:
    """Permutations of k letters with no increasing subsequence longer than m."""
    return sum(1 for p in permutations(range(k)) if _longest_increasing(p) <= m)


@pytest.mark.parametrize("m", range(1, 9))
def test_entry_moments_match_the_tracked_closed_forms(m):
    assert oracles.abs_u11_moment(m, 1) == Fraction(1, m)
    assert oracles.abs_u11_moment(m, 2) == Fraction(2, m * (m + 1))
    assert oracles.haar_moment("abs_u11_sq", m) == 1 / m
    assert oracles.haar_moment("abs_u11_quad", m) == 2 / (m * (m + 1))


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("k", range(0, 6))
def test_entry_moments_are_beta_moments(m, k):
    assert oracles.abs_u11_moment(m, k) == _beta_moment(m, k)


def test_trace_moments_count_permutations():
    # Rains (1997): E|tr U|^(2k) over U(m) counts permutations of k letters
    # with no increasing subsequence longer than m; for k <= m that is k!
    for m in range(1, 6):
        for k in range(0, m + 1):
            assert oracles.abs_trace_moment(m, k) == _permutations_without_long_increase(k, m)
    assert _permutations_without_long_increase(4, 3) == 23
    with pytest.raises(ValueError):
        oracles.abs_trace_moment(3, 4)
    assert oracles.haar_moment("abs_trace_sq", 4) == 1.0


def test_centred_entries_have_zero_mean():
    assert oracles.haar_moment("re_u11", 3) == 0.0
    assert oracles.haar_moment("im_u11", 3) == 0.0
    with pytest.raises(ValueError):
        oracles.haar_moment("abs_u11_hex", 3)


@pytest.mark.parametrize("x1", [0.6 - 0.35j, 0.9j, -0.4 + 0.2j])
@pytest.mark.parametrize("k", range(0, 5))
def test_level_one_closed_forms_are_phase_averages(x1, k):
    # U(1) is the circle; the equispaced rule is exact on the trigonometric
    # polynomials left after truncating exp at a negligible order
    nodes = [cmath.exp(2j * math.pi * j / 64) for j in range(64)]
    transform = sum(cmath.exp(u.conjugate() * x1) * u**k for u in nodes) / len(nodes)
    taylor = sum((u.conjugate() * x1) ** k * u**k for u in nodes) / len(nodes)
    assert abs(transform - oracles.level_one_transform(k, x1)) < 1e-14
    assert abs(taylor - oracles.level_one_taylor(k, x1)) < 1e-14
    assert oracles.level_one_transform(k, x1) == x1**k / math.factorial(k)


def test_z_score():
    assert oracles.z_score(0.5 + 1e-13, 0.0, 0.5) == 0.0
    assert oracles.z_score(0.6, 0.0, 0.5) == math.inf
    assert oracles.z_score(0.5 + 0.3j, 0.1, 0.5) == pytest.approx(3.0)


# -- self-time arithmetic ---------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def _nested(tracer, clock):
    leaf = tracer.wrap("leaf", lambda: clock.work(4))

    def a():
        clock.work(2)
        leaf()

    def b():
        clock.work(16)

    child_a = tracer.wrap("child_a", a)
    child_b = tracer.wrap("child_b", b)

    def r():
        clock.work(1)
        child_a()
        clock.work(8)
        child_b()
        clock.work(32)

    return tracer.wrap("root", r)


def test_nested_self_times_add_up_to_the_outer_duration():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    _nested(tracer, clock)()
    assert tracer.total_s["root"] == 63
    assert dict(tracer.self_s) == {"leaf": 4, "child_a": 2, "child_b": 16, "root": 41}
    assert sum(tracer.self_s.values()) == tracer.total_s["root"]
    assert tracer.total_s["child_a"] == tracer.self_s["child_a"] + tracer.total_s["leaf"]


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def fail():
        clock.work(5)
        raise KeyError("boom")

    failing = tracer.wrap("failing", fail)

    def outer():
        clock.work(1)
        with pytest.raises(KeyError):
            failing()

    tracer.wrap("outer", outer)()
    assert tracer.total_s == {"failing": 5, "outer": 6}
    assert tracer.self_s == {"failing": 5, "outer": 1}
    tracer.reset()
    assert not tracer.calls


def test_disabled_tracer_records_nothing():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    fn = _nested(tracer, clock)
    counted = tracer.counter("made", lambda: None)
    tracer.disable()
    fn()
    counted()
    assert not tracer.calls and not tracer.counts


def test_layer_metrics_sum_the_named_spans():
    self_s = {
        "polycalc.psi_to_c": 1.0,
        "polycalc.c_to_psi": 2.0,
        "polycalc.apply_shift": 4.0,
        "hardy_chi.mc_f_transform": 8.0,
        "hardy_chi.f_transform": 16.0,
        "fock_core.FockVector.__post_init__": 32.0,
        "fock_core.exponential_vector": 64.0,
        "pool.map": 128.0,
    }
    metrics = tracing.self_time_metrics(self_s)
    assert metrics["polycalc.convert_s"] == 3.0
    assert metrics["polycalc.kernel_s"] == 4.0
    assert metrics["hardy_chi.mc_s"] == 8.0
    assert metrics["hardy_chi.transform_s"] == 16.0
    assert metrics["fock_core.self_s"] == 96.0
    assert metrics["pool.wait_s"] == 128.0
    assert metrics["operators.assembly_s"] == 0.0


def test_install_traces_calls_across_modules():
    # install cannot be undone, so it runs in a fresh interpreter
    script = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from focklab import fock_core as fc, hardy_w as hw
tracer = tracing.Tracer()
tracing.install(tracer)
spec = fc.TruncationSpec(3, 2)
f = hw.HardyWFunction(fc.FockVector.basis(spec, fc.BasisKey.make((1,), (2,))), "w")
x = fc.EVector((0.5, 0.25))
hw.evaluate_kernel(f, x, "w")
hw.shift(f, x)
calls = tracer.calls
assert calls["hardy_w.evaluate_kernel"] == 1, dict(calls)
assert calls["fock_core.exponential_vector"] == 1, dict(calls)
assert calls["polycalc.psi_to_c"] == 1 and calls["polycalc.c_to_psi"] == 1, dict(calls)
assert tracer.counts["polycalc.coeffs_converted"] == 2 * 10, dict(tracer.counts)
assert tracer.counts["partitions.keys_built"] > 0
print("ok")
""".format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"

"""Haar sampling, Livšic projections, virtual unitaries, moment statistics."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from focklab import unitary_haar as uh
from focklab.unitary_haar import (
    MOMENT_NAMES,
    MomentEstimate,
    chunk_plan,
    embed_stabilized,
    estimate,
    exact_moment,
    exact_trace_moment,
    exact_u11_moment,
    haar_batch,
    haar_moment_report,
    haar_sample,
    invariance_report,
    livsic_project,
    livsic_project_batch,
    pushforward_consistency,
    right_action,
    sample_moments,
    substream,
    unitarity_defect,
)


def test_haar_sample_unitary():
    rng = np.random.default_rng(0)
    for m in (1, 2, 5):
        u = haar_sample(m, rng)
        assert unitarity_defect(u) < 1e-12


def test_haar_phase_at_m1():
    rng = np.random.default_rng(1)
    batch = haar_batch(1, 2000, rng)
    mods = np.abs(batch[:, 0, 0])
    assert np.max(np.abs(mods - 1.0)) < 1e-12


def _gaussian(rng, count, m):
    """The draw ``haar_batch`` makes: real parts first, then imaginary parts."""
    return rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))


def _phase_fixed_qr(z):
    """LAPACK QR with the phases of R's diagonal moved into Q: the oracle route."""
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("seed", [11, 12])
def test_haar_batch_is_the_phase_fixed_qr_of_the_same_draw(seed):
    for m in range(1, 9):
        z = _gaussian(np.random.default_rng((seed, m)), 300, m)
        batch = haar_batch(m, 300, np.random.default_rng((seed, m)))
        assert batch.shape == (300, m, m)
        assert np.abs(batch - _phase_fixed_qr(z)).max() < 1e-12


class _Planted:
    """Stands in for a generator: hands out the real, then the imaginary part of Z."""

    def __init__(self, z):
        self.parts = [z.real.copy(), z.imag.copy()]

    def standard_normal(self, shape):
        assert shape == self.parts[0].shape
        return self.parts.pop(0)


@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
def test_haar_batch_stays_unitary_on_near_dependent_columns(cond):
    rng = np.random.default_rng(13)
    m, count = 6, 400
    # Z = A diag(s) B with singular values from 1 down to 1/cond
    a, b = _phase_fixed_qr(_gaussian(rng, count, m)), _phase_fixed_qr(_gaussian(rng, count, m))
    z = (a * np.logspace(0, -math.log10(cond), m)) @ b
    q = haar_batch(m, count, _Planted(z))
    assert unitarity_defect(q) <= 1e-13
    r = np.swapaxes(q.conj(), -1, -2) @ z
    assert np.abs(np.tril(r, -1)).max() <= 1e-14
    diag = np.einsum("...ii->...i", r)
    assert diag.real.min() > 0.0 and np.abs(diag.imag).max() <= 1e-14
    # only the agreement with LAPACK degrades, as cond * eps
    assert np.abs(q - _phase_fixed_qr(z)).max() <= 100 * cond * np.finfo(float).eps


def _chunk_from_haar_batch(rng, count, m, transform):
    """What ``_haar_chunk`` computes, from the contiguous stack of ``haar_batch``."""
    if transform == "project":
        stack = np.ascontiguousarray(haar_batch(m + 1, count, rng))
        batch, branches = livsic_project_batch(stack)
        return uh._moment_values(batch), (branches, unitarity_defect(batch))
    batch = np.ascontiguousarray(haar_batch(m, count, rng))
    if transform == "left":
        batch = uh._fourier_unitary(m) @ batch
    elif transform == "right":
        batch = batch @ uh._fourier_unitary(m)
    return uh._moment_values(batch), (0, 0.0)


@pytest.mark.parametrize("count", [uh.DEFAULT_CHUNK, 3001])
@pytest.mark.parametrize("transform", ["direct", "project", "left", "right"])
def test_chunk_read_in_place_has_the_bits_of_the_contiguous_stack(transform, count):
    for m in range(1, 7):
        values, extra = uh._haar_chunk(np.random.default_rng((m, count)), count, m, transform)
        want, want_extra = _chunk_from_haar_batch(np.random.default_rng((m, count)), count, m,
                                                  transform)
        assert list(values) == list(want)
        for name, vals in values.items():
            assert vals.dtype == want[name].dtype and vals.tobytes() == want[name].tobytes(), name
        assert extra[0] == want_extra[0]
        assert np.float64(extra[1]).tobytes() == np.float64(want_extra[1]).tobytes()


def test_direct_chunk_makes_no_copy_of_the_column_array():
    m, count = 6, uh.DEFAULT_CHUNK
    columns = m * m * count * np.dtype(complex).itemsize  # 4.72 MB
    uh._haar_chunk(np.random.default_rng(0), count, m, "direct")
    tracemalloc.start()
    try:
        uh._haar_chunk(np.random.default_rng(0), count, m, "direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the column array plus one Gaussian half-draw is 1.5x; a copy of the
    # chunk would add another 1x
    assert peak <= 1.75 * columns


def test_unitarity_defect_subtracts_the_identity_in_place():
    for m in range(1, 8):
        u = haar_batch(m, uh.DEFAULT_CHUNK, np.random.default_rng(m))
        want = float(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(m)).max())
        tracemalloc.start()
        try:
            got = unitarity_defect(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == want.hex(), m
        # the conjugate and the product are 2x the stack; a U*U - I
        # temporary beside the product would add another 0.5x
        assert peak <= 2.25 * u.nbytes, m


def test_exact_haar_oracles():
    for m in range(1, 10):
        assert exact_u11_moment(m, 0) == 1
        assert exact_u11_moment(m, 1) == Fraction(1, m)
        assert exact_u11_moment(m, 2) == Fraction(2, m * (m + 1))
        assert exact_u11_moment(m, 4) == Fraction(24 * math.factorial(m - 1),
                                                  math.factorial(m + 3))
        for k in range(m + 1):
            assert exact_trace_moment(m, k) == math.factorial(k)
        with pytest.raises(ValueError, match="0 <= k <= m"):
            exact_trace_moment(m, m + 1)
    for bad in ((0, 1), (2, -1)):
        with pytest.raises(ValueError):
            exact_u11_moment(*bad)
        with pytest.raises(ValueError):
            exact_trace_moment(*bad)


def _power_kernel(rng, count, m, transform):
    """|u11|^2k for k <= 4 and |tr U|^2k for k <= min(m, 3), direct or Livšic-projected."""
    if transform == "project":
        batch, _ = livsic_project_batch(haar_batch(m + 1, count, rng))
    else:
        batch = haar_batch(m, count, rng)
    u11 = np.abs(batch[:, 0, 0]) ** 2
    trace = np.abs(np.einsum("...ii->...", batch)) ** 2
    values = {("u11", k): u11**k for k in range(1, 5)}
    values.update({("trace", k): trace**k for k in range(1, min(m, 3) + 1)})
    return values, None


@pytest.mark.parametrize("transform", ["direct", "project"])
def test_moments_match_exact_oracles(transform):
    oracle = {"u11": exact_u11_moment, "trace": exact_trace_moment}
    for m in range(1, 7):
        means, _ = estimate(_power_kernel, (m, transform), 40000, seed=30 + m)
        for (kind, k), (mean, stderr) in means.items():
            z = uh.z_score(mean, float(oracle[kind](m, k)), stderr)
            assert abs(z) < 4.0, (transform, m, kind, k, z)


def test_moment_estimates_match_exact():
    for m in (1, 2, 3):
        estimates, _ = sample_moments(m, 60000, seed=10 + m)
        for name in ("abs_u11_sq", "abs_u11_quad", "abs_trace_sq"):
            est = estimates[name]
            assert abs(est.z_against(exact_moment(name, m))) < 4.0


def test_moment_report_shape():
    report = haar_moment_report(2, 20000, seed=3)
    assert report["m"] == 2 and report["samples"] == 20000
    assert {m["name"] for m in report["moments"]} == set(MOMENT_NAMES)
    for moment in report["moments"]:
        assert abs(moment["z"]) < 5.0


def test_livsic_examples():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert livsic_project(swap)[0, 0] == pytest.approx(-1.0)
    rot = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    assert livsic_project(rot)[0, 0] == pytest.approx(1.0)
    branch = np.diag([np.exp(0.7j), -1.0 + 0j])
    assert livsic_project(branch)[0, 0] == pytest.approx(np.exp(0.7j))


def test_livsic_preserves_unitarity():
    rng = np.random.default_rng(4)
    batch = haar_batch(4, 2000, rng)
    projected, branches = livsic_project_batch(batch)
    assert unitarity_defect(projected) < 1e-10
    assert branches == 0  # measure-zero event


def test_livsic_batch_matches_single():
    rng = np.random.default_rng(5)
    batch = haar_batch(3, 50, rng)
    projected, _ = livsic_project_batch(batch)
    for k in range(50):
        assert np.abs(projected[k] - livsic_project(batch[k])).max() < 1e-14


def test_embed_identity_chain():
    v = embed_stabilized(np.eye(3, dtype=complex))
    for k in (1, 2, 3, 4, 5):
        assert np.abs(v.level(k) - np.eye(k)).max() < 1e-14


def test_chain_consistency():
    rng = np.random.default_rng(6)
    v = embed_stabilized(haar_sample(4, rng))
    for k in (1, 2, 3):
        recomputed = livsic_project(v.level(k + 1))
        assert np.abs(v.level(k) - recomputed).max() < 1e-10
        assert unitarity_defect(v.level(k)) < 1e-10
    # stabilised levels repeat the top inside an identity frame
    top = v.level(6)
    assert np.abs(top[:4, :4] - v.top).max() == 0.0
    assert np.abs(top[4:, 4:] - np.eye(2)).max() == 0.0


def test_right_action():
    rng = np.random.default_rng(7)
    u = embed_stabilized(haar_sample(3, rng))
    same = right_action(u, np.eye(3), np.eye(3), 3)
    assert np.abs(same.level(3) - u.level(3)).max() < 1e-14
    g = haar_sample(3, rng)
    emb = embed_stabilized(g)
    acted = right_action(emb, g, g, 3)
    assert np.abs(acted.level(3) - g).max() < 1e-12
    padded = right_action(u, haar_sample(2, rng), np.eye(2), 4)
    assert unitarity_defect(padded.level(4)) < 1e-10


def test_pushforward_consistency():
    for m in (1, 2):
        report = pushforward_consistency(m, 50000, seed=40 + m)
        for moment in report["moments"]:
            assert abs(moment["z"]) < 4.0
        assert report["worst_defect"] < 1e-10


def test_substream_reproducibility_and_worker_independence():
    a = substream(123, 5).standard_normal(4)
    b = substream(123, 5).standard_normal(4)
    assert np.array_equal(a, b)
    c = substream(123, 6).standard_normal(4)
    assert not np.array_equal(a, c)
    one = sample_moments(2, 30000, seed=9, workers=1)[0]
    two = sample_moments(2, 30000, seed=9, workers=2)[0]
    for name in MOMENT_NAMES:
        assert one[name].mean == two[name].mean
        assert one[name].stderr == two[name].stderr


def test_chunk_plan_partition():
    plan = chunk_plan(20001, 8192)
    assert [count for _, count in plan] == [8192, 8192, 3617]
    assert [index for index, _ in plan] == [0, 1, 2]


def _normal_kernel(rng, count, scale):
    return {"x": scale * rng.standard_normal(count)}, count


def test_estimate_runs_each_chunk_from_its_substream():
    means, extras = estimate(_normal_kernel, (2.0,), 20001, seed=24)
    assert extras == [count for _, count in chunk_plan(20001)]
    draws = 2.0 * np.concatenate([substream(24, i).standard_normal(n) for i, n in chunk_plan(20001)])
    mean, stderr = means["x"]
    assert mean == pytest.approx(draws.mean(), rel=1e-12)
    assert stderr == pytest.approx(draws.std() / math.sqrt(draws.size), rel=1e-12)


@pytest.mark.parametrize("samples", [0, -5])
def test_empty_budget_is_rejected(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        estimate(_normal_kernel, (1.0,), samples, seed=1)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sample_moments(2, samples, seed=1)


@pytest.mark.parametrize("m", [0, -1])
def test_empty_unitary_size_is_rejected(m):
    with pytest.raises(ValueError, match="size must be >= 1"):
        haar_batch(m, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="size must be >= 1"):
        sample_moments(m, 100, seed=1)


@pytest.mark.parametrize("transform", ["direct", "project", "left", "right"])
def test_a_size_below_one_is_rejected_before_sampling(monkeypatch, transform):
    monkeypatch.setattr(uh, "estimate", None)  # never reached
    with pytest.raises(ValueError, match="size must be >= 1"):
        sample_moments(0, 100, seed=1, transform=transform)


def test_the_projected_route_rejects_a_size_below_one():
    # it projected a 1x1 stack to a 0x0 one and ended in an IndexError
    with pytest.raises(ValueError, match="size must be >= 1"):
        pushforward_consistency(0, 100, seed=1)
    with pytest.raises(ValueError, match="input must be at least 2x2"):
        livsic_project_batch(np.ones((3, 1, 1), dtype=complex))


def test_an_unknown_transform_is_rejected_before_sampling(monkeypatch):
    # "sideways" used to fall through to the direct moments
    monkeypatch.setattr(uh, "estimate", None)  # never reached
    with pytest.raises(ValueError, match="transform must be one of .*, got 'sideways'"):
        sample_moments(2, 100, seed=1, transform="sideways")


def _moment_bits(result) -> bytes:
    estimates, diagnostics = result
    values = [v for e in estimates.values() for v in (e.mean, e.stderr)]
    values += [diagnostics["branch_events"], diagnostics["worst_defect"]]
    return np.asarray(values, dtype="<f8").tobytes()


def test_invariance_report_independent_of_workers(fresh_pool):
    one = invariance_report(3, 20000, seed=21, workers=1)
    two = invariance_report(3, 20000, seed=21, workers=2)
    assert json.dumps(one) == json.dumps(two)


def test_pool_rebuilt_after_worker_dies(fresh_pool):
    serial = sample_moments(2, 20000, seed=22, transform="project", workers=1)
    sample_moments(2, 20000, seed=22, transform="project", workers=2)
    pool = uh._POOL[0]
    victim = next(iter(pool._processes.values()))
    victim.terminate()
    victim.join()
    pooled = sample_moments(2, 20000, seed=22, transform="project", workers=2)
    assert uh._POOL[0] is not pool
    assert _moment_bits(pooled) == _moment_bits(serial)


def test_pool_rebuilt_for_new_worker_count_and_process(fresh_pool):
    pool = uh._pool(2)
    assert uh._pool(2) is pool
    resized = uh._pool(3)
    assert resized is not pool
    # a pool inherited from another process is replaced, never shut down here
    uh._POOL = (resized, 3, -1)
    assert uh._pool(3) is not resized
    assert resized.submit(abs, -3).result() == 3
    resized.shutdown()


def test_stable_merge_keeps_variance_under_large_mean():
    values = 1e8 + np.random.default_rng(23).standard_normal(20000)
    chunks = [{"x": uh._chunk_stats(values[i : i + 8192])} for i in range(0, 20000, 8192)]
    count, mean, m2 = uh._merge_stats(chunks)["x"]
    assert count == 20000
    assert mean == pytest.approx(values.mean(), rel=1e-15)
    assert m2 / count == pytest.approx(np.var(values - 1e8), rel=1e-6)


def test_z_score_rule():
    assert uh.z_score(1.0, 2.0, 0.5) == -2.0
    assert uh.z_score(1 + 4j, 1.0, 2.0) == 2.0
    assert uh.z_score(0.5, 0.5 + 1e-13, 0.0) == 0.0
    assert uh.z_score(0.5, 0.5 + 1e-13, 1e-18) == 0.0
    assert uh.z_score(0.5, 0.5 + 1e-9, 0.0) == -math.inf
    assert uh.z_score(1j, 0.0, 0.0) == math.inf
    assert MomentEstimate(0.25, 0.0).z_against(0.0) == math.inf

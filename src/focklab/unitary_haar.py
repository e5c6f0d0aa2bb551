"""Haar-distributed unitaries, Livšic projections, and virtual unitaries.

Sampling orthonormalises complex Gaussian matrices Z = QR by Gram-Schmidt, a
whole chunk at once; Q with R_jj > 0, the QR factor with the phase fix
R_jj/|R_jj|, is exactly Haar (Mezzadri 2007).  ``haar_batch`` is the one
sampler, and it returns its column array as a transposed view, so no copy of
a chunk is made.  Every Monte Carlo estimate runs
through ``estimate``: chunk i of the budget draws from
``SeedSequence(seed, spawn_key=(i,))`` and the chunks' statistics merge in
chunk order, so results are bitwise reproducible for any worker count.
A virtual unitary of U(infinity) is fixed by its top matrix alone: the levels
below are its Livšic projections, the levels above pad it by an identity.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

UNITARITY_TOL = 1e-10
LIVSIC_BRANCH_TOL = 1e-12
DEFAULT_CHUNK = 8192
# Below this gap an estimate counts as exact whatever its standard error:
# degenerate moments (|u11|^2 = 1 at m = 1) have a standard error at roundoff.
EXACT_GAP = 1e-12


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entry of U*U - I in absolute value."""
    m = u.shape[-1]
    prod = np.swapaxes(u.conj(), -1, -2) @ u
    prod.reshape(-1, m * m)[:, :: m + 1] -= 1  # the diagonals, in place
    return float(np.abs(prod).max())


def assert_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix fails the unitarity check: defect {defect:.3e}")


def substream(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk; independent of scheduling and worker count."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def chunk_plan(samples: int, chunk: int = DEFAULT_CHUNK) -> list[tuple[int, int]]:
    """Fixed partition of a sample budget into (chunk_index, count) pieces."""
    starts = range(0, samples, chunk)
    return [(index, min(chunk, samples - start)) for index, start in enumerate(starts)]


def haar_batch(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries of size m, shape (count, m, m).

    Each is the phase-fixed QR factor Q (R_jj > 0) of a standard complex
    Gaussian matrix, found by classical Gram-Schmidt run twice per column
    ("twice is enough": Giraud, Langou & Rozložník 2005).  Each step treats
    one column of every sample at once, as one array operation, so the
    chunk is built in column order, entry [j, i, s] being U_s[i, j]; the
    stack is the transposed view of that array, not a C-contiguous copy.
    """
    if m < 1:
        raise ValueError("size must be >= 1")
    q = np.empty((m, m, count), dtype=complex)
    q.real = rng.standard_normal((count, m, m)).transpose(2, 1, 0)
    q.imag = rng.standard_normal((count, m, m)).transpose(2, 1, 0)
    for j, col in enumerate(q):
        for _ in range(2 if j else 0):
            coeffs = np.einsum("kic,ic->kc", q[:j], col.conj()).conj()
            for k, c in enumerate(coeffs):
                col -= q[k] * c
        col /= np.linalg.norm(col, axis=0)
    return q.transpose(2, 1, 0)


def haar_sample(m: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary of size m; always passes the unitarity check."""
    u = haar_batch(m, 1, rng)[0]
    assert_unitary(u)
    return u


def livsic_project(u: np.ndarray) -> np.ndarray:
    """Corner map U(m+1) -> U(m): z - a (1+t)^{-1} b on the block split.

    The bottom-right scalar t = -1 is a measure-zero branch where the map
    returns the corner z unchanged; numerically the branch is taken whenever
    |1 + t| falls below a small threshold.
    """
    m = u.shape[0] - 1
    if m < 1:
        raise ValueError("input must be at least 2x2")
    z = u[:m, :m]
    a = u[:m, m:]
    b = u[m:, :m]
    t = u[m, m]
    if abs(1.0 + t) < LIVSIC_BRANCH_TOL:
        return z.copy()
    return z - (a @ b) / (1.0 + t)


def livsic_project_batch(u: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorised projection of a stack; returns (stack, branch event count)."""
    m = u.shape[-1] - 1
    if m < 1:
        raise ValueError("input must be at least 2x2")
    z = u[:, :m, :m]
    a = u[:, :m, m:]
    b = u[:, m:, :m]
    t = u[:, m, m]
    denom = 1.0 + t
    singular = np.abs(denom) < LIVSIC_BRANCH_TOL
    safe = np.where(singular, 1.0, denom)
    out = z - (a @ b) / safe[:, None, None]
    if singular.any():
        out[singular] = z[singular]
    return out, int(singular.sum())


@dataclass
class VirtualUnitary:
    """Stabilised projective sequence determined by its top-level matrix.

    Levels below the top are produced by iterated Livšic projections and
    cached; levels at or above the top repeat the top matrix (padded by an
    identity block when a larger matrix is requested).
    """

    top_level: int
    top: np.ndarray
    _chain: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        assert_unitary(self.top)

    def level(self, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("level must be >= 1")
        if k >= self.top_level:
            return _pad(self.top, k)
        cached = self._chain.get(k)
        if cached is None:
            cached = livsic_project(self.level(k + 1))
            self._chain[k] = cached
        return cached


def embed_stabilized(u_m: np.ndarray) -> VirtualUnitary:
    """Stabilised sequence of a finite unitary; identity embeds to identities."""
    return VirtualUnitary(u_m.shape[0], np.array(u_m, dtype=complex))


def _pad(v: np.ndarray, m: int) -> np.ndarray:
    if v.shape[0] == m:
        return v
    if v.shape[0] > m:
        raise ValueError("cannot pad a matrix down")
    out = np.eye(m, dtype=complex)
    out[: v.shape[0], : v.shape[0]] = v
    return out


def right_action(
    u: VirtualUnitary, v: np.ndarray, w: np.ndarray, m: int
) -> VirtualUnitary:
    """Act on the right by the pair (v, w): the level-m matrix becomes w^-1 u_m v."""
    if m < u.top_level:
        raise ValueError("action level must reach the top level")
    v_m = _pad(np.asarray(v, dtype=complex), m)
    w_m = _pad(np.asarray(w, dtype=complex), m)
    assert_unitary(v_m)
    assert_unitary(w_m)
    new_top = w_m.conj().T @ u.level(m) @ v_m
    assert_unitary(new_top)
    return VirtualUnitary(m, new_top)


# -- chunked Monte Carlo engine ----------------------------------------------

# (pool, worker count, pid of the process that built it)
_POOL: tuple | None = None


def _shutdown_pool() -> None:
    """Drop the cached pool; only the process that built it shuts it down."""
    global _POOL
    if _POOL is not None:
        pool, _, pid = _POOL
        _POOL = None
        if pid == os.getpid():
            pool.shutdown()


atexit.register(_shutdown_pool)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool, rebuilt when the worker count or the process changes."""
    global _POOL
    if _POOL is None or _POOL[1:] != (workers, os.getpid()):
        _shutdown_pool()
        _POOL = (ProcessPoolExecutor(max_workers=workers), workers, os.getpid())
    return _POOL[0]


def _map_chunks(fn, tasks, workers: int) -> list:
    """Results of ``fn`` over the chunk tasks, in task order.

    One worker runs in this process.  More share one pool that lives as long
    as the process; a pool broken by a dead worker is replaced once and the
    chunks rerun, which is safe because each chunk is a pure function of its
    task.
    """
    if workers <= 1:
        return [fn(task) for task in tasks]
    try:
        return list(_pool(workers).map(fn, tasks))
    except BrokenProcessPool:
        _shutdown_pool()
        return list(_pool(workers).map(fn, tasks))


def _chunk_stats(values: np.ndarray) -> tuple:
    """(count, mean, M2) of one chunk's values; M2 sums |x - mean|^2."""
    mean = values.sum() / values.size
    dev = values - mean
    return values.size, mean, float(np.sum((dev * dev.conj()).real))


def _merge_stats(chunks: list[dict]) -> dict[str, tuple]:
    """Per-name (count, mean, M2) of chunk statistics merged in chunk order.

    Pairwise update of Chan, Golub & LeVeque (1979): no raw sum of squares
    is formed, so the variance survives a mean much larger than the spread.
    """
    total = dict(chunks[0])
    for stats in chunks[1:]:
        for name, (nb, mb, qb) in stats.items():
            na, ma, qa = total[name]
            n = na + nb
            delta = mb - ma
            total[name] = (n, ma + delta * (nb / n), qa + qb + abs(delta) ** 2 * (na * nb / n))
    return total


def _run_chunk(task) -> tuple[dict, object]:
    kernel, params, seed, chunk_index, count = task
    values, extra = kernel(substream(seed, chunk_index), count, *params)
    return {name: _chunk_stats(vals) for name, vals in values.items()}, extra


def estimate(kernel, params: tuple, samples: int, seed: int, workers: int = 1) -> tuple[dict, list]:
    """Means and standard errors of a kernel's values, merged over chunks.

    ``kernel(rng, count, *params)`` draws ``count`` samples from ``rng`` and
    returns ``({name: values}, extra)``; pool workers need it at module level.
    Chunk i of ``chunk_plan(samples)`` draws from ``substream(seed, i)``.
    Returns ``({name: (mean, stderr)}, [extra of each chunk])``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tasks = [(kernel, params, seed, index, count) for index, count in chunk_plan(samples)]
    results = _map_chunks(_run_chunk, tasks, workers)
    totals = _merge_stats([stats for stats, _ in results])
    means = {name: (mean, math.sqrt(m2 / n / n)) for name, (n, mean, m2) in totals.items()}
    return means, [extra for _, extra in results]


def z_score(value, target, stderr: float) -> float:
    """Gap over standard error: signed for real estimates, |gap| for complex."""
    gap = value - target
    if isinstance(gap, complex):
        gap = abs(gap)
    if abs(gap) <= EXACT_GAP:
        return 0.0
    if stderr == 0.0:
        return math.copysign(math.inf, gap)
    return float(gap / stderr)


# -- moment machinery --------------------------------------------------------

MOMENT_NAMES = ("abs_u11_sq", "abs_u11_quad", "abs_trace_sq", "re_u11", "im_u11")
TRANSFORMS = ("direct", "project", "left", "right")


def exact_u11_moment(m: int, k: int) -> Fraction:
    """E|u_11|^(2k) over Haar U(m): 1/C(m+k-1, k), for every k >= 0.

    The first column of U is uniform on the unit sphere of C^m, so |u_11|^2
    has the Beta(1, m-1) law.
    """
    if m < 1 or k < 0:
        raise ValueError(f"u11 moment needs m >= 1 and k >= 0, got m={m}, k={k}")
    return Fraction(1, math.comb(m + k - 1, k))


def exact_trace_moment(m: int, k: int) -> Fraction:
    """E|tr U|^(2k) over Haar U(m): k! for 0 <= k <= m (Diaconis & Shahshahani 1994).

    Past k = m the moment is Rains's count of permutations of k letters with
    no increasing subsequence longer than m, which this module does not have.
    """
    if m < 1 or not 0 <= k <= m:
        raise ValueError(f"exact trace moment needs 0 <= k <= m, got m={m}, k={k}")
    return Fraction(math.factorial(k))


def exact_moment(name: str, m: int) -> float:
    if name == "abs_u11_sq":
        return float(exact_u11_moment(m, 1))
    if name == "abs_u11_quad":
        return float(exact_u11_moment(m, 2))
    if name == "abs_trace_sq":
        return float(exact_trace_moment(m, 1))
    if name in ("re_u11", "im_u11"):
        return 0.0
    raise ValueError(f"unknown moment {name!r}")


def _moment_values(batch: np.ndarray) -> dict[str, np.ndarray]:
    u11 = batch[:, 0, 0]
    trace = np.einsum("...ii->...", batch)
    return {
        "abs_u11_sq": np.abs(u11) ** 2,
        "abs_u11_quad": np.abs(u11) ** 4,
        "abs_trace_sq": np.abs(trace) ** 2,
        "re_u11": u11.real,
        "im_u11": u11.imag,
    }


def _haar_chunk(rng: np.random.Generator, count: int, m: int, transform: str):
    """Moment values of ``count`` samples; the extra is (branch events, worst defect)."""
    if transform == "project":
        batch, branches = livsic_project_batch(haar_batch(m + 1, count, rng))
        return _moment_values(batch), (branches, unitarity_defect(batch))
    batch = haar_batch(m, count, rng)
    if transform == "left":
        batch = _fourier_unitary(m) @ batch
    elif transform == "right":
        batch = batch @ _fourier_unitary(m)
    return _moment_values(batch), (0, 0.0)


@dataclass
class MomentEstimate:
    mean: float
    stderr: float

    def z_against(self, target: float) -> float:
        return z_score(self.mean, target, self.stderr)


def _moment_rows(estimates: dict[str, MomentEstimate], m: int) -> list[dict]:
    rows = []
    for name, est in estimates.items():
        exact = exact_moment(name, m)
        rows.append(
            {
                "name": name,
                "empirical": est.mean,
                "exact": exact,
                "stderr": est.stderr,
                "z": est.z_against(exact),
            }
        )
    return rows


def sample_moments(
    m: int,
    samples: int,
    seed: int,
    transform: str = "direct",
    workers: int = 1,
) -> tuple[dict[str, MomentEstimate], dict]:
    """Moment estimates of Haar samples (or their Livšic projections).

    ``transform="project"`` samples at size m+1 and projects down to size m;
    ``"left"`` and ``"right"`` multiply each sample by a fixed unitary V on
    that side.  Returns the estimates and a small diagnostics record (branch
    events and the worst unitarity defect seen among projected matrices).
    """
    if m < 1:
        raise ValueError("size must be >= 1")
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    means, extras = estimate(_haar_chunk, (m, transform), samples, seed, workers)
    estimates = {
        name: MomentEstimate(float(mean), stderr)
        for name, (mean, stderr) in means.items()
    }
    diagnostics = {
        "branch_events": sum(branches for branches, _ in extras),
        "worst_defect": max(defect for _, defect in extras),
    }
    return estimates, diagnostics


def haar_moment_report(m: int, samples: int, seed: int, workers: int = 1) -> dict:
    """Empirical vs exact low moments of the Haar distribution at size m."""
    estimates, diagnostics = sample_moments(m, samples, seed, "direct", workers=workers)
    moments = _moment_rows(estimates, m)
    return {"m": m, "samples": samples, "seed": seed, "moments": moments, **diagnostics}


def _fourier_unitary(m: int) -> np.ndarray:
    k = np.arange(m)
    return np.exp(2j * np.pi * np.outer(k, k) / m) / math.sqrt(m)


def invariance_report(m: int, samples: int, seed: int, workers: int = 1) -> dict:
    """Moments of V.U and U.V for a fixed unitary V against the exact values."""
    out = {"m": m, "samples": samples, "seed": seed, "sides": {}}
    for side in ("left", "right"):
        estimates, _ = sample_moments(m, samples, seed, side, workers=workers)
        out["sides"][side] = _moment_rows(estimates, m)
    return out


def pushforward_consistency(
    m: int, samples: int, seed: int, workers: int = 1
) -> dict:
    """Compare moments of projected Haar(m+1) samples against direct Haar(m).

    Two-sample z-scores per tracked moment; the report also carries the
    branch-event count and the worst unitarity defect of projected matrices.
    """
    projected, diagnostics = sample_moments(
        m, samples, seed, "project", workers=workers
    )
    direct, _ = sample_moments(m, samples, seed + 1, "direct", workers=workers)
    moments = []
    for name in MOMENT_NAMES:
        p, q = projected[name], direct[name]
        spread = math.sqrt(p.stderr**2 + q.stderr**2)
        moments.append(
            {
                "name": name,
                "projected": p.mean,
                "direct": q.mean,
                "stderr": spread,
                "z": z_score(p.mean, q.mean, spread),
            }
        )
    return {"m": m, "samples": samples, "seed": seed, "moments": moments, **diagnostics}

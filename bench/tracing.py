"""Span tracing of focklab from outside the package.

``install`` replaces the public functions and methods of every focklab
module with wrappers that time each call as a span.  A span's self time is
its duration minus the durations of the spans it called directly, so the
self times of all spans under one outermost span add up to that span's
duration.  Spans are aggregated per name in memory; nothing is written
while the benchmark runs.

Only the parent process is traced: pool workers run the same wrapped code
with tracing switched off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import time
import types
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

MODULES = (
    "partitions",
    "fock_core",
    "operators",
    "polycalc",
    "hardy_w",
    "unitary_haar",
    "hardy_chi",
    "semigroups",
    "heisenberg",
)

# Leaf accessors called once per key in the hottest loops.  A span costs
# more than their bodies, so their time stays in the calling span.
UNTRACED = frozenset({"degree", "max_index", "weight", "length", "contains", "size"})
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__neg__"})
# __post_init__ runs once per object built.  FockVector's validates every key
# and is timed; BasisKey's runs for every key built and is only counted, as a
# span there would cost as much as the work it measures.
TIMED_POST_INIT = frozenset({"fock_core.FockVector.__post_init__"})
COUNTED_POST_INIT = {"partitions.BasisKey.__post_init__": "partitions.keys_built"}

ASSEMBLY = ("creation", "exp_creation", "exp_annihilation", "adjoint")
MC_SPANS = frozenset(
    {"hardy_chi.mc_f_transform", "hardy_chi.norm_convergence_study", "hardy_chi.mc_pair_integral"}
)


class Tracer:
    """Per-name span totals and event counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        if self._child_s:
            raise RuntimeError("cannot reset inside an open span")
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += int(amount)

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` timed as span ``name``; ``on_return(args, kwargs, result)``
        runs after each traced call that returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._child_s
            stack.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                children = stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - children
                if stack:
                    stack[-1] += duration
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Return ``fn`` counting its calls under ``name``, without a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def span_table(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }


def _argument(fn, name: str):
    """Extract argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


def _counting_hooks(tracer: Tracer, span: str, fn):
    """Counter updates attached to particular spans."""
    if span == "polycalc.psi_to_c":
        return lambda a, k, result: tracer.count("polycalc.coeffs_converted", result.size)
    if span == "polycalc.c_to_psi":
        coeffs = _argument(fn, "c")
        return lambda a, k, result: tracer.count("polycalc.coeffs_converted", len(coeffs(a, k)))
    if span == "fock_core.FockVector.__post_init__":
        return lambda a, k, result: tracer.count("fock_core.vectors_built")
    if span in {f"operators.{name}" for name in ASSEMBLY}:
        return lambda a, k, result: tracer.count("operators.assemblies")
    if span == "unitary_haar.haar_batch":
        count = _argument(fn, "count")
        return lambda a, k, result: tracer.count("unitary_haar.matrices", count(a, k))
    if span == "hardy_chi.mc_f_transform":
        samples = _argument(fn, "samples")
        return lambda a, k, result: tracer.count("hardy_chi.mc_samples", samples(a, k))
    return None


def _wrap_class(tracer: Tracer, module: str, cls) -> None:
    for name, member in list(vars(cls).items()):
        span = f"{module}.{cls.__name__}.{name}"
        if span in COUNTED_POST_INIT:
            setattr(cls, name, tracer.counter(COUNTED_POST_INIT[span], member))
            continue
        if name in UNTRACED or (
            name.startswith("_") and name not in TRACED_DUNDERS and span not in TIMED_POST_INIT
        ):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            inner = member.__func__
            hook = _counting_hooks(tracer, span, inner)
            setattr(cls, name, type(member)(tracer.wrap(span, inner, hook)))
        elif isinstance(member, types.FunctionType):
            setattr(cls, name, tracer.wrap(span, member, _counting_hooks(tracer, span, member)))


def make_counting_pool(tracer: Tracer):
    """ProcessPoolExecutor that counts pools and tasks and times the parent's waits."""

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            if "mp_context" not in kwargs and multiprocessing.get_start_method() == "fork":
                # forked workers inherit the wrappers; keep them untraced
                kwargs.setdefault("initializer", tracer.disable)
            super().__init__(*args, **kwargs)
            tracer.count("pool.created")

        def map(self, fn, *iterables, **kwargs):
            columns = [list(it) for it in iterables]
            tracer.count("pool.tasks", len(columns[0]) if columns else 0)
            collect = tracer.wrap("pool.map", lambda: list(super(CountingPool, self).map(fn, *columns, **kwargs)))
            return iter(collect())

        def shutdown(self, *args, **kwargs):
            return tracer.wrap("pool.shutdown", super().shutdown)(*args, **kwargs)

    return CountingPool


def install(tracer: Tracer) -> None:
    """Trace every focklab module in this process.  Not reversible."""
    modules = {name: importlib.import_module(f"focklab.{name}") for name in MODULES}
    replaced = {}
    for short, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, short, obj)
            elif callable(obj):
                span = f"{short}.{name}"
                replaced[id(obj)] = tracer.wrap(span, obj, _counting_hooks(tracer, span, obj))
    # rebind every name that refers to a wrapped function, in every focklab
    # module, so calls across modules (from-imports) are traced as well
    package = importlib.import_module("focklab")
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
    pool = make_counting_pool(tracer)
    modules["unitary_haar"].ProcessPoolExecutor = pool
    modules["hardy_chi"].ProcessPoolExecutor = pool


def _module_of(span: str) -> str:
    return span.split(".", 1)[0]


def _in(*names):
    wanted = frozenset(names)
    return lambda span: span in wanted


# (metric, which spans' self time it sums)
SELF_TIME_METRICS = (
    ("polycalc.convert_s", _in("polycalc.psi_to_c", "polycalc.c_to_psi")),
    (
        "polycalc.kernel_s",
        _in(
            "polycalc.apply_mult_linear",
            "polycalc.apply_derivative",
            "polycalc.apply_shift",
            "polycalc.apply_exp_mult",
            "polycalc.evaluate_c",
        ),
    ),
    ("polycalc.lift_restrict_s", _in("polycalc.lift", "polycalc.restrict")),
    ("fock_core.self_s", lambda span: _module_of(span) == "fock_core"),
    ("partitions.self_s", lambda span: _module_of(span) == "partitions"),
    ("operators.assembly_s", _in(*(f"operators.{name}" for name in ASSEMBLY))),
    ("operators.apply_s", _in("operators.OperatorMatrix.apply", "operators.OperatorMatrix.compose")),
    ("hardy_w.self_s", lambda span: _module_of(span) == "hardy_w"),
    ("heisenberg.self_s", lambda span: _module_of(span) == "heisenberg"),
    ("semigroups.self_s", lambda span: _module_of(span) == "semigroups"),
    ("hardy_chi.transform_s", lambda span: _module_of(span) == "hardy_chi" and span not in MC_SPANS),
    ("hardy_chi.mc_s", lambda span: span in MC_SPANS),
    ("unitary_haar.sample_s", _in("unitary_haar.haar_batch", "unitary_haar.haar_sample")),
    ("unitary_haar.project_s", _in("unitary_haar.livsic_project_batch", "unitary_haar.livsic_project")),
    (
        "unitary_haar.reduce_s",
        _in(
            "unitary_haar.sample_moments",
            "unitary_haar.invariance_report",
            "unitary_haar.pushforward_consistency",
        ),
    ),
    ("pool.wait_s", _in("pool.map", "pool.shutdown")),
)

COUNT_METRICS = (
    "polycalc.coeffs_converted",
    "fock_core.vectors_built",
    "partitions.keys_built",
    "operators.assemblies",
    "hardy_chi.mc_samples",
    "unitary_haar.matrices",
    "pool.created",
    "pool.tasks",
)


def self_time_metrics(self_s: dict[str, float]) -> dict[str, float]:
    """Sum the self times of spans into the per-layer time metrics."""
    return {
        metric: sum(seconds for span, seconds in self_s.items() if member(span))
        for metric, member in SELF_TIME_METRICS
    }

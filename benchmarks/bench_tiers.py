"""Tiered-execution benchmarks: decoded interpreter and JIT code cache.

Quantifies the two fast-path claims of the tiered engine:

* the pre-decoded closure interpreter is several times faster than the
  tree-walking oracle on loop-heavy shootout/Q3 workloads, and
* re-materializing a function from the cross-engine code cache (a warm
  hit that only re-binds the namespace) is an order of magnitude cheaper
  than a cold compile.

Runs standalone through ``python -m benchmarks --json BENCH_tiers.json``
and as pytest-benchmark cases via ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Tuple

from repro.ir import parse_module
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine
from repro.vm.jit import codegen_function

#: (label, suite benchmark, workload args) — small workloads so the
#: tree-walking oracle finishes in seconds, not minutes
WORKLOADS: List[Tuple[str, str, Tuple[int, ...]]] = [
    ("fannkuch-6", "fannkuch", (6,)),
    ("n-body-24", "n-body", (24,)),
    ("mbrot-16", "mbrot", (16,)),
]

#: the Q3 running example (paper Section 2): an order-check loop driven
#: through an indirect comparator call
ISORD = """
declare i8* @malloc(i64)

define i64 @cmp(i64* %a, i64* %b) {
entry:
  %x = load i64, i64* %a
  %y = load i64, i64* %b
  %d = sub i64 %x, %y
  ret i64 %d
}

define i64 @isord(i64 %n) {
entry:
  %buf = call i8* @malloc(i64 800)
  %v = bitcast i8* %buf to i64*
  br label %fill
fill:
  %i = phi i64 [ 0, %entry ], [ %i1, %fill ]
  %p = getelementptr i64, i64* %v, i64 %i
  store i64 %i, i64* %p
  %i1 = add i64 %i, 1
  %fc = icmp slt i64 %i1, 100
  br i1 %fc, label %fill, label %outer
outer:
  %k = phi i64 [ 0, %fill ], [ %k1, %outer.latch ]
  %acc = phi i64 [ 0, %fill ], [ %acc1, %outer.latch ]
  br label %scan
scan:
  %r = phi i64 [ 0, %outer ], [ %r2, %scan ]
  %j = phi i64 [ 1, %outer ], [ %j1, %scan ]
  %q0 = getelementptr i64, i64* %v, i64 %j
  %j0 = sub i64 %j, 1
  %q1 = getelementptr i64, i64* %v, i64 %j0
  %c = call i64 @cmp(i64* %q1, i64* %q0)
  %neg = icmp slt i64 %c, 0
  %inc = zext i1 %neg to i64
  %r2 = add i64 %r, %inc
  %j1 = add i64 %j, 1
  %jw = icmp slt i64 %j1, 100
  br i1 %jw, label %scan, label %outer.latch
outer.latch:
  %acc1 = add i64 %acc, %r2
  %k1 = add i64 %k, 1
  %kw = icmp slt i64 %k1, %n
  br i1 %kw, label %outer, label %done
done:
  ret i64 %acc1
}
"""


class TierRow(NamedTuple):
    workload: str
    interp_s: float          #: tree-walking oracle
    decoded_s: float         #: pre-decoded closure interpreter
    tiered_s: float          #: decoded with profile-driven tier-up
    jit_s: float             #: steady-state JIT
    decoded_speedup: float   #: interp_s / decoded_s
    checksum: object


class CacheRow(NamedTuple):
    workload: str
    cold_compile_s: float    #: codegen + bytecode compile, empty cache
    warm_materialize_s: float  #: cache hit: namespace re-bind only
    warm_speedup: float      #: cold_compile_s / warm_materialize_s
    cache_hits: int
    cache_misses: int


def _isord_module():
    return parse_module(ISORD)


def _time_run(module_factory, entry, args, tier, trials):
    """Best-of-``trials`` steady-state run time for one tier."""
    best: Optional[float] = None
    checksum = None
    for _ in range(trials):
        module = module_factory()
        engine = ExecutionEngine(module, tier=tier)
        engine.get_compiled(module.get_function(entry))  # warm-up
        start = time.perf_counter()
        checksum = engine.run(entry, *args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, checksum


def run_tiers(trials: int = 3, smoke: bool = False) -> List[TierRow]:
    """Steady-state comparison of the three tiers plus mixed mode."""
    cases = [
        ("isord-200", _isord_module, "isord", (200,)),
    ]
    for label, name, args in WORKLOADS:
        bench = SUITE[name]
        cases.append((
            label,
            (lambda b=bench: compile_benchmark(b, "unoptimized")),
            bench.entry,
            args,
        ))
    if smoke:
        trials = 1
        cases = [
            ("isord-2", _isord_module, "isord", (2,)),
            ("fannkuch-4",
             lambda: compile_benchmark(SUITE["fannkuch"], "unoptimized"),
             SUITE["fannkuch"].entry, (4,)),
        ]

    rows: List[TierRow] = []
    for label, factory, entry, args in cases:
        interp_s, checksum = _time_run(factory, entry, args, "interp", trials)
        decoded_s, decoded_sum = _time_run(factory, entry, args, "decoded",
                                           trials)
        tiered_s, tiered_sum = _time_run(factory, entry, args, "tiered",
                                         trials)
        jit_s, jit_sum = _time_run(factory, entry, args, "jit", trials)
        assert decoded_sum == checksum, (label, decoded_sum, checksum)
        assert tiered_sum == checksum, (label, tiered_sum, checksum)
        assert jit_sum == checksum, (label, jit_sum, checksum)
        rows.append(TierRow(
            workload=label,
            interp_s=interp_s,
            decoded_s=decoded_s,
            tiered_s=tiered_s,
            jit_s=jit_s,
            decoded_speedup=interp_s / decoded_s if decoded_s else 0.0,
            checksum=checksum,
        ))
    return rows


def run_cache(trials: int = 3, smoke: bool = False) -> List[CacheRow]:
    """Cold compile vs. warm cache-hit materialization.

    Cold: ``codegen_function`` on a freshly parsed function (lowering +
    ``compile()`` of the generated source).  Warm: a second engine over
    the same module asks for the same function — the cached
    ``CompiledCode`` is re-instantiated (namespace bind + ``exec`` of
    ready bytecode), which is the cross-engine cache's whole point.
    """
    if smoke:
        trials = 1
    cases = [
        ("isord", _isord_module, "isord", (1,)),
        ("fannkuch",
         lambda: compile_benchmark(SUITE["fannkuch"], "unoptimized"),
         SUITE["fannkuch"].entry, (2,)),
    ]
    rows: List[CacheRow] = []
    for label, factory, entry, args in cases:
        cold_best = warm_best = None
        hits = misses = 0
        for _ in range(trials):
            module = factory()
            func = module.get_function(entry)

            cold_engine = ExecutionEngine(module, tier="jit")
            start = time.perf_counter()
            cold_engine.get_compiled(func)
            cold = time.perf_counter() - start
            cold_engine.run(entry, *args)  # sanity, untimed

            warm_engine = ExecutionEngine(module, tier="jit")
            start = time.perf_counter()
            warm_engine.get_compiled(func)
            warm = time.perf_counter() - start
            warm_engine.run(entry, *args)

            assert codegen_function(func).matches(func)
            hits += warm_engine.metrics.counter("jit.cache_hit")
            misses += cold_engine.metrics.counter("jit.cache_miss")
            if cold_best is None or cold < cold_best:
                cold_best = cold
            if warm_best is None or warm < warm_best:
                warm_best = warm
        rows.append(CacheRow(
            workload=label,
            cold_compile_s=cold_best,
            warm_materialize_s=warm_best,
            warm_speedup=cold_best / warm_best if warm_best else 0.0,
            cache_hits=hits,
            cache_misses=misses,
        ))
    return rows


def format_tiers(rows: List[TierRow]) -> str:
    header = (f"{'workload':<14} {'interp':>10} {'decoded':>10} "
              f"{'tiered':>10} {'jit':>10} {'dec-speedup':>12}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.interp_s:>10.4f} {r.decoded_s:>10.4f} "
            f"{r.tiered_s:>10.4f} {r.jit_s:>10.4f} "
            f"{r.decoded_speedup:>11.1f}x"
        )
    return "\n".join(lines)


def format_cache(rows: List[CacheRow]) -> str:
    header = (f"{'workload':<14} {'cold':>12} {'warm':>12} "
              f"{'speedup':>10} {'hits':>6} {'misses':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<14} {r.cold_compile_s:>12.6f} "
            f"{r.warm_materialize_s:>12.6f} {r.warm_speedup:>9.1f}x "
            f"{r.cache_hits:>6} {r.cache_misses:>7}"
        )
    return "\n".join(lines)


# -- pytest-benchmark cases ---------------------------------------------------

def test_decoded_beats_tree_walker(benchmark):
    rows = benchmark.pedantic(lambda: run_tiers(trials=1), rounds=1,
                              iterations=1)
    from .conftest import report

    report("Execution tiers — steady state", format_tiers(rows))
    for row in rows:
        assert row.decoded_speedup > 1.0, row


def test_warm_cache_beats_cold_compile(benchmark):
    rows = benchmark.pedantic(lambda: run_cache(trials=2), rounds=1,
                              iterations=1)
    from .conftest import report

    report("JIT code cache — cold vs warm", format_cache(rows))
    for row in rows:
        assert row.warm_speedup > 1.0, row
        assert row.cache_hits > 0

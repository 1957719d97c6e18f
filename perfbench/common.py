"""Shared pieces of the benchmark: statistics, the corpus, compilation
with one span per layer call, and the independent references.

Every timing helper here works on plain lists of seconds; every
reference is computed without the tier under test (the tree-walking
interpreter on the pass-free module, ``McVM.run_interpreted``, or a
plain-Python model of a stateful program).
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.manager import AnalysisManager
from repro.frontend import compile_c
from repro.ir.function import Module
from repro.mcvm import McVM, q4_order
from repro.shootout import all_benchmarks, compile_benchmark
from repro.transform import PassManager
from repro.transform.passmanager import PIPELINES
from repro.vm import ExecutionEngine

from layers import NO_SPANS, paused

SHOOTOUT = all_benchmarks()
FEVAL = q4_order()
#: programs that advance a global PRNG seed: run k in one engine returns
#: the k-th value of a sequence, not the same checksum every time
STATEFUL = ("fasta", "fasta-redux", "rev-comp")
FLOAT_TOLERANCE = 1e-6
#: a tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
#: share of the fastest and of the slowest samples a trimmed mean drops
TRIM = 0.1
#: the input at which the stateful models are checked against two
#: consecutive interpreter runs
MODEL_PROBE_N = 300


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above
    it.  Needs more than ``TAIL_BEYOND`` samples."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(
            f"{len(ordered)} samples cannot give a tail with {TAIL_BEYOND} "
            "beyond it")
    return ordered[-TAIL_BEYOND - 1]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the samples left when the fastest and the slowest ``TRIM``
    of them are dropped.

    The shared host this runs on switches between a fast and a slow
    state for seconds at a time, so one program's run times are a
    mixture of two clusters.  A median jumps from one cluster to the
    other as their shares cross a half; a mean moves in proportion to
    the shares, and trimming keeps a single stall out of it.
    """
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def scaled_tail(samples: Dict[str, List[float]]) -> Tuple[float, float]:
    """Geometric mean of per-program trimmed means, and that figure
    scaled by the tail of every sample's ratio to its own program's
    trimmed mean.

    Programs differ in length by 10x, so a tail of the raw pooled times
    would only pick out the longest program; the ratio tail measures how
    much slower than its own typical run a run gets, on every program.
    """
    typicals = {name: trimmed_mean(times) for name, times in samples.items()}
    typical = geomean(typicals.values())
    ratios = [t / typicals[name] for name, times in samples.items()
              for t in times]
    return typical, typical * tail(ratios)


# -- host speed -------------------------------------------------------------------

#: the probe: a fixed pure-Python loop that runs no VM code
PROBE_ITERATIONS = 20000
#: what the probe costs on the host the baseline was recorded on
#: (2 vCPUs of a shared x86_64 host, CPython 3.11): every end-to-end
#: time is reported as if the run had a host of that speed
PROBE_REFERENCE_S = 0.0015


def probe() -> float:
    """CPU seconds this thread spends on the probe loop.

    The shared host runs the same code up to a third slower for minutes
    at a time, so two runs of one closed-loop workload differ by more
    than a regression bound from the host alone.  Timing the probe
    between jobs or set-up steps measures how fast the host was.  It
    counts this thread's CPU time, so another thread holding the GIL
    does not make the host look slower.
    """
    start = time.thread_time()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i % 7
    return time.thread_time() - start


def host_factor(probes: Sequence[float]) -> float:
    """Scale that turns a time measured in this run into a time on the
    reference host: the reference probe over this run's typical probe."""
    return PROBE_REFERENCE_S / trimmed_mean(probes or [probe()])


class gc_quiet:
    """Collect garbage, then keep the collector off for a ``with``
    block: a timed operation pays for no other operation's garbage (the
    protocol ``repro.experiments.stats.time_run`` uses).  Call
    :func:`freeze_heap` once set-up is built, or every collection scans
    it again."""

    def __enter__(self):
        gc.collect()
        gc.disable()
        return self

    def __exit__(self, exc_type, exc, tb):
        gc.enable()
        return None


def freeze_heap() -> None:
    """Move everything set-up built out of the collector's view, so the
    collection before each timed operation only scans newer objects."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set so far.  Workloads read it after a fixed amount
    of work, not at the end: b-trees' heap buffers outlive their engine,
    so the peak grows with how many jobs a fast host fits in a run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same_value(got, want) -> bool:
    if isinstance(want, float):
        return (isinstance(got, (int, float))
                and abs(got - want) <= FLOAT_TOLERANCE * max(1.0, abs(want)))
    return got == want


# -- compilation, one span per layer call -----------------------------------------


def ir_insts(module: Module) -> int:
    return sum(func.instruction_count for func in module.functions
               if not func.is_declaration)


def compile_module(source: str, name: str, am: AnalysisManager,
                   spans=NO_SPANS,
                   counts: Optional[Dict[str, int]] = None) -> Module:
    """Source to optimized module: ``compile_c``, then the ``optimized``
    pipeline's passes run one at a time through single-pass
    ``PassManager``\\ s, function by function, the order ``PassManager.run_module`` uses."""
    with spans.span("frontend"):
        module = compile_c(source, module_name=name)
    if counts is not None:
        counts["frontend.ir_insts"] = ir_insts(module)
    managers = [(pass_name.replace("+", "_"), PassManager([pass_name]))
                for pass_name in PIPELINES["optimized"]]
    for func in module.functions:
        if func.is_declaration:
            continue
        for pass_name, manager in managers:
            with spans.span("transform." + pass_name):
                manager.run(func, am)
    if counts is not None:
        counts["transform.ir_insts_out"] = ir_insts(module)
    return module


# -- references -----------------------------------------------------------------

_FASTA_CUM = (38190, 54734, 70226, 108418, 111218, 114018, 116818, 119618,
              122418, 125218, 128018, 130818, 133618, 136418, 139968)
_FASTA_CODES = tuple(ord(c) for c in "acgtBDHKMNRSVWY")
_MOD = 1000000007


def _lcg(seed: int) -> int:
    return (seed * 3877 + 29573) % 139968


def _fasta_model(n: int, seed: int) -> Tuple[int, int]:
    checksum = 0
    for _ in range(n):
        seed = _lcg(seed)
        j = 0
        while _FASTA_CUM[j] <= seed:
            j += 1
        checksum = (checksum * 31 + _FASTA_CODES[j]) % _MOD
    return checksum, seed


def _fasta_redux_lookup() -> List[int]:
    lookup, j = [], 0
    for b in range(4096):
        threshold = (b + 1) * 139968 // 4096
        while _FASTA_CUM[j] < threshold and j < 14:
            j += 1
        lookup.append(j)
    return lookup


_REDUX_LOOKUP = _fasta_redux_lookup()


def _fasta_redux_model(n: int, seed: int) -> Tuple[int, int]:
    checksum = 0
    for _ in range(n):
        seed = _lcg(seed)
        k = _REDUX_LOOKUP[seed * 4096 // 139968]
        while _FASTA_CUM[k] <= seed:
            k += 1
        checksum = (checksum * 31 + _FASTA_CODES[k]) % _MOD
    return checksum, seed


_COMPLEMENT = {ord("A"): ord("T"), ord("C"): ord("G"),
               ord("G"): ord("C"), ord("T"): ord("A")}
_BASES = tuple(ord(c) for c in "ACGT")


def _revcomp_model(n: int, seed: int) -> Tuple[int, int]:
    seq = []
    for _ in range(n):
        seed = _lcg(seed)
        seq.append(_BASES[seed % 4])
    checksum = 0
    for base in reversed(seq):
        checksum = (checksum * 31 + _COMPLEMENT[base]) % _MOD
    return checksum, seed


#: plain-Python models of the stateful programs: (model, initial seed)
_MODELS = {
    "fasta": (_fasta_model, 42),
    "fasta-redux": (_fasta_redux_model, 42),
    "rev-comp": (_revcomp_model, 12345),
}


class StatefulReference:
    """The k-th checksum a stateful program returns when one engine runs
    it repeatedly at ``n``: the global seed carries over between runs.
    Values are computed on demand; the time goes to ``oracle``."""

    def __init__(self, name: str, n: int, oracle: "Oracle" = None):
        self.model, self.seed = _MODELS[name]
        self.n = n
        self.oracle = oracle
        self.values: List[int] = []

    def __getitem__(self, k: int) -> int:
        start = time.perf_counter()
        while len(self.values) <= k:
            value, self.seed = self.model(self.n, self.seed)
            self.values.append(value)
        if self.oracle is not None:
            self.oracle.seconds += time.perf_counter() - start
        return self.values[k]


class Oracle:
    """Independent references, timed so their cost stays visible.

    * ``Benchmark.expected`` for a stateless program at an input it lists;
    * the tree-walking interpreter on the pass-free (``"none"``) module
      for any other input of a stateless program;
    * the plain-Python models for run k of a stateful program in one
      engine, checked here against the interpreter for two consecutive
      runs;
    * ``McVM.run_interpreted`` for the feval programs.
    """

    def __init__(self):
        self.seconds = 0.0
        self._cache: Dict[tuple, object] = {}

    @contextlib.contextmanager
    def _computing(self):
        """Time a reference computation, with layer spans paused so that
        it counts toward no layer whichever half of a traced run asks."""
        start = time.perf_counter()
        with paused():
            yield
        self.seconds += time.perf_counter() - start

    def shootout(self, bench, args: Tuple[int, ...]):
        """Run 1 of a fresh engine at ``args``."""
        if bench.name in STATEFUL:
            return self.sequence(bench, args[0])[0]
        key = (bench.name, args)
        if key not in self._cache:
            with self._computing():
                if args in bench.expected:
                    value = bench.expected[args]
                else:
                    engine = ExecutionEngine(
                        compile_benchmark(bench, "none"), tier="interp")
                    value = engine.run(bench.entry, *args)
            self._cache[key] = value
        return self._cache[key]

    def sequence(self, bench, n: int) -> StatefulReference:
        """Run-k references of a stateful program at ``n``; the model is
        first checked against ``Benchmark.expected`` and against two
        consecutive interpreter runs."""
        key = ("sequence", bench.name, n)
        if key not in self._cache:
            if ("model", bench.name) not in self._cache:
                self._check_model(bench)
            self._cache[key] = StatefulReference(bench.name, n, self)
        return self._cache[key]

    def _check_model(self, bench) -> None:
        with self._computing():
            for args, value in bench.expected.items():
                if StatefulReference(bench.name, args[0])[0] != value:
                    raise AssertionError(
                        f"{bench.name} model disagrees with expected{args}")
            engine = ExecutionEngine(compile_benchmark(bench, "none"),
                                     tier="interp")
            probe = StatefulReference(bench.name, MODEL_PROBE_N)
            for k in range(2):
                if engine.run(bench.entry, MODEL_PROBE_N) != probe[k]:
                    raise AssertionError(
                        f"{bench.name} model disagrees with the interpreter "
                        f"at run {k + 1}")
        self._cache[("model", bench.name)] = True

    def feval(self, program, steps: int) -> float:
        key = (program.name, steps)
        if key not in self._cache:
            with self._computing():
                self._cache[key] = McVM(program.source).run_interpreted(
                    program.entry, steps)
        return self._cache[key]


def counter_delta(before: Dict[str, int], after: Dict[str, int],
                  names: Sequence[str]) -> int:
    return sum(after.get(n, 0) - before.get(n, 0) for n in names)


#: counters that move when an engine compiles or installs code
COMPILE_COUNTERS = ("engine.compile", "jit.cache_miss", "jit.cache_hit",
                    "jit.compile", "compile.queue")


def counters(engine: ExecutionEngine) -> Dict[str, int]:
    return dict(engine.metrics.snapshot()["counters"])

"""``steady``: generated code and execution tiers after a checked warm-up.

Closed loop, one thread.  Long-lived engines run the shootout programs
at their standard inputs in four configurations:

* ``tiered`` — decoded interpreter promoting to the JIT;
* ``decoded`` — the pre-decoded interpreter alone (the tier step limits
  apply to);
* ``spec`` — the speculative tier, timed as fresh-engine jobs (engine
  construction plus one run on a freshly compiled module) because its
  cost builds up across calls in one engine;
* ``osr`` — the paper's Q2 set-up: an always-firing resolved OSR point
  at the entry of each program's ``q2_function``, on the ``jit`` tier,
  so every call of that method makes one OSR transition.

The four Q4 feval programs also run in long-lived ``McVM``\\ s (one open
OSR fire per run).  Every configuration of a program runs the same
input: the standard one where a ``tiered`` run takes tens of
milliseconds, else a stated smaller one, so that a round of all five
configurations stays within a few seconds on a 2-vCPU host.  fasta and
fasta-redux run at n=2000: at the standard n=30000 one speculative run
takes tens of seconds (``ValueFeedback.dominant()`` scans every
distinct value seen on each dispatch), and n=2000 still shows that.

Every configuration warms up until its last few runs agree and no code
was compiled during them; no long-lived engine may compile inside the
timed window.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List

from repro.analysis.manager import AnalysisManager
from repro.core import HotCounterCondition, insert_resolved_osr_point
from repro.experiments.sites import q2_location
from repro.mcvm import McVM
from repro.vm import ExecutionEngine
from repro.vm.profile import DEFAULT_CALL_THRESHOLD

from common import (
    COMPILE_COUNTERS, FEVAL, SHOOTOUT, STATEFUL, Oracle,
    compile_module, counter_delta, counters, freeze_heap, gc_quiet, geomean,
    host_factor, peak_rss_mb, probe, same_value, scaled_tail, trimmed_mean,
)
from layers import UNTRACED

#: the input of each program in every configuration, and the OSR
#: transitions one run makes through the always-firing point at the
#: entry of its ``q2_function`` (one per call: b-trees' nodes checked,
#: 6! fannkuch flips calls, one pick or complement per fasta, fasta-redux
#: and rev-comp element, 40x40 mbrot pixels, one n-body step, and
#: sp-norm's 28x28 entries x 2 products x 20 multiplications)
STEADY_INPUTS = {
    "b-trees": ((7,), 8798), "fannkuch": ((6,), 720),
    "fasta": ((2000,), 2000), "fasta-redux": ((2000,), 2000),
    "mbrot": ((40,), 1600), "n-body": ((500,), 500),
    "rev-comp": ((10000,), 10000), "sp-norm": ((28,), 31360),
}
#: warm-up: the last WINDOW runs agree within TOLERANCE (max/min - 1),
#: the bound on ``result_s`` in BENCHMARK.json
WINDOW = 3
TOLERANCE = 0.2
MAX_WARMUP = 15
#: the tiered and feval rows (the headline figure) run this many times
#: per round, so that most of the timed window goes to them
PRIMARY_REPEATS = 8


class _Runner:
    """One long-lived engine running one program over and over; run k
    is checked against the k-th reference."""

    def __init__(self, row: str, call: Callable[[], object],
                 reference: Callable[[int], object], engine,
                 fires: int = 0):
        self.row = row
        self.call = call
        self.reference = reference
        self.engine = engine
        self.fires = fires
        #: OSR transitions the engine counted in the last run
        self.fired = 0
        self.runs = 0

    def run(self, errors: List[str]) -> float:
        """One checked run; returns seconds, or raises on a failure."""
        before = counters(self.engine) if self.fires else None
        with gc_quiet():
            start = time.perf_counter()
            value = self.call()
            elapsed = time.perf_counter() - start
        want = self.reference(self.runs)
        self.runs += 1
        if not same_value(value, want):
            raise AssertionError(f"{self.row} run {self.runs}: got "
                                 f"{value!r}, expected {want!r}")
        if self.fires:
            self.fired = counter_delta(before, counters(self.engine),
                                       ("osr.fire",))
            if self.fired != self.fires:
                errors.append(f"{self.row}: {self.fired} OSR transitions "
                              f"in a run, expected {self.fires}")
        return elapsed


def _reference(oracle: Oracle, bench, args):
    if bench.name in STATEFUL:
        return oracle.sequence(bench, args[0]).__getitem__
    value = oracle.shootout(bench, args)
    return lambda k: value


def _build(oracle: Oracle, tracing, counts: Dict[str, int],
           layer: Dict[str, float]) -> List[_Runner]:
    runners = []
    spans = tracing.spans
    for bench in SHOOTOUT:
        for config in ("tiered", "decoded", "osr"):
            args, transitions = STEADY_INPUTS[bench.name]
            am = AnalysisManager()
            module_counts: Dict[str, int] = {}
            module = compile_module(bench.source, bench.name, am, spans,
                                    counts=module_counts)
            if config == "tiered":
                for key, value in module_counts.items():
                    counts[key] = counts.get(key, 0) + value
            engine = ExecutionEngine(
                module, tier="jit" if config == "osr" else config,
                analysis_manager=am, telemetry=tracing.telemetry())
            fires = 0
            if config == "osr":
                location = q2_location(module, bench)
                live = am.liveness(location.function).live_before(location)
                layer["core.live_slots"] = (layer.get("core.live_slots", 0)
                                            + len(live))
                with spans.span("core.insert"):
                    insert_resolved_osr_point(
                        location.function, location, HotCounterCondition(1),
                        engine=engine)
                fires = transitions
            runners.append(_Runner(
                f"{bench.name}.{config}",
                lambda e=engine, b=bench, a=args: e.run(b.entry, *a),
                _reference(oracle, bench, args), engine, fires))
    for program in FEVAL:
        with spans.span("mcvm.parse"):
            vm = McVM(program.source, enable_osr=True,
                      telemetry=tracing.telemetry())
        vm.engine.analysis = AnalysisManager()
        value = oracle.feval(program, program.steps)
        runners.append(_Runner(
            f"{program.name}.feval",
            lambda v=vm, p=program: v.run(p.entry, p.steps),
            lambda k, value=value: value, vm.engine))
    return runners


def _warm(runner: _Runner, errors: List[str]) -> tuple:
    """Run until the last WINDOW runs agree within TOLERANCE and compiled
    nothing; a tiered engine also runs past its call threshold, so every
    function called once per run has been promoted.  Returns (runs,
    settled)."""
    least = WINDOW
    if runner.row.endswith(".tiered"):
        least = max(WINDOW, DEFAULT_CALL_THRESHOLD + 1)
    times: List[float] = []
    marks: List[Dict[str, int]] = [counters(runner.engine)]
    while len(times) < MAX_WARMUP:
        times.append(runner.run(errors))
        marks.append(counters(runner.engine))
        if len(times) < least:
            continue
        window = times[-WINDOW:]
        quiet = counter_delta(marks[-WINDOW - 1], marks[-1],
                              COMPILE_COUNTERS) == 0
        if quiet and max(window) / min(window) - 1 <= TOLERANCE:
            return len(times), True
    return len(times), False


class _SpecJob:
    """One speculative job: a module compiled outside the timed window,
    then a fresh ``speculative`` engine and one run, timed together."""

    def __init__(self, bench, oracle: Oracle, tracing, stats: List[dict]):
        self.row = f"{bench.name}.spec"
        self.bench = bench
        self.args = STEADY_INPUTS[bench.name][0]
        self.reference = oracle.shootout(bench, self.args)
        self.tracing = tracing
        self.stats = stats

    def run(self, errors: List[str]) -> float:
        bench, tracing = self.bench, self.tracing
        am = AnalysisManager()
        module = compile_module(bench.source, bench.name, am, tracing.spans)
        telemetry = tracing.telemetry()
        with gc_quiet():
            start = time.perf_counter()
            engine = ExecutionEngine(module, tier="speculative",
                                     analysis_manager=am, telemetry=telemetry)
            value = engine.run(bench.entry, *self.args)
            elapsed = time.perf_counter() - start
        if not same_value(value, self.reference):
            raise AssertionError(f"{self.row}: got {value!r}, expected "
                                 f"{self.reference!r}")
        snap = engine.stats_snapshot()
        deopt = snap["timers"].get("deopt.transition")
        self.stats.append({
            "name": bench.name, "counters": snap["counters"],
            "deopt_s": deopt["total"] if deopt else 0.0,
            "pinned": sum(1 for s in snap["speculation"].values()
                          if s["pinned"]),
            "versions": sum(s["versions"]
                            for s in snap["speculation"].values()),
        })
        return elapsed


def run(seed: int, seconds: float, workdir: str, tracing=UNTRACED,
        oracle: Oracle = None) -> dict:
    rng = random.Random(seed)
    oracle = oracle or Oracle()
    errors: List[str] = []
    counts: Dict[str, int] = {}
    layer: Dict[str, float] = {}
    attempted = failed = 0

    setup_start, oracle_start = time.perf_counter(), oracle.seconds
    runners = _build(oracle, tracing, counts, layer)
    spec_stats: List[dict] = []
    spec_jobs = [_SpecJob(bench, oracle, tracing, spec_stats)
                 for bench in SHOOTOUT]
    freeze_heap()
    # one run each first, then the resident set: a fixed amount of work
    # (b-trees leaks with every run, and warm-up lengths vary)
    warmup_runs = unsettled = 0
    setup_probes: List[float] = []
    for runner in list(runners):
        attempted += 1
        warmup_runs += 1
        try:
            runner.run(errors)
        except Exception as error:  # a failed warm-up run is counted
            failed += 1
            errors.append(f"{runner.row} first run: {error!r}")
            runners.remove(runner)
    rss = peak_rss_mb()
    for runner in runners:
        setup_probes.append(probe())
        try:
            runs, settled = _warm(runner, errors)
        except Exception as error:  # a failed warm-up run is counted
            attempted += 1
            failed += 1
            errors.append(f"{runner.row} warm-up: {error!r}")
            continue
        attempted += runs
        warmup_runs += runs
        unsettled += not settled
        freeze_heap()
    marks = {runner.row: counters(runner.engine) for runner in runners}
    setup_s = (time.perf_counter() - setup_start
               - (oracle.seconds - oracle_start)) * host_factor(setup_probes)
    freeze_heap()

    samples: Dict[str, List[float]] = {}
    items = [r for r in runners for _ in range(
        PRIMARY_REPEATS if r.row.endswith((".tiered", ".feval")) else 1)]
    items += spec_jobs

    def schedule():
        while True:
            rng.shuffle(items)
            yield from items

    # whole rounds until one is done, then item by item until the time
    # is up: a round takes several seconds, so stopping only at a round's
    # end would overrun the window by up to one round
    done = 0
    probes: List[float] = []
    start = time.perf_counter()
    for item in schedule():
        if done >= len(items) and time.perf_counter() - start >= seconds:
            break
        done += 1
        attempted += 1
        try:
            elapsed = item.run(errors)
        except Exception as error:  # a failed run is counted
            failed += 1
            errors.append(f"{item.row}: {error!r}")
            continue
        samples.setdefault(item.row, []).append(elapsed)
        probes.append(probe())

    for runner in runners:
        if counter_delta(marks[runner.row], counters(runner.engine),
                         COMPILE_COUNTERS):
            errors.append(f"{runner.row} compiled code inside the timed "
                          "window")
    errors.extend(_check_spec(spec_stats))

    rows = {f"engine.run_s.{row}": trimmed_mean(times)
            for row, times in samples.items()}
    primary = {row: times for row, times in samples.items()
               if row.endswith((".tiered", ".feval"))}
    steady, steady_tail = scaled_tail(primary)
    host = host_factor(probes)
    by_config = lambda config: geomean(
        trimmed_mean(times) for row, times in samples.items()
        if row.endswith("." + config))
    layer.update(rows)
    layer.update(counts)
    layer.update(_engine_counts(runners, spec_stats))
    layer.update({
        "steady_run_s": steady, "steady_run_tail_s": steady_tail,
        "decoded_run_s": by_config("decoded"),
        "spec_run_s": by_config("spec"), "osr_run_s": by_config("osr"),
        "steady.warmup_runs": warmup_runs, "steady.unsettled": unsettled,
        "steady.rounds": done / len(items), "oracle.s": oracle.seconds,
        "host.probe_s": trimmed_mean(probes),
    })
    return {
        "e2e": {"setup_s": setup_s, "result_s": steady * host,
                "tail_s": steady_tail * host, "peak_rss_mb": rss},
        "layer": layer, "attempted": attempted, "failed": failed,
        "errors": errors,
        "deterministic": sorted(
            set(counts) | {"decode.fused", "decode.frame_slots",
                           "jit.compiles", "engine.promotions",
                           "core.osr_fires", "core.live_slots",
                           "spec.specializations", "spec.guard_fails",
                           "spec.deopt_exits", "spec.pinned"}),
    }


def _check_spec(spec_stats: List[dict]) -> List[str]:
    for job in spec_stats:
        if job["name"] == "sp-norm" and not job["counters"].get("deopt.exit"):
            return ["speculative sp-norm made no deopt exit"]
    return []


def _engine_counts(runners: List[_Runner], spec_stats: List[dict]) -> dict:
    tiered = [r.engine for r in runners if r.row.endswith(".tiered")]
    fusion = frames = compiles = promotions = hits = 0
    for engine in tiered:
        snap = engine.stats_snapshot()
        fusion += sum(sum(f.values()) for f in snap["fusion"].values())
        frames += sum(snap["frames"].values())
        c = snap["counters"]
        compiles += c.get("jit.cache_miss", 0)
        hits += c.get("jit.cache_hit", 0)
        promotions += c.get("tier.promote", 0)
    # one speculative job per program: the first round's
    first: Dict[str, dict] = {}
    for job in spec_stats:
        first.setdefault(job["name"], job)
    spec_total = lambda key: sum(j["counters"].get(key, 0)
                                 for j in first.values())
    return {
        "decode.fused": fusion, "decode.frame_slots": frames,
        "jit.compiles": compiles, "engine.promotions": promotions,
        "jit.cache_hit_rate": hits / (hits + compiles) if compiles else 0.0,
        "core.osr_fires": sum(r.fired for r in runners),
        "spec.specializations": sum(j["versions"] for j in first.values()),
        "spec.guard_fails": spec_total("deopt.guard_fail"),
        "spec.deopt_exits": spec_total("deopt.exit"),
        "spec.pinned": sum(j["pinned"] for j in first.values()),
        "spec.deopt_s": sum(j["deopt_s"] for j in spec_stats)
        / max(1, len(spec_stats)),
    }

"""``cold-start``: source text to first verified result, every cache empty.

Closed loop, one thread.  Each job takes one corpus program through the
frontend, the ``optimized`` pipeline (one pass at a time, private
``AnalysisManager``), a fresh ``tiered`` engine and its first run at a
small seeded input; the feval jobs build a fresh ``McVM`` with
``enable_osr=True``, whose run fires open OSR, generates a continuation
and runs compensation code.  Every job is then repeated as a *warm* job
against the disk cache its cold job filled: a fresh module and engine
again, but code generation is replaced by disk-cache loads.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List

from repro.analysis.manager import AnalysisManager
from repro.mcvm import McVM
from repro.serve.diskcache import DiskCodeCache
from repro.vm import ExecutionEngine

from common import (
    FEVAL, SHOOTOUT, Oracle, compile_module, counters, freeze_heap, gc_quiet,
    host_factor, median, peak_rss_mb, probe, same_value, scaled_tail,
    trimmed_mean,
)
from layers import UNTRACED

#: the small inputs of each program: small enough that compiling is most
#: of the job, large enough that loops cross the tier-up thresholds.
#: Each round draws one per program, in seeded blocks that use every
#: size once, so every seed times the same mix.
SMALL_INPUTS = {
    "b-trees": (3, 4, 5), "fannkuch": (4, 5), "fasta": (400, 800, 1200),
    "fasta-redux": (400, 800, 1200), "mbrot": (6, 9, 12),
    "n-body": (30, 60, 90), "rev-comp": (400, 800, 1200),
    "sp-norm": (5, 7, 9),
}
FEVAL_STEPS = (200, 400, 800)
IMPORT_REPEATS = 15
#: peak_rss_mb is read when this many rounds are done
RSS_ROUNDS = 5


def _import_seconds(src: str) -> float:
    """Wall time of a fresh interpreter importing the VM's layers: what
    a cold process pays before it can take any source text."""
    code = (f"import sys; sys.path.insert(0, {src!r}); import repro.vm, "
            "repro.frontend, repro.transform, repro.mcvm, repro.serve")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


class _Job:
    __slots__ = ("name", "run", "reference")

    def __init__(self, name, run, reference):
        self.name = name
        self.run = run
        self.reference = reference


def _shootout_job(bench, n: int, tracing, stats: List[dict]):
    def run(cache_dir: str):
        am = AnalysisManager()
        counts: Dict[str, int] = {}
        module = compile_module(bench.source, bench.name, am,
                                tracing.spans, counts=counts)
        cache = DiskCodeCache(cache_dir)
        engine = ExecutionEngine(module, tier="tiered", analysis_manager=am,
                                 disk_cache=cache,
                                 telemetry=tracing.telemetry())
        value = engine.run(bench.entry, n)
        snap = engine.stats_snapshot()
        stats.append({"counts": counts, "counters": counters(engine),
                      "disk": cache.stats(), "analysis": am.stats(),
                      "fusion": snap["fusion"], "frames": snap["frames"]})
        return value

    return run


def _feval_job(program, steps: int, tracing, stats: List[dict]):
    def run(cache_dir: str):
        with tracing.spans.span("mcvm.parse"):
            vm = McVM(program.source, enable_osr=True,
                      telemetry=tracing.telemetry())
        # private caches for this job: analyses and the disk cache
        vm.engine.analysis = AnalysisManager()
        cache = DiskCodeCache(cache_dir)
        vm.engine.disk_cache = cache
        value = vm.run(program.entry, steps)
        stats.append({"counters": counters(vm.engine), "disk": cache.stats(),
                      "analysis": vm.engine.analysis.stats(),
                      "feval": dict(vm.stats)})
        return value

    return run


def run(seed: int, seconds: float, workdir: str, tracing=UNTRACED,
        oracle: Oracle = None) -> dict:
    rng = random.Random(seed)
    oracle = oracle or Oracle()
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    setup_probes: List[float] = []
    imports: List[float] = []
    for _ in range(IMPORT_REPEATS):
        setup_probes.append(probe())
        imports.append(_import_seconds(src))
    import_s = median(imports)
    prep_start, oracle_start = time.perf_counter(), oracle.seconds
    stats: Dict[str, List[dict]] = {"cold": [], "warm": []}
    variants: Dict[str, List[_Job]] = {}
    for bench in SHOOTOUT:
        variants[bench.name] = [_Job(f"{bench.name}({n})", {
            half: _shootout_job(bench, n, tracing, stats[half])
            for half in stats}, oracle.shootout(bench, (n,)))
            for n in SMALL_INPUTS[bench.name]]
    for program in FEVAL:
        variants[program.name] = [_Job(f"{program.name}({steps})", {
            half: _feval_job(program, steps, tracing, stats[half])
            for half in stats}, oracle.feval(program, steps))
            for steps in FEVAL_STEPS]
    blocks: Dict[str, List[_Job]] = {name: [] for name in variants}

    def draw(name: str) -> _Job:
        if not blocks[name]:
            blocks[name] = rng.sample(variants[name], len(variants[name]))
        return blocks[name].pop()

    setup_s = (import_s + time.perf_counter() - prep_start
               - (oracle.seconds - oracle_start)) * host_factor(setup_probes)
    freeze_heap()

    samples: Dict[str, Dict[str, List[float]]] = {"cold": {}, "warm": {}}
    attempted = failed = 0
    errors: List[str] = []
    rounds = 0
    rss = None
    probes: List[float] = []
    cache_root = os.path.join(workdir, "diskcache")
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        order = list(variants)
        rng.shuffle(order)
        for job in map(draw, order):
            cache_dir = os.path.join(cache_root, f"{rounds}-{job.name}")
            for half in ("cold", "warm"):
                attempted += 1
                try:
                    with gc_quiet(), tracing.spans.span("bench.job"):
                        begin = time.perf_counter()
                        value = job.run[half](cache_dir)
                        elapsed = time.perf_counter() - begin
                except Exception as error:  # a failed job is counted
                    failed += 1
                    errors.append(f"{job.name} {half}: {error!r}")
                    continue
                if not same_value(value, job.reference):
                    failed += 1
                    errors.append(f"{job.name} {half}: got {value!r}, "
                                  f"expected {job.reference!r}")
                    continue
                samples[half].setdefault(job.name, []).append(elapsed)
            shutil.rmtree(cache_dir, ignore_errors=True)
            probes.append(probe())
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss = peak_rss_mb()

    first, first_tail = scaled_tail(samples["cold"])
    warm, _ = scaled_tail(samples["warm"])
    host = host_factor(probes)
    errors.extend(_check_engaged(stats))
    layer = _layer_counts(stats, len(variants))
    layer.update({
        "first_result_s": first, "first_result_tail_s": first_tail,
        "warm_first_result_s": warm, "oracle.s": oracle.seconds,
        "cold.rounds": rounds, "host.probe_s": trimmed_mean(probes),
    })
    return {
        "e2e": {"setup_s": setup_s, "result_s": first * host,
                "tail_s": first_tail * host,
                "peak_rss_mb": rss or peak_rss_mb()},
        "layer": layer, "attempted": attempted, "failed": failed,
        "errors": errors,
        "deterministic": sorted(k for k in layer if k.startswith((
            "frontend.", "transform.", "analysis.", "jit.", "engine.",
            "decode.", "mcvm.", "diskcache."))),
    }


def _check_engaged(stats: Dict[str, List[dict]]) -> List[str]:
    """The layers this workload targets did their work, from counters."""
    problems = []
    for job in stats["warm"]:
        if job["disk"]["hits"] == 0:
            problems.append("a disk-warm job loaded nothing from disk")
            break
    for job in stats["cold"]:
        if "feval" in job and job["feval"]["feval_optimizations"] < 1:
            problems.append("a cold feval job never specialized")
            break
    return problems


def _layer_counts(stats: Dict[str, List[dict]], per_round: int) -> dict:
    """Deterministic counts from the first round's jobs (so they do not
    depend on how many rounds fit in the run)."""
    cold = stats["cold"][:per_round]
    warm = stats["warm"][:per_round]
    total = lambda jobs, key: sum(j["counters"].get(key, 0) for j in jobs)
    hits = sum(j["analysis"]["hits"] for j in cold)
    misses = sum(j["analysis"]["misses"] for j in cold)
    return {
        "frontend.ir_insts": sum(j["counts"]["frontend.ir_insts"]
                                 for j in cold if "counts" in j),
        "transform.ir_insts_out": sum(j["counts"]["transform.ir_insts_out"]
                                      for j in cold if "counts" in j),
        "analysis.hits": hits, "analysis.misses": misses,
        "analysis.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "jit.compiles": total(cold, "jit.cache_miss"),
        "engine.promotions": total(cold, "tier.promote"),
        "decode.fused": sum(sum(f.values()) for j in cold if "fusion" in j
                            for f in j["fusion"].values()),
        "decode.frame_slots": sum(sum(j["frames"].values()) for j in cold
                                  if "frames" in j),
        "mcvm.feval_specializations": sum(
            j["feval"]["feval_optimizations"] for j in cold if "feval" in j),
        "diskcache.hits": sum(j["disk"]["hits"] for j in warm),
        "diskcache.misses": sum(j["disk"]["misses"] for j in warm),
        "diskcache.rejected": sum(j["disk"]["rejected"] for j in warm),
        "diskcache.writes": sum(j["disk"]["writes"] for j in cold),
    }

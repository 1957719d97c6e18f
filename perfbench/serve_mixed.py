"""``serve-mixed``: a 2-worker ``VMServer`` under open-loop Poisson load.

One generator thread sends requests on a seeded Poisson schedule at a
few fixed rates, whatever the server's state, so a stall shows as queue
wait for every later request.  The server runs ``tiered-bg`` over one
module holding all eight shootout sources; two tenants send a seeded
mix of the five stateless entries at small sizes.  The stateful entries
(fasta, fasta-redux, rev-comp) are left out: globals are shared
engine-wide by design, so concurrent runs have no single reference.

Latency is timed from each request's *scheduled* send to the end of its
execution on a worker; how late the generator itself ran is reported
beside it.
"""

from __future__ import annotations

import contextlib
import math
import random
import threading
import time
from typing import Dict, List, Tuple

from repro.analysis.manager import AnalysisManager
from repro.serve.server import VMServer
from repro.shootout import SUITE
from repro.vm import ExecutionEngine
from repro.vm.profile import DEFAULT_CALL_THRESHOLD

from common import (
    COMPILE_COUNTERS, SHOOTOUT, Oracle, compile_module, counter_delta,
    counters, freeze_heap, gc_quiet, host_factor, median, peak_rss_mb,
    percentile, probe, same_value, tail,
)
from layers import UNTRACED, paused

WORKERS = 2
TENANTS = ("tenant-a", "tenant-b")
#: entry -> sizes; 1-7 ms of service each once promoted, so that at
#: the nominal rate two requests seldom overlap: a request that does
#: shares the GIL and takes about twice as long, and the larger the
#: requests the more often that decides the tail
MIX = {
    "b-trees": (3, 4), "fannkuch": (4, 5), "mbrot": (6, 8, 10),
    "n-body": (15, 30), "sp-norm": (4, 6),
}
#: requests per second; the first is the nominal rate, low enough
#: (about a tenth of what the server sustains) that a slower host
#: lengthens service without tipping the queue into a backlog
RATES = (25, 150, 300)
#: share of the run each rate gets: most goes to the nominal rate, whose
#: tail (the 11th-highest latency) needs every sample it can get
SHARES = (0.9, 0.05, 0.05)
#: the nominal tail is the median of the tails of this many consecutive
#: windows of the phase: the tail of the whole phase (its 11th-highest
#: latency) moves with how many host stalls one run happened to meet
TAIL_WINDOWS = 3
#: the p99 latency limit a rate must meet to count toward max_rps
P99_LIMIT_MS = 50.0
#: a quiet warm-up round counts only once each tenant (profiles are per
#: tenant) has called every entry past the call threshold: a round
#: calls an entry once per size, and an entry promoted later would
#: compile inside the timed phase
MIN_WARMUP_ROUNDS = math.ceil((DEFAULT_CALL_THRESHOLD + 1)
                              / min(len(sizes) for sizes in MIX.values()))
MAX_WARMUP_ROUNDS = 20
#: set-ups per run; setup_s is their median, and the last one serves
SETUP_REPEATS = 9


class _Stamps:
    """Start and end time of every request's execution on a worker,
    taken by wrapping ``VMServer._execute`` for the run's duration."""

    def __init__(self):
        self.started: Dict[object, float] = {}
        self.done: Dict[object, float] = {}
        self._original = VMServer.__dict__["_execute"]
        stamps = self
        original = self._original

        def _execute(server, pending):
            stamps.started[pending] = time.perf_counter()
            try:
                original(server, pending)
            finally:
                stamps.done[pending] = time.perf_counter()

        VMServer._execute = _execute

    def close(self) -> None:
        VMServer._execute = self._original


def _keys() -> List[Tuple[str, int]]:
    return [(name, size) for name, sizes in MIX.items() for size in sizes]


def _warm(server: VMServer, refs, errors: List[str]) -> Tuple[int, int]:
    """Closed-loop rounds of every (tenant, entry, size) until promotion
    has happened and a round queued no compile; returns (rounds,
    requests)."""
    engine = server.engine
    requests = 0
    for rounds in range(1, MAX_WARMUP_ROUNDS + 1):
        before = counters(engine)
        pending = [(server.submit(SUITE[name].entry, (size,), tenant),
                    (name, size))
                   for tenant in TENANTS for name, size in _keys()]
        for request, key in pending:
            requests += 1
            value = request.result(timeout=60)
            if not same_value(value, refs[key]):
                errors.append(f"warm-up {key}: got {value!r}, expected "
                              f"{refs[key]!r}")
        engine.drain_background(timeout=60)
        quiet = counter_delta(before, counters(engine),
                              COMPILE_COUNTERS) == 0
        if rounds >= MIN_WARMUP_ROUNDS and quiet:
            return rounds, requests
    errors.append("serve warm-up never stopped compiling")
    return MAX_WARMUP_ROUNDS, requests


def _schedule(rng: random.Random, rate: float, seconds: float):
    """Poisson arrivals: (offset s, tenant, entry name, size).  The mix
    is drawn in shuffled blocks holding every (tenant, entry, size) once,
    so each kind of request is equally common in every run."""
    block = [(tenant, name, size) for tenant in TENANTS
             for name, size in _keys()]
    out, pending, offset = [], [], rng.expovariate(rate)
    while offset < seconds:
        if not pending:
            pending = list(block)
            rng.shuffle(pending)
        tenant, name, size = pending.pop()
        out.append((offset, tenant, name, size))
        offset += rng.expovariate(rate)
    return out


def _open_loop(server: VMServer, schedule, errors: List[str]):
    """Send on schedule from one generator thread; returns
    [(scheduled, submitted, pending, key)] and the backlog when the last
    request was sent."""
    sent: List[tuple] = []
    backlog = [0]

    def generate():
        t0 = time.perf_counter() + 0.01
        for offset, tenant, name, size in schedule:
            due = t0 + offset
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            try:
                pending = server.submit(SUITE[name].entry, (size,), tenant)
            except Exception as error:  # a refused request is counted
                errors.append(f"submit {name}({size}): {error!r}")
                pending = None
            sent.append((due, time.perf_counter(), pending, (name, size)))
        backlog[0] = server.stats()["outstanding"]

    thread = threading.Thread(target=generate, name="perfbench-generator")
    thread.start()
    thread.join()
    server.drain(timeout=120)
    return sent, backlog[0]


def _set_up(refs, errors: List[str], tracing, counts: Dict[str, int]):
    """Compile the module, start the server and warm it up; returns
    (server, seconds, warm-up rounds, warm-up requests, promotions)."""
    start = time.perf_counter()
    am = AnalysisManager()
    module = compile_module("\n".join(b.source for b in SHOOTOUT), "serve",
                            am, tracing.spans, counts=counts)
    engine = ExecutionEngine(module, tier="tiered-bg", analysis_manager=am,
                             telemetry=tracing.telemetry())
    server = VMServer(engine=engine, workers=WORKERS)
    try:
        rounds, requests = _warm(server, refs, errors)
    except BaseException:
        _stop(server)
        raise
    promotions = counters(engine).get("tier.promote", 0)
    return (server, time.perf_counter() - start, rounds, requests,
            promotions)


def _stop(server: VMServer) -> None:
    server.shutdown(wait=True)
    server.engine.shutdown_background(wait=True)


def run(seed: int, seconds: float, workdir: str, tracing=UNTRACED,
        oracle: Oracle = None) -> dict:
    rng = random.Random(seed)
    oracle = oracle or Oracle()
    errors: List[str] = []

    refs = {(name, size): oracle.shootout(SUITE[name], (size,))
            for name, size in _keys()}
    counts: Dict[str, int] = {}
    stamps = _Stamps()
    setups: List[float] = []
    setup_probes: List[float] = []
    warm_requests = 0
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            if server is not None:
                _stop(server)
                server = None
            # only the set-up that serves is traced
            with contextlib.nullcontext() if last else paused():
                (server, setup, warm_rounds, requests,
                 promotions) = _set_up(refs, errors,
                                       tracing if last else UNTRACED,
                                       counts)
            setups.append(setup)
            setup_probes.append(probe())
            warm_requests += requests
        setup_s = median(setups) * host_factor(setup_probes)
        engine = server.engine
        mark = counters(engine)
        freeze_heap()

        per_rate = []
        for rate, share in zip(RATES, SHARES):
            schedule = _schedule(rng, rate, seconds * share)
            with gc_quiet():
                sent, backlog = _open_loop(server, schedule, errors)
            per_rate.append((rate, sent, backlog))
            if len(per_rate) == 1:
                rss = peak_rss_mb()
        server_stats = server.stats()
    finally:
        stamps.close()
        if server is not None:
            _stop(server)

    if promotions == 0:
        errors.append("no function was promoted during serve set-up")
    if counter_delta(mark, counters(engine), COMPILE_COUNTERS):
        errors.append("the server compiled code inside the timed phase")
    attempted = failed = 0
    layer: Dict[str, float] = dict(counts)
    max_rps = 0.0
    nominal = None
    for rate, sent, backlog in per_rate:
        latencies, lags, queued = [], [], []
        rate_failed = 0
        for due, submitted, pending, key in sent:
            attempted += 1
            lags.append(submitted - due)
            if pending is None or pending not in stamps.done:
                rate_failed += 1
                continue
            try:
                value = pending.result(timeout=0)
            except Exception as error:  # a failed request is counted
                rate_failed += 1
                errors.append(f"{key}: {error!r}")
                continue
            if not same_value(value, refs[key]):
                rate_failed += 1
                errors.append(f"{key}: got {value!r}, expected "
                              f"{refs[key]!r}")
                continue
            latencies.append(stamps.done[pending] - due)
            queued.append(stamps.started[pending] - due)
        failed += rate_failed
        p99 = percentile(latencies, 99) * 1000
        layer[f"serve.p99_ms.at_{rate}"] = p99
        if (rate_failed == 0 and p99 <= P99_LIMIT_MS
                and backlog <= max(5, 0.02 * len(sent))):
            max_rps = max(max_rps, rate)
        if nominal is None:
            nominal = (latencies, lags, queued)

    latencies, lags, queued = nominal
    p50 = median(latencies)
    n = len(latencies)  # in send order
    tail_s = median([tail(latencies[i * n // TAIL_WINDOWS:
                                    (i + 1) * n // TAIL_WINDOWS])
                     for i in range(TAIL_WINDOWS)])
    exec_stats = engine.metrics.timer_stats("serve.latency")
    wait = engine.metrics.timer_stats("compile.wait")
    c = counters(engine)
    layer.update({
        "serve_p50_ms": p50 * 1000,
        "serve_p99_ms": percentile(latencies, 99) * 1000,
        "serve.max_rps": max_rps,
        "serve.exec_ms_p50": exec_stats["p50"] * 1000,
        "serve.exec_ms_p99": exec_stats["p99"] * 1000,
        "serve.queue_ms": median(queued) * 1000,
        "serve.batch_mean": (server_stats["completed"]
                             / max(1, server_stats["batches"])),
        "serve.generator_lag_ms": percentile(lags, 99) * 1000,
        "serve.warmup_rounds": warm_rounds,
        "engine.promotions": promotions,
        "background.compile_wait_s": wait["total"] if wait else 0.0,
        "background.compiles": c.get("compile.install", 0),
        "background.discards": c.get("compile.discard", 0),
        "oracle.s": oracle.seconds,
    })
    return {
        "e2e": {"setup_s": setup_s, "result_s": p50, "tail_s": tail_s,
                "peak_rss_mb": rss},
        "layer": layer, "attempted": attempted + warm_requests,
        "failed": failed, "errors": errors,
        "deterministic": sorted(counts),
    }

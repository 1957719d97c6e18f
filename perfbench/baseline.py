"""Record the committed baseline.

    python3 perfbench/baseline.py             # writes perfbench/BASELINE.json

Runs every workload ``RUNS`` times untraced, each with its own seed
(1..RUNS), plus one traced run, and writes ``perfbench/BASELINE.json``:
per workload, the median, quartiles and spread (interquartile range over
median) of every end-to-end metric, the per-layer figures of the traced
run, and what the workload ran (inputs, configurations, latency limit)
on which host.  Marks every spread other than ``setup_s``'s that
exceeds its bound in ``BENCHMARK.json``, and then exits 1.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

from run import run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "BASELINE.json")
#: untraced runs per workload, seeds 1..RUNS
RUNS = 10


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, seed: int, trace: int) -> dict:
    code, result = run_workload(workload, seed, _spec()["run_seconds"],
                                trace)
    if code != 0 or result is None:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {code})")
    print(f"{workload} seed={seed} trace={trace} "
          f"attempted={result['attempted']}", file=sys.stderr)
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def _describe() -> dict:
    """What each workload runs, from the workload modules themselves."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import cold_start
    import serve_mixed
    import steady
    from common import PROBE_ITERATIONS, PROBE_REFERENCE_S
    from repro.shootout import SUITE

    scaled = (f"result_s, tail_s and setup_s are measured times x "
              f"{PROBE_REFERENCE_S * 1000:g} ms over the trimmed mean of "
              f"probes ({PROBE_ITERATIONS} iterations of a pure-Python loop, "
              "thread CPU time) taken after every job; setup_s's between "
              "set-up steps")
    return {
        "cold-start": {
            "loop": "closed, one thread",
            "pipeline": "optimized, one pass at a time, private "
                        "AnalysisManager per job",
            "tier": "tiered (feval: McVM enable_osr=True)",
            "inputs": {**{k: list(v) for k, v in
                          cold_start.SMALL_INPUTS.items()},
                       "feval steps": list(cold_start.FEVAL_STEPS)},
            "halves": "cold (empty disk cache, filled write-through), "
                      "then warm (same disk cache, fresh module and engine)",
            "setup_s": "fresh interpreter importing the VM (median of "
                       f"{cold_start.IMPORT_REPEATS}) plus job preparation",
            "host_speed": scaled,
        },
        "steady": {
            "loop": "closed, one thread",
            "configurations": ["tiered", "decoded", "spec (fresh engine "
                               "per job)", "osr (Q2 always-firing resolved "
                               "point, jit tier)", "feval (McVM)"],
            "inputs": {k: list(v[0]) for k, v in
                       steady.STEADY_INPUTS.items()},
            "standard_inputs": {b: list(SUITE[b].args)
                                for b in steady.STEADY_INPUTS},
            "warm_up": f"until the last {steady.WINDOW} runs agree within "
                       f"{steady.TOLERANCE:.0%} and compiled nothing "
                       "(tiered: at least call threshold + 1 runs)",
            "osr_transitions_per_run": {k: v[1] for k, v in
                                        steady.STEADY_INPUTS.items()},
            "setup_s": "compile, engine set-up and warm-up of every "
                       "configuration",
            "host_speed": scaled,
        },
        "serve-mixed": {
            "loop": "open, Poisson arrivals from one generator thread",
            "server": f"VMServer tiered-bg, {serve_mixed.WORKERS} workers, "
                      "one module with all 8 shootout sources",
            "tenants": list(serve_mixed.TENANTS),
            "mix": {k: list(v) for k, v in serve_mixed.MIX.items()},
            "rates_per_s": list(serve_mixed.RATES),
            "nominal_rate_per_s": serve_mixed.RATES[0],
            "p99_limit_ms": serve_mixed.P99_LIMIT_MS,
            "left_out": "fasta, fasta-redux and rev-comp keep a global "
                        "PRNG seed; globals are shared engine-wide by "
                        "design (docs/serving.md), so concurrent runs have "
                        "no single reference",
            "setup_s": "compile, server start and closed-loop tier-up "
                       "until a round queues no compile, median of "
                       f"{serve_mixed.SETUP_REPEATS} set-ups",
            "host_speed": "setup_s is the measured time x "
                          f"{PROBE_REFERENCE_S * 1000:g} ms over the trimmed "
                          "mean of probes taken after each set-up; the "
                          "latencies are not scaled",
        },
    }


KNOWN_DEFECTS = [{
    "what": "speculative fasta is quadratic in the number of distinct "
            "argument values",
    "where": "src/repro/vm/profile.py ValueFeedback.dominant()",
    "cause": "dominant() takes a max over every distinct value seen, and "
             "stable_argument calls it on each dispatch while the feedback "
             "stays polymorphic; fasta_pick sees up to 139,968 seeds",
    "shows_as": "engine.run_s.fasta.spec and engine.run_s.fasta-redux.spec "
                "many times their .tiered rows at the same n; spec_run_s on "
                "steady",
}]


def main() -> int:
    spec = _spec()
    out = {
        "host": {"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "nproc": os.cpu_count(), "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": _describe(),
        "known_defects": [dict(defect) for defect in KNOWN_DEFECTS],
        "results": {},
    }
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [_run(name, seed, 0) for seed in out["seeds"]]
        e2e = {}
        for metric in spec["end_to_end"]:
            summary = _summary([r["metrics"][metric["name"]]["value"]
                                for r in results])
            summary["bound"] = metric["bound"]
            # the set-up time's bound limits how far its median may move
            # between two sets of runs, not its spread within one
            summary["within_bound"] = (metric["name"] == "setup_s"
                                       or summary["spread"] <= metric["bound"])
            e2e[metric["name"]] = summary
            if not summary["within_bound"]:
                status = 1
        traced = _run(name, 1, 1)
        if name == "steady":
            rows = traced["metrics"]
            for program in ("fasta", "fasta-redux"):
                out["known_defects"][0][f"{program}_spec_over_tiered"] = (
                    rows[f"engine.run_s.{program}.spec"]["value"]
                    / rows[f"engine.run_s.{program}.tiered"]["value"])
        out["results"][name] = {
            "why": workload["why"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
    for name, result in out["results"].items():
        for metric, s in result["end_to_end"].items():
            print(f"{name:<12} {metric:<12} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})")
    out["spreads_within_bounds"] = status == 0
    with open(BASELINE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

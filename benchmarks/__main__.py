"""Command-line benchmark runner with JSON output.

::

    python -m benchmarks --json BENCH_tiers.json           # tier benchmarks
    python -m benchmarks tiers q3 --json out.json          # a subset
    python -m benchmarks tiers --smoke                     # seconds, for CI

Targets: ``tiers`` (the tiered-execution comparison from
``bench_tiers.py``, the default), ``cache`` (cold vs. warm JIT
materialization — implied by ``tiers``), ``background`` (non-blocking
vs synchronous tier-up from ``bench_background.py``), ``spec`` (guarded
speculation speedup and deopt cost from ``bench_spec_deopt.py``) and
``analysis`` (cached vs recompute-always analyses from
``bench_analysis.py``), ``lowering`` (AST-direct codegen latency and
OSR intrusiveness from ``bench_lowering.py``), ``obs`` (always-on telemetry overhead and the
dispatch/compile latency percentiles from ``bench_obs.py``), ``serve``
(persistent-cache warm starts and the multi-tenant VM server from
``bench_serve.py``) and ``q1``–``q4`` (the paper's evaluation drivers
from :mod:`repro.experiments`).

The JSON document maps each target to a list of row objects plus an
``env`` block recording the interpreter version and trial count, so runs
are comparable across machines.  An ambient telemetry is installed for
the whole run; each target's section of the ``telemetry`` block is the
metrics-registry diff across that target (counters bumped, spans timed),
so a BENCH_*.json records *what the VM did*, not just how long it took.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.experiments import (
    format_q1, format_q2, format_q3, format_q3_state, format_q4,
    run_q1, run_q2, run_q3, run_q3_state, run_q4,
)
from repro.obs import MetricsRegistry, Telemetry, ambient, set_ambient

from .bench_analysis import format_analysis, run_analysis
from .bench_background import format_background, run_background
from .bench_spec_deopt import (
    format_deopt_cost,
    format_spec,
    run_deopt_cost,
    run_spec,
)
from .bench_lowering import (
    format_codegen,
    format_intrusiveness,
    run_codegen,
    run_intrusiveness,
)
from .bench_obs import format_obs, run_obs
from .bench_scalarize import (
    format_recipe,
    format_scalarize,
    run_recipe,
    run_scalarize,
)
from .bench_serve import (
    format_serve,
    format_warmstart,
    run_serve,
    run_warmstart,
)
from .bench_tiers import format_cache, format_tiers, run_cache, run_tiers

TARGETS = ("tiers", "cache", "background", "spec", "analysis", "lowering",
           "obs", "serve", "scalarize", "q1", "q2", "q3", "q4")


def _rows_to_json(rows):
    return [row._asdict() for row in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Run the repository benchmarks and emit JSON results.",
    )
    parser.add_argument(
        "targets", nargs="*", default=["tiers"], choices=TARGETS,
        help="which benchmark groups to run (default: tiers)",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write results to PATH as JSON")
    parser.add_argument("--trials", type=int, default=3,
                        help="timed trials per configuration (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="single-trial, tiny workloads (sanity check)")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be >= 1")

    targets = list(dict.fromkeys(args.targets))
    if "tiers" in targets and "cache" not in targets:
        targets.insert(targets.index("tiers") + 1, "cache")

    results = {
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "trials": 1 if args.smoke else args.trials,
            "smoke": args.smoke,
        },
        "telemetry": {},
    }
    banner = "=" * 72

    # ambient telemetry for the whole run: experiment engines fold their
    # counters into this registry, and each target's slice of the run is
    # captured as a snapshot diff
    telemetry = Telemetry()
    previous_ambient = ambient()
    set_ambient(telemetry)
    try:
        _run_targets(args, targets, results, banner, telemetry)
    finally:
        set_ambient(previous_ambient)

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


def _run_targets(args, targets, results, banner, telemetry) -> None:
    for target in targets:
        before = telemetry.metrics.snapshot()
        print(banner)
        if target == "tiers":
            print("Execution tiers — tree-walker vs decoded vs JIT")
            print(banner)
            rows = run_tiers(trials=args.trials, smoke=args.smoke)
            print(format_tiers(rows))
        elif target == "cache":
            print("JIT code cache — cold compile vs warm materialization")
            print(banner)
            rows = run_cache(trials=args.trials, smoke=args.smoke)
            print(format_cache(rows))
        elif target == "background":
            print("Background tier-up — non-blocking vs synchronous")
            print(banner)
            rows = run_background(trials=args.trials, smoke=args.smoke)
            print(format_background(rows))
        elif target == "spec":
            print("Speculation — guarded fast paths and deopt cost")
            print(banner)
            spec_rows = run_spec(trials=args.trials, smoke=args.smoke)
            print(format_spec(spec_rows))
            cost_rows = run_deopt_cost(trials=args.trials, smoke=args.smoke)
            print(format_deopt_cost(cost_rows))
            rows = list(spec_rows) + list(cost_rows)
        elif target == "analysis":
            print("Analysis caching — AnalysisManager vs recompute-always")
            print(banner)
            rows = run_analysis(trials=args.trials, smoke=args.smoke)
            print(format_analysis(rows))
        elif target == "lowering":
            print("Lowering — codegen latency and OSR intrusiveness")
            print(banner)
            codegen_rows = run_codegen(trials=args.trials, smoke=args.smoke)
            print(format_codegen(codegen_rows))
            intr_rows = run_intrusiveness()
            print(format_intrusiveness(intr_rows))
            results["intrusiveness"] = _rows_to_json(intr_rows)
            rows = codegen_rows
        elif target == "obs":
            print("Observability — always-on telemetry overhead")
            print(banner)
            rows, latency = run_obs(trials=args.trials, smoke=args.smoke)
            print(format_obs(rows, latency))
            results["obs_latency"] = latency
        elif target == "serve":
            print("Serving — persistent warm starts and the VM server")
            print(banner)
            warm_rows = run_warmstart(trials=args.trials, smoke=args.smoke)
            print(format_warmstart(warm_rows))
            serve_rows = run_serve(trials=args.trials, smoke=args.smoke)
            print(format_serve(serve_rows))
            results["warmstart"] = _rows_to_json(warm_rows)
            rows = serve_rows
        elif target == "scalarize":
            print("Scalarization — OSR live-slot reduction and recipe cost")
            print(banner)
            scal_rows = run_scalarize(trials=args.trials, smoke=args.smoke)
            print(format_scalarize(scal_rows))
            recipe_rows = run_recipe(trials=args.trials, smoke=args.smoke)
            print(format_recipe(recipe_rows))
            results["recipe"] = _rows_to_json(recipe_rows)
            rows = scal_rows
        elif target == "q1":
            print("Q1 / Figures 10 & 11 — never-firing OSR point overhead")
            print(banner)
            rows = []
            for level in ("unoptimized", "optimized"):
                level_rows = run_q1(
                    level=level, trials=1 if args.smoke else args.trials
                )
                print(format_q1(level_rows))
                rows.extend(level_rows)
        elif target == "q2":
            print("Q2 / Table 2 — cost of an OSR transition")
            print(banner)
            rows = run_q2(trials=1 if args.smoke else args.trials)
            print(format_q2(rows))
        elif target == "q3":
            print("Q3 / Table 3 — OSR machinery generation")
            print(banner)
            rows = run_q3()
            print(format_q3(rows))
            state_rows = run_q3_state()
            print(format_q3_state(state_rows))
            results["q3_state"] = _rows_to_json(state_rows)
        elif target == "q4":
            print("Q4 / Table 4 — feval optimization speedups")
            print(banner)
            rows = run_q4(trials=1 if args.smoke else args.trials)
            print(format_q4(rows))
        results[target] = _rows_to_json(rows)
        results["telemetry"][target] = MetricsRegistry.diff(
            before, telemetry.metrics.snapshot()
        )
        print()


if __name__ == "__main__":
    sys.exit(main())

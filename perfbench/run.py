"""The OSR VM benchmark: one command, three workloads, every result checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 20
    python3 perfbench/run.py --workload steady --seed 1 --trace 1
    python3 perfbench/run.py --workload all      # each in its own process

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones listed in ``BENCHMARK.json``, measured
untraced.  With ``--trace 1`` they are the per-layer ones: the run
repeats the workload untraced for half the time and traced for the other
half (odd seeds untraced first, even seeds traced first; layer spans
recorded by :mod:`layers`, one program telemetry per engine), writes a
Chrome trace under ``.perfbench_out/`` and reports self time per layer
and the traced/untraced overhead.

Any wrong result, raised job, refused request or layer that did not
engage makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys

HASH_SEED = "0"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"cold-start": "cold_start", "steady": "steady",
             "serve-mixed": "serve_mixed"}
#: layers in the self-time split, by span-name prefix
LAYERS = ("bench", "frontend", "transform", "decode", "jit", "core", "mcvm",
          "engine", "serve", "diskcache")
#: span name -> per-layer metric (seconds per job)
SPAN_METRICS = {
    "frontend": "frontend.s",
    "transform.mem2reg": "transform.mem2reg_s",
    "transform.scalarize": "transform.scalarize_s",
    "transform.constfold": "transform.constfold_s",
    "transform.simplifycfg": "transform.simplifycfg_s",
    "transform.dce": "transform.dce_s",
    "transform.dce_blocks": "transform.dce_blocks_s",
    "decode": "decode.s",
    "jit.codegen": "jit.codegen_s",
    "core.insert": "core.insert_s",
    "core.continuation": "core.continuation_s",
}


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _traced(module, seed: int, seconds: float, workdir: str, name: str):
    import layers
    from common import Oracle

    # one oracle for both halves, with spans paused while it computes,
    # so no reference run counts toward a layer in either order
    oracle = Oracle()
    tracing = layers.Tracing()

    def run_plain():
        return module.run(seed, seconds / 2, workdir, oracle=oracle)

    def run_traced():
        restore = layers.install(tracing.spans)
        try:
            return module.run(seed, seconds / 2, workdir, tracing, oracle)
        finally:
            restore()

    # the half that runs second finds a heap holding the first half's
    # leftovers and a host that may have drifted: odd seeds run the
    # untraced half first, even seeds the traced half, so the order
    # effect on obs.trace_overhead cancels over seeds, not within a run
    if seed % 2:
        plain, traced = run_plain(), run_traced()
    else:
        traced, plain = run_traced(), run_plain()
    jobs = traced["attempted"]
    layer = dict(plain["layer"])
    totals = tracing.spans.totals()
    for span, metric in SPAN_METRICS.items():
        layer[metric] = totals.get(span, 0.0) / jobs
    self_time = tracing.spans.self_time()
    for prefix in LAYERS:
        layer[f"self.{prefix}_s"] = self_time.get(prefix, 0.0) / jobs
    specialize = 0.0
    for telemetry in tracing.telemetries:
        stats = telemetry.metrics.timer_stats("feval.specialize")
        if stats is not None:
            specialize += stats["total"]
    layer["mcvm.feval_specialize_s"] = specialize / jobs
    layer["failed_frac"] = ((plain["failed"] + traced["failed"])
                            / (plain["attempted"] + traced["attempted"]))
    layer["obs.trace_overhead"] = (traced["e2e"]["result_s"]
                                   / plain["e2e"]["result_s"])
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-{seed}.json")
    events = tracing.write_chrome_trace(path)
    print(f"perfbench: wrote {events} trace events to {path}",
          file=sys.stderr)
    _check_counts_repeat(plain, traced)
    return {
        "layer": layer,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
    }


def _check_counts_repeat(plain: dict, traced: dict) -> None:
    """Deterministic counts must read the same in both halves."""
    for key in plain.get("deterministic", ()):
        if plain["layer"][key] != traced["layer"][key]:
            plain["errors"].append(
                f"count {key} did not repeat: {plain['layer'][key]} "
                f"untraced vs {traced['layer'][key]} traced")


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in its own process; returns (exit code, parsed
    last line of its output, or None when it printed nothing)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def _run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    status = 0
    for workload in _load_spec()["workloads"]:
        name = workload["name"]
        code, result = run_workload(name, args.seed, args.seconds,
                                    args.trace)
        if code != 0 or result is None:
            status = 1
        if result is None:
            print(f"{name}: no result (exit {code})")
            continue
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashes order the VM's sets and dicts, so a random hash
        # seed adds process-to-process variation on the same inputs;
        # fix it and start again in this process
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the VM sources (src/repro) are not here",
              file=sys.stderr)
        return 2
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = _traced(module, args.seed, args.seconds, workdir,
                             args.workload)
            wanted, values = spec["per_layer"], result["layer"]
        else:
            result = module.run(args.seed, args.seconds, workdir)
            wanted, values = spec["end_to_end"], result["e2e"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    metrics = {}
    for entry in wanted:
        # a layer the workload never calls did no work: it reports 0
        value = values.get(entry["name"], 0.0 if args.trace else None)
        if value is None:
            raise KeyError(f"{args.workload} did not measure "
                           f"{entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for error in result["errors"][:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = result["failed"] == 0 and not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

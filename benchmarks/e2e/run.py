#!/usr/bin/env python3
"""The repo's benchmark: one absolute clock through the real front door.

::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace {0,1}] [--repeat N] [--smoke] [--out DIR]
    python benchmarks/e2e/run.py compare A/report.json B/report.json

Without ``--workload`` every workload runs; without ``--trace`` both passes
run (end-to-end with tracing off, then the traced per-layer pass).  With
exactly one workload, one pass and one seed — how ``BENCHMARK.json``'s
driver calls it — the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"e2e benchmark: the program under test is missing (no {SRC}/repro)")
sys.path.insert(0, SRC)

import layers  # noqa: E402 - src/ has to be on the path first
import loadgen  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from repro.server.service import kernel_info  # noqa: E402

#: Gated by ``compare`` only: ``BENCHMARK.json`` requires every metric on
#: every workload, and these exist on ``mutate_mix`` alone.
EXTRA_BOUNDS = {"mutate_latency_p50_ms": 0.10, "mutate_latency_p95_ms": 0.20}

#: Per-layer counts that must repeat exactly for one seed.
EXACT = (
    "xpath.rules_applied", "engine.vertices_before", "engine.vertices_after",
    "engine.split_vertices", "engine.selected_dag", "engine.selected_tree",
    "api.paths_returned_share", "skeleton.rskl_bytes", "mutation.dag_vertices_drift",
    "compress.dag_vertices_per_tree_node", "cluster.failed", "cluster.respawns",
    "admission.shed",
)

#: Traced requests per pass (``--smoke``: 30), also bounded by ``--seconds``.
TRACE_REQUESTS = 300


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- one run ---------------------------------------------------------------------


def run_end_to_end(inputs: measure.Inputs, seconds: float, smoke: bool, workdir: str,
                   clock: loadgen.SpeedClock) -> dict:
    """Tracing off: set up, drive for ``seconds``, check every answer."""
    workload = inputs.workload
    stacks: list = []
    try:
        setups = 1 if smoke else measure.SETUPS
        for attempt in range(setups):
            stacks.append(measure.Stack(inputs, os.path.join(workdir, f"setup{attempt}"), SRC))
            if attempt < setups - 1:
                stacks[-1].close()
        stack = stacks[-1]
        observed = measure.drive(inputs, stack, seconds, 0.5 if smoke else workload.warmup_s)
        result = measure.summarize(inputs, observed, stacks, clock.table())
        if workload.writer_path is not None:
            result["problems"] += measure.final_state_problems(inputs, stack)
        stack.server.stop()
        result["problems"] += measure.verify_problems(stack.catalog_dir)
    finally:
        if stacks:
            stacks[-1].close()
    return result


def run_traced(inputs: measure.Inputs, seconds: float, smoke: bool, workdir: str,
               clock: loadgen.SpeedClock, spans: layers.Spans) -> dict:
    """The per-layer pass: a short loaded window, then the traced replay.

    ``seconds`` is shared out: 30% loaded window (for the ``/stats``
    counters), 20% HTTP passes, 30% staged replay, 10% fleet replay.
    """
    requests = layers.request_list(inputs, 30 if smoke else TRACE_REQUESTS)
    stack = measure.Stack(inputs, os.path.join(workdir, "traced"), SRC)
    try:
        observed = measure.drive(inputs, stack, 0.3 * seconds, 0.5)
        layers.http_passes(inputs, stack, spans, requests, 0.2 * seconds)
        admission = stack.get_json("/stats")["admission"]
        stack.server.stop()
        metrics = layers.replay(inputs, stack.catalog_dir, spans, requests, 0.3 * seconds)
        metrics.update(
            layers.fleet_replay(inputs, stack.catalog_dir, spans, requests, 0.1 * seconds)
        )
        metrics.update(layers.mutation_probe(inputs, stack.catalog_dir, stack.directory, spans))
        layers.shred_probe(inputs, spans)
        problems = measure.verify_problems(stack.catalog_dir)
        speed = clock.table()
        summary = measure.summarize(inputs, observed, [stack], speed)
        metrics.update(layers.table(inputs, stack, spans, speed))
    finally:
        stack.close()
    before, after = observed["stats_before"], observed["stats_after"]
    pool_before, pool_after = measure.pool_stats(before), measure.pool_stats(after)
    hits = pool_after["hits"] - pool_before["hits"]
    misses = pool_after["misses"] - pool_before["misses"]
    service_before, service_after = measure.service_stats(before), measure.service_stats(after)
    served = service_after["requests"] - service_before["requests"]
    extras = summary["extras"]
    metrics.update({
        "pool.hit_ratio": hits / max(1, hits + misses),
        "pool.misses": misses,
        "pool.evictions": pool_after["evictions"] - pool_before["evictions"],
        "service.coalesced_share": (
            service_after["coalesced_requests"] - service_before["coalesced_requests"]
        ) / max(1, served),
        "service.max_batch_size": service_after["max_batch_size"],
        "admission.shed": admission["shed_queue_full"] + admission["shed_rate_limited"],
        "client.latency_p99_ms": extras["latency_p99_ms"],
        "client.samples": extras["latency_samples"],
        "client.cpu_s": extras["client_cpu_s"],
        "loadgen.speed_index": speed.index_over(stack.started, time.perf_counter()),
    })
    return {
        "metrics": metrics,
        "extras": {
            "traced_requests": spans.count("transport.http"),
            "replayed_requests": spans.count("routes.dispatch"),
            "reconciles": abs(metrics["trace.stage_sum_share"] - 1.0) <= 0.15,
            "window_s": extras["window_s"],
            "client_cpu_s": extras["client_cpu_s"],
        },
        "attempted": summary["attempted"] + spans.count("transport.http"),
        "failed": summary["failed"],
        "problems": problems + summary["problems"],
    }


def run_one(spec: dict, inputs: measure.Inputs, trace: int, seconds: float, smoke: bool,
            spans_out: list) -> dict:
    """One (workload, seed, pass): the contract object plus the report's extras."""
    workload = inputs.workload
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    load_before = os.getloadavg()[0]
    clock = loadgen.SpeedClock()
    clock.start()
    try:
        if trace:
            spans = layers.Spans(workload.name)
            result = run_traced(inputs, seconds, smoke, workdir, clock, spans)
            spans_out.extend(spans.dump())
        else:
            result = run_end_to_end(inputs, seconds, smoke, workdir, clock)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    if not inputs.dag_counts_consistent():
        result["problems"].append("dag_count took more values than the document has states")
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{workload.name}: metrics not measured: {missing}")
    extras = result["extras"]
    return {
        "workload": workload.name,
        "seed": inputs.seed,
        "trace": trace,
        "seconds": seconds,
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "noisy": load_before > (os.cpu_count() or 1)
        or extras["client_cpu_s"] > 0.8 * extras["window_s"],
        "load_1min": load_before,
        "metrics": {
            metric["name"]: {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        "extras": extras,
    }


# -- reporting -------------------------------------------------------------------


def fingerprint() -> dict:
    """The machine the numbers belong to."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            model = next(
                (line.partition(":")[2].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_tier": kernel_info()["tier"],
        "catalog_filesystem": filesystem_of(HERE),
        "load_1min_at_start": os.getloadavg()[0],
    }


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (the throw-away catalogs)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if len(mount) > len(best) and (path + "/").startswith(mount.rstrip("/") + "/"):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def print_run(run: dict) -> None:
    title = "per-layer (traced)" if run["trace"] else "end-to-end (tracing off)"
    print(f"\n== {run['workload']}  seed={run['seed']}  {title}  {run['seconds']:g}s")
    width = max(len(name) for name in run["metrics"])
    for name, metric in run["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    for name, value in run["extras"].items():
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else f"{value!s:>14}"
        print(f"  {'(' + name + ')':<{width}}  {shown}")
    verdict = "correct" if run["correct"] else "INCORRECT"
    print(f"  attempted={run['attempted']} failed={run['failed']} -> {verdict}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    if run["noisy"]:
        print("  noisy: true (load average above nproc, or the generator was CPU-bound)")


# -- compare ---------------------------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): medians, difference, bound, verdict."""
    spec = load_spec()
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    gates += [(name, "lower", bound) for name, bound in EXTRA_BOUNDS.items()]
    sides = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as handle:
            sides.append(json.load(handle)["runs"])
    worse = 0
    print(f"{'workload':<14}{'metric':<28}{'A median':>12}{'B median':>12}"
          f"{'B vs A':>9}{'bound':>7}{'spread':>8}  verdict")
    for workload in workloads.WORKLOADS:
        runs = [
            [run for run in side if run["workload"] == workload.name and not run["trace"]]
            for side in sides
        ]
        if not all(runs):
            continue
        for name, better, bound in gates:
            values = [
                [
                    run["metrics"][name]["value"] if name in run["metrics"] else run["extras"][name]
                    for run in side
                    if name in run["metrics"] or name in run["extras"]
                ]
                for side in runs
            ]
            if not all(values):
                continue
            median_a, median_b = (statistics.median(side) for side in values)
            change = (median_b - median_a) / abs(median_a)
            regression = change if better == "lower" else -change
            widest = max(spread(side) for side in values)
            if regression > bound:
                verdict, worse = "WORSE", worse + 1
            elif widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload.name:<14}{name:<28}{median_a:>12.5g}{median_b:>12.5g}"
                  f"{change:>+9.1%}{bound:>7.0%}{widest:>8.1%}  {verdict}")
        failed = [max(run["failed"] / run["attempted"] for run in side) for side in runs]
        if failed[1] > failed[0]:
            worse += 1
            print(f"{workload.name:<14}{'failed_share':<28}{failed[0]:>12.5g}{failed[1]:>12.5g}"
                  f"{'':>9}{'+0':>7}{'':>8}  WORSE")
    for workload in workloads.WORKLOADS:
        traced = [
            {run["seed"]: run for run in side if run["workload"] == workload.name and run["trace"]}
            for side in sides
        ]
        for seed in sorted(set(traced[0]) & set(traced[1])):
            for name in EXACT:
                a, b = (side[seed]["metrics"][name]["value"] for side in traced)
                if a != b:
                    print(f"{workload.name:<14}{name:<28}{a:>12.6g}{b:>12.6g}"
                          f"  count differs (seed {seed})")
    return 1 if worse else 0


# -- the command line --------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only, 1: per-layer pass only (default both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds SEED .. SEED+N-1 (for compare's spread)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, one set-up, 30-request trace")
    parser.add_argument("--out", metavar="DIR", help="write report.json and spans.jsonl here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = 2.0 if args.smoke else args.seconds
    selected = [workloads.BY_NAME[name] for name in args.workload or list(workloads.BY_NAME)]
    passes = [0, 1] if args.trace is None else [args.trace]
    machine = fingerprint()
    print("machine: " + ", ".join(f"{key}={value}" for key, value in machine.items()))
    runs: list[dict] = []
    spans: list[dict] = []
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in selected:
            inputs = measure.Inputs.build(workload, seed)
            for trace in passes:
                started = time.perf_counter()
                run = run_one(spec, inputs, trace, seconds, args.smoke, spans)
                run["wall_s"] = time.perf_counter() - started
                runs.append(run)
                print_run(run)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as handle:
            json.dump({"machine": machine, "exact": list(EXACT), "runs": runs}, handle, indent=1)
        with open(os.path.join(args.out, "spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        print(f"\nwrote {args.out}/report.json and {len(spans)} spans to {args.out}/spans.jsonl")
    if len(runs) == 1:
        run = runs[0]
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0
    correct = all(run["correct"] for run in runs)
    print(f"{len(runs)} runs, {sum(run['failed'] for run in runs)} failed requests, "
          f"{'all correct' if correct else 'INCORRECT'}")
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # On every way out: no child process outlives the benchmark.
        loadgen.reap_children()
    sys.exit(code)

"""Smoke test of the e2e benchmark: contract, determinism and clean-up.

It drives ``run.py`` as a subprocess, the way the benchmark driver and a
person at a shell do, and asserts nothing about speed.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
UNITS = {
    0: {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]},
    1: {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]},
}


def benchmark(*args: str) -> subprocess.Popen:
    """``run.py`` in its own session, so leftovers can be found by group id."""
    return subprocess.Popen(
        [sys.executable, RUN, *args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )


def finished(process: subprocess.Popen, timeout: float = 600.0) -> str:
    output, _ = process.communicate(timeout=timeout)
    assert process.returncode == 0, output[-4000:]
    return output


def processes() -> dict[int, tuple[int, str]]:
    """``pid -> (process group, command line)`` of everything alive."""
    found = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "r", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rpartition(")")[2].split()
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if fields[0] != "Z":
            found[int(name)] = (int(fields[2]), command)
    return found


def assert_nothing_left(groups: set[int]) -> None:
    """No process of the given groups, no served catalog, no work directory.

    Checked the instant the benchmark has exited, without a grace period: a
    process that lingers for a moment (multiprocessing's resource tracker
    did) is one the next run could be served by.
    """
    left = {
        pid: row for pid, row in processes().items()
        if row[0] in groups or os.path.join(HERE, ".work") in row[1]
    }
    assert not left, f"processes survived the benchmark: {left}"
    assert not os.path.exists(os.path.join(HERE, ".work")), "a throw-away catalog survived"


def contract_object(output: str) -> dict:
    result = json.loads(output.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_names_and_units():
    names = WORKLOADS + list(UNITS[0]) + list(UNITS[1])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in UNITS[0] and UNITS[0]["setup_s"] == "s"
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One full ``--smoke`` run: every workload, both passes."""
    out = tmp_path_factory.mktemp("e2e")
    process = benchmark("--smoke", "--seed", "7", "--out", str(out))
    finished(process)
    assert_nothing_left({process.pid})
    with open(out / "report.json", "r", encoding="utf-8") as handle:
        report = json.load(handle)
    with open(out / "spans.jsonl", "r", encoding="utf-8") as handle:
        report["spans"] = [json.loads(line) for line in handle]
    return report


def test_smoke_emits_every_metric_of_every_workload(smoke_report):
    runs = {(run["workload"], run["trace"]): run for run in smoke_report["runs"]}
    assert set(runs) == {(name, trace) for name in WORKLOADS for trace in (0, 1)}
    for (workload, trace), run in runs.items():
        assert run["correct"] and run["failed"] == 0, (workload, trace, run["problems"])
        emitted = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert emitted == UNITS[trace], (workload, trace)
        for name, metric in run["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (workload, name)
        if not trace:
            assert all(metric["value"] > 0 for metric in run["metrics"].values()), workload
    for name in ("nproc", "cpu_model", "python", "kernel_tier", "catalog_filesystem"):
        assert smoke_report["machine"][name]


def test_smoke_layers_differ_as_designed(smoke_report):
    traced = {run["workload"]: run for run in smoke_report["runs"] if run["trace"]}
    for workload, run in traced.items():
        value = {name: metric["value"] for name, metric in run["metrics"].items()}
        assert value["admission.shed"] == 0 and value["cluster.failed"] == 0
        assert value["mutation.dag_vertices_drift"] == 0
        # Timings, "reconciles" included, are not asserted: a smoke run has
        # one repetition per request.
        assert value["trace.stage_sum_share"] >= 1 - 1e-9, workload
        if workload == "mutate_mix":
            assert value["pool.hit_ratio"] < 1 and value["pool.misses"] > 0
        else:
            assert value["pool.hit_ratio"] == 1 and value["pool.evictions"] == 0
        assert (value["api.paths_returned_share"] > 0) == (workload == "paths_decode")
    names = {span["name"] for span in smoke_report["spans"]}
    assert {"transport.http", "routes.dispatch", "service.query", "engine.evaluate"} <= names
    assert all(span["end"] >= span["start"] for span in smoke_report["spans"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_driver_call_repeats_counts_exactly(smoke_report, workload):
    """The driver's command line, traced: same seed, same counts."""
    process = benchmark("--smoke", "--workload", workload, "--seed", "7", "--trace", "1")
    result = contract_object(finished(process))
    assert_nothing_left({process.pid})
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == UNITS[1]
    first = next(
        run for run in smoke_report["runs"] if run["workload"] == workload and run["trace"]
    )
    for name in smoke_report["exact"]:
        assert result["metrics"][name]["value"] == first["metrics"][name]["value"], name


def test_driver_call_end_to_end():
    process = benchmark(
        "--workload", "small_hot", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"
    )
    result = contract_object(finished(process))
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == UNITS[0]


def test_interrupted_run_leaves_nothing_behind():
    """SIGTERM while a fleet is being served: no server, worker or catalog stays."""
    process = benchmark("--workload", "fleet1_small", "--seconds", "30", "--trace", "0")
    groups = {process.pid}
    deadline = time.monotonic() + 60.0
    marker = os.path.join(HERE, ".work", f"run-{process.pid}")
    while time.monotonic() < deadline and len(groups) == 1:
        groups |= {group for group, command in processes().values() if marker in command}
        time.sleep(0.05)
    assert len(groups) == 2, "the benchmark never started its server"
    time.sleep(1.0)  # let the fleet spawn its worker
    process.send_signal(signal.SIGTERM)
    process.communicate(timeout=60)
    assert process.returncode != 0
    assert_nothing_left(groups)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    """In a directory holding only the benchmark: non-zero exit, no result line."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (target / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "small_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

#!/usr/bin/env python3
"""Tiny-size self-check of the end-to-end load benchmark.

Runs every workload named in BENCHMARK.json at --size tiny, once untraced and
once traced, through e2ebench/run.py (so it builds first if needed), and
asserts that:
  - each run exits 0 and prints the environment header and, last, a result
    object with exactly correct/attempted/failed/metrics, correct and with no
    failures;
  - every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is printed with its declared unit, and end-to-end values
    are above zero;
  - hyperq.dml_statements on batch_dirty is identical across two traced runs
    at one seed;
  - metric_map.json maps exactly the per-layer metrics of BENCHMARK.json onto
    declared end-to-end metrics and workloads.

Run from the root of a checkout:  python3 e2ebench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise AssertionError("%s exited %d" % (where, done.returncode))
    lines = done.stdout.strip().splitlines()
    header = json.loads(lines[0])
    assert header["env"]["workload"] == workload, where + ": env header"
    for key in ("nproc", "cpu_model", "compiler", "build_type", "git_sha",
                "seed", "settings"):
        assert key in header["env"], "%s: env header lacks %s" % (where, key)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where + ": output check failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    return result["metrics"]


def check_metrics(where, printed, declared, positive):
    names = {m["name"] for m in declared}
    assert set(printed) == names, "%s: metrics %s, want %s" % (
        where, sorted(printed), sorted(names))
    for m in declared:
        got = printed[m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %r, want %r" % (
            where, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), where + ": " + m["name"]
        if positive:
            assert got["value"] > 0, "%s: %s is not > 0" % (where, m["name"])


def check_map(bench):
    layer_map = json.loads((HERE / "metric_map.json").read_text())["layers"]
    per_layer = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(layer_map) == per_layer, "metric_map.json layers differ"
    for name, entry in layer_map.items():
        for metric, on in entry["moves"].items():
            assert metric in e2e, "%s moves unknown %s" % (name, metric)
            assert set(on) <= workloads, name
        assert set(entry["flat"]) <= workloads, name


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_map(bench)
    dml = []
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(name + " trace 0", run(name, 0), bench["end_to_end"], True)
        traced = run(name, 1)
        check_metrics(name + " trace 1", traced, bench["per_layer"], False)
        if name == "batch_dirty":
            dml.append(traced["hyperq.dml_statements"]["value"])
            dml.append(run(name, 1)["hyperq.dml_statements"]["value"])
        print("ok", name, flush=True)
    assert len(dml) == 2 and dml[0] == dml[1], \
        "batch_dirty hyperq.dml_statements differs across runs: %s" % dml
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selfcheck FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py with short time budgets (the first run builds the
binary) and checks that
  * one seed gives identical inputs and output digest, another seed
    different inputs;
  * a traced run's spans are well formed: every parent exists and encloses
    its child, self times are not negative, and the spans of one request
    share its id;
  * the printed metric names and units are those of BENCHMARK.json;
  * the command fails, without printing a result, where only
    BENCHMARK.json and the benchmark's own files exist.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "work", "results")
TRACES = os.path.join(ROOT, ".bench_build", "work", "traces")


def run(workload, seed, trace=0, seconds=2, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)
    return proc


def result_file(workload, seed, trace):
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_digest(self):
        digests = []
        for seed in (7, 7, 8):
            proc = run("ward_stream", seed)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            r = result_file("ward_stream", seed, 0)
            digests.append((r["input_digest"], r["output_digest"]))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0][0], digests[2][0])


class TraceTest(unittest.TestCase):
    def check_trace(self, workload):
        proc = run(workload, 3, trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        with open(os.path.join(TRACES, workload + "-seed3-trace1.json")) as f:
            trace = json.load(f)
        spans = {s["id"]: s for s in trace["spans"]}
        self.assertTrue(spans)
        eps = 1e-3  # ms; rounding in the JSON
        for s in spans.values():
            self.assertGreaterEqual(s["end_ms"] + eps, s["start_ms"])
            self.assertGreaterEqual(s["self_ms"], -eps, s)
            if s["parent"] < 0:
                continue
            parent = spans.get(s["parent"])
            self.assertIsNotNone(parent, s)
            self.assertLessEqual(parent["start_ms"], s["start_ms"] + eps)
            if s["request"] >= 0:
                self.assertEqual(parent["request"], s["request"], s)
        return spans

    def test_request_spans_share_an_id(self):
        spans = self.check_trace("ward_stream")
        children = {}
        for s in spans.values():
            if s["name"] in ("serve.impute", "serve.submit"):
                children.setdefault(s["parent"], []).append(s)
        self.assertTrue(children)
        for parent, kids in children.items():
            self.assertEqual(spans[parent]["name"], "serve.request")
            self.assertEqual({k["request"] for k in kids},
                             {spans[parent]["request"]})

    def test_nested_layer_spans(self):
        spans = self.check_trace("ragged_shards")
        waits = [s for s in spans.values() if s["name"] == "data.next"]
        self.assertTrue(waits)
        for s in waits:
            self.assertEqual(spans[s["parent"]]["name"], "train.TrainStreamed")


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("ragged_shards", 5, trace=trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            printed = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(printed),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(printed["correct"])
            want = {m["name"]: m["unit"] for m in s[key]}
            got = {n: m["unit"] for n, m in printed["metrics"].items()}
            self.assertEqual(got, want)
            # What the binary measured itself carries the same units.
            measured = result_file("ragged_shards", 5, trace)[key]
            for name, m in measured.items():
                self.assertEqual(want.get(name), m["unit"], name)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("elda_cohort", 1, root=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        lines = proc.stdout.strip().splitlines()
        self.assertFalse(lines and lines[-1].startswith("{"), proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""The benchmark's own tests.

Run from the repository root (each test builds the benchmark on first use):
  python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, seconds=1, trace="0", extra=(), cwd=ROOT):
    """Runs perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def tagged(lines, tag):
    """The JSON payload of the `tag {...}` diagnostic line."""
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError(f"no '{tag}' line in output")


class BenchmarkDefinitionTest(unittest.TestCase):
    def test_metric_and_workload_names(self):
        doc = benchmark_json()
        names = [w["name"] for w in doc["workloads"]]
        names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_present(self):
        e2e = {m["name"]: m for m in benchmark_json()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")


class WorkloadOutputTest(unittest.TestCase):
    """Every metric in BENCHMARK.json is printed by every workload."""

    def check_workload(self, workload):
        doc = benchmark_json()
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run(workload, trace=trace)
            self.assertEqual(code, 0, f"{workload} --trace {trace}")
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], tagged(lines, "info"))
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in doc[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, f"{workload} --trace {trace}")
            for name in got:
                self.assertRegex(name, NAME_RE)
            if trace == "1":
                info = tagged(lines, "info")
                self.assertEqual(info["checksum"], info["traced_checksum"])

    def test_tcp_bulk(self):
        self.check_workload("tcp_bulk")

    def test_udp_flood(self):
        self.check_workload("udp_flood")

    def test_city_cohort(self):
        self.check_workload("city_cohort")

    def test_campaign_smoke(self):
        self.check_workload("campaign_smoke")


class DeterminismTest(unittest.TestCase):
    def test_seed_fixes_inputs_and_checksum(self):
        _, a = run("udp_flood", seed=7)
        _, b = run("udp_flood", seed=7)
        _, c = run("udp_flood", seed=8)
        self.assertEqual(tagged(a, "inputs"), tagged(b, "inputs"))
        self.assertEqual(tagged(a, "info")["checksum"],
                         tagged(b, "info")["checksum"])
        self.assertNotEqual(tagged(a, "inputs"), tagged(c, "inputs"))
        # The host gauge does the same fixed work in every run.
        self.assertEqual(tagged(a, "info")["gauge_digest"],
                         tagged(c, "info")["gauge_digest"])
        self.assertGreater(tagged(a, "info")["host_slowdown"], 0)


class SabotageTest(unittest.TestCase):
    """A broken checksum or invariant raises failed_frac, never aborts."""

    def check_sabotage(self, workload, kind):
        code, lines = run(workload, extra=("--sabotage", kind))
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(tagged(lines, "info")["failed_frac"], 0)
        e2e = {m["name"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(set(result["metrics"]), e2e)

    def test_broken_checksum(self):
        self.check_sabotage("tcp_bulk", "checksum")

    def test_broken_invariant(self):
        self.check_sabotage("udp_flood", "invariant")
        self.check_sabotage("city_cohort", "invariant")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        bare = tempfile.mkdtemp(dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("tcp_bulk", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

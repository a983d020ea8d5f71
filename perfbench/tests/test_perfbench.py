"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They check that every metric name is well formed and that BENCHMARK.json
and the perfbench metric tables agree, that every workload produces the
metrics listed for it, and that a short run of each workload passes its
output checks. The first test to run builds perfbench (about a minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics each workload must exercise (non-zero), and layers it
# must leave untouched (zero): the isolation each workload was chosen for.
ACTIVE = {
    "fleet_qos": [
        "serve.cluster.submit_us_p50", "serve.cluster.submit_us_p99",
        "serve.cluster.run_self_ms", "serve.cluster.rejected", "serve.work_us",
        "core.taskswitch.cache_hit_rate", "core.taskswitch.partial_reconfigs",
        "sim.timeline.pci.busy_ms", "sim.timeline.compute.util",
        "sim.timeline.transactions_total", "serve.ledger.records", "serve.model.p999_ms",
        "util.worker_pool.util_w0", "util.worker_pool.tasks_w0", "bench.self.submit_ms",
        "bench.self.drain_ms",
    ],
    "crate_supervised": [
        "serve.supervisor.ticks", "serve.supervisor.checkpoints",
        "serve.supervisor.tick_us_p50", "serve.supervisor.tick_us_p99",
        "serve.supervisor.checkpoint_ms", "sim.snapshot.bytes_per_job",
        "sim.snapshot.restore_ms", "sim.fault.events", "trt.work_us", "imgproc.work_us",
        "bench.self.work_ms", "bench.self.snapshot_ms",
    ],
    "gate_trt": [
        "chdl.trt.setup_ms", "chdl.trt.tape_ops", "chdl.trt.cycles",
        "chdl.trt.evals_per_cycle", "chdl.trt.changes_per_eval", "chdl.trt.cycles_per_s",
        "chdl.trt.job_us", "bench.self.work_ms",
    ],
    "gate_conv": [
        "chdl.conv.setup_ms", "chdl.conv.tape_ops", "chdl.conv.cycles",
        "chdl.conv.evals_per_cycle", "chdl.conv.changes_per_eval", "chdl.conv.cycles_per_s",
        "chdl.conv.job_us", "bench.self.work_ms",
    ],
}
IDLE = {
    "fleet_qos": ["serve.supervisor.ticks", "trt.work_us", "imgproc.work_us",
                  "chdl.trt.cycles", "chdl.conv.cycles", "sim.fault.events"],
    "crate_supervised": ["serve.cluster.submit_us_p50", "serve.work_us", "chdl.trt.cycles",
                         "chdl.conv.cycles"],
    "gate_trt": ["serve.cluster.submit_us_p50", "serve.supervisor.ticks", "trt.work_us",
                 "chdl.conv.cycles"],
    "gate_conv": ["serve.cluster.submit_us_p50", "serve.supervisor.ticks", "imgproc.work_us",
                  "chdl.trt.cycles"],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, seed=3):
    """Shortest run of a workload: --seconds 0 still runs its minimum passes."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


class MetricTables(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual(sorted(ACTIVE), sorted(w["name"] for w in spec["workloads"]))

    def test_source_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "perfbench", "main.cpp"), encoding="utf-8") as f:
            source = f.read()

        def table(name):
            body = source[source.index(name + "[] = {"):]
            return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body[:body.index("};")])

        spec = load_spec()
        self.assertEqual(table("kEndToEnd"),
                         [(m["name"], m["unit"]) for m in spec["end_to_end"]])
        self.assertEqual(table("kPerLayer"),
                         [(m["name"], m["unit"]) for m in spec["per_layer"]])


class ShortRuns(unittest.TestCase):
    def check_workload(self, workload):
        spec = load_spec()
        proc, result = run(workload, trace=0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in spec["end_to_end"]))
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

        proc, result = run(workload, trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in spec["per_layer"]))
        for name in ACTIVE[workload]:
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        for name in IDLE[workload]:
            self.assertEqual(result["metrics"][name]["value"], 0, name)
        trace_path = os.path.join(ROOT, ".bench_out", f"trace_{workload}.json")
        with open(trace_path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["ph"] == "X" for e in events))

    def test_fleet_qos(self):
        self.check_workload("fleet_qos")

    def test_crate_supervised(self):
        self.check_workload("crate_supervised")

    def test_gate_trt(self):
        self.check_workload("gate_trt")

    def test_gate_conv(self):
        self.check_workload("gate_conv")

    def test_fails_without_library_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gate_trt", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, check=False,
                env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

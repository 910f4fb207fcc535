#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py            # from the repository root

Short smoke runs of every workload (untraced and traced), the digest pins
at other thread counts, and two negative cases: a corrupted pinned digest
and an undelivered ticket must each fail the run. The first test builds
the benchmark if needed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
PINS = json.load(open(os.path.join(HERE, "pins.json")))
# Per-layer metrics each workload stresses: its traced run must measure
# them, so they read above zero. Bypassed layers read exactly zero.
STRESSED = {
    "sweep_smra_fleet": ["charz.chip_tasks", "charz.busy_pct",
                         "pud.measure_calls", "pud.measure_s",
                         "dram.resolve_charge_share_calls",
                         "dram.resolve_charge_share_s", "model.paper_err_pp"],
    "serve_batch": ["serve.submit_us_p50", "serve.pump_s", "serve.fuse_s",
                    "serve.execute_s", "serve.batches", "bender.run_s",
                    "bender.commands", "verify.gate_s", "verify.lint_s",
                    "verify.optimize_s"],
    "serve_open": ["serve.submit_us_p50", "serve.fuse_s", "serve.execute_s",
                   "serve.batches", "bender.run_s"],
}
BYPASSED = {
    "sweep_smra_fleet": ("bender.", "verify.", "serve.", "gen."),
    "serve_batch": ("charz.", "pud.", "model.", "gen."),
    "serve_open": ("charz.", "pud.", "model."),
}


def bench(*args):
    """Runs run.py; returns (exit code, last-line JSON, stdout)."""
    proc = subprocess.run(RUN + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


class Smoke(unittest.TestCase):
    def assert_ok(self, workload, trace, *extra):
        code, result, out = bench("--workload", workload, "--seconds", "1",
                                  "--trace", str(trace), *extra)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        if trace:
            for name in STRESSED[workload]:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
            for name, m in result["metrics"].items():
                if name.startswith(BYPASSED[workload]):
                    self.assertEqual(m["value"], 0, name)
        else:
            self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
        return out

    def test_sweep_smra_fleet(self):
        out = self.assert_ok("sweep_smra_fleet", 0)
        self.assertIn('"table": "%s"' % PINS["sweep_smra_fleet"]["0"]["table"],
                      out)

    def test_sweep_smra_fleet_traced(self):
        # The traced replica must reproduce the untraced table.
        self.assert_ok("sweep_smra_fleet", 1)

    def test_serve_batch(self):
        self.assert_ok("serve_batch", 0)

    def test_serve_batch_traced(self):
        self.assert_ok("serve_batch", 1)

    def test_serve_open(self):
        self.assert_ok("serve_open", 0)

    def test_serve_open_traced(self):
        self.assert_ok("serve_open", 1)

    def test_held_out_seed(self):
        seed = [s for s in PINS["serve_batch"] if s != "0"][0]
        self.assert_ok("serve_batch", 0, "--seed", seed)


class DigestsAtAnyThreadCount(unittest.TestCase):
    def test_serve_batch(self):
        for threads in ("1", "4"):
            code, result, out = bench("--workload", "serve_batch", "--seconds",
                                      "1", "--threads", threads)
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], threads)

    def test_sweep_smra_fleet(self):
        code, result, out = bench("--workload", "sweep_smra_fleet",
                                  "--seconds", "1", "--threads", "4")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])


class NegativeCases(unittest.TestCase):
    def test_corrupted_pin_fails(self):
        pins = json.loads(json.dumps(PINS))
        digest = pins["serve_batch"]["0"]["responses"]
        pins["serve_batch"]["0"]["responses"] = (
            ("0" if digest[0] != "0" else "1") + digest[1:])
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=HERE,
                                         delete=False) as f:
            json.dump(pins, f)
        try:
            code, result, out = bench("--workload", "serve_batch",
                                      "--seconds", "1", "--pins", f.name)
        finally:
            os.unlink(f.name)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("CHECK FAILED pinned.responses", out)

    def test_undelivered_ticket_fails(self):
        code, result, out = bench("--workload", "serve_open", "--seconds", "1",
                                  "--drop-ticket")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("exactly_once", out)

    def test_without_sources_fails(self):
        # A checkout holding only BENCHMARK.json and perfbench/ cannot build.
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            os.mkdir(os.path.join(bare, "perfbench"))
            for name in os.listdir(HERE):
                src = os.path.join(HERE, name)
                if os.path.isfile(src):
                    with open(src, "rb") as a, open(
                            os.path.join(bare, "perfbench", name), "wb") as b:
                        b.write(a.read())
            with open(os.path.join(bare, "BENCHMARK.json"), "w") as f:
                json.dump(SPEC, f)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_batch", "--seconds", "1"], cwd=bare,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

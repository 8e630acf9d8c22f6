"""Self-test of the benchmark: each workload at minimal length, traced.

    python3 bench/selftest.py        # about three minutes on two cores

Asserts that every metric named in BENCHMARK.json is printed with its unit,
that no request fails, that traced stdout equals untraced stdout for every
subcommand, that the traced layer self times plus ``interp.self_s`` account
for each traced request's wall time, and that without the program's
sources the benchmark exits non-zero and prints no result.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _printed(text: str, name: str, unit: str) -> bool:
    pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
    return re.search(pattern, text, re.MULTILINE) is not None


class BenchmarkSelfTest(unittest.TestCase):

    def test_spec_matches_the_harness(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_workloads_at_minimal_length(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    result, metrics = run.run_one(workload, seed=7, seconds=1, trace=True)
                text = buf.getvalue()

                for m in SPEC["end_to_end"] + SPEC["per_layer"]:
                    self.assertTrue(_printed(text, m["name"], m["unit"]), m["name"])
                for m in SPEC["per_layer"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertTrue(_printed(text, "failure_rate", "1"))

                self.assertEqual(result.failed, 0, result.failures)

                first_traced = {}
                for rec in result.traced:
                    first_traced.setdefault(result.requests[rec.index].command, rec)
                self.assertEqual(set(first_traced), {r.command for r in result.requests})
                for cmd, rec in first_traced.items():
                    self.assertEqual(rec.sha, result.sha_of[rec.index], cmd)

                for rec in result.traced:
                    layers = run.request_layers(rec, result.requests[rec.index].command)
                    accounted = sum(layers.get(f"{layer}.self_s", 0.0) for layer in
                                    ("import", "interp") + run.MODULE_LAYERS)
                    accounted += layers["trace.self_s"]
                    self.assertGreater(layers["interp.self_s"], 0.0)
                    self.assertAlmostEqual(accounted, rec.wall_s, delta=1e-6)

    def test_fails_without_the_program(self):
        bare = os.path.join(run.ROOT, run.WORK_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", workloads.WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

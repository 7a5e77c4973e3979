#!/usr/bin/env python3
"""Pins the benchmark's seeded generators:

- a seed reproduces the same request bytes;
- two seeds give different requests;
- cold-novel never repeats a core::networkSignature within a run;
- the cold in-process oracle answers every generated request ok
  (prepare aborts otherwise).

    python3 perfbench/test_generators.py

Builds mclp-perfbench first, as run.py does.
"""

import json
import os
import shutil
import subprocess
import tempfile
import unittest

import run

SECONDS = 2


def prepare(tool, workload, seed):
    """Run `prepare` in a fresh directory; return (summary, timed.txt)."""
    work = tempfile.mkdtemp(prefix="gen-", dir=os.path.join(run.ROOT, ".bench_run"))
    try:
        out = subprocess.run(
            [tool, "prepare", "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS)],
            cwd=work, check=True, stdout=subprocess.PIPE, text=True).stdout
        with open(os.path.join(work, "timed.txt")) as f:
            timed = f.read()
        return json.loads(out.splitlines()[-1]), timed
    finally:
        shutil.rmtree(work, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(run.ROOT, ".bench_run"), exist_ok=True)
        cls.tool = os.path.join(run.build(run.Deadline(900)), "mclp-perfbench")

    def test_seed_reproduces_bytes(self):
        for workload in run.WORKLOADS:
            first, first_timed = prepare(self.tool, workload, 7)
            again, again_timed = prepare(self.tool, workload, 7)
            self.assertEqual(first_timed, again_timed, workload)
            self.assertEqual(first["digest"], again["digest"], workload)

    def test_seeds_differ(self):
        for workload in run.WORKLOADS:
            a, a_timed = prepare(self.tool, workload, 7)
            b, b_timed = prepare(self.tool, workload, 8)
            self.assertNotEqual(a_timed, b_timed, workload)
            self.assertNotEqual(a["digest"], b["digest"], workload)

    def test_cold_novel_signatures_never_repeat(self):
        for seed in (1, 2, 3):
            summary, timed = prepare(self.tool, "cold-novel", seed)
            self.assertEqual(summary["signatures"], summary["timed"])
            self.assertEqual(len(timed.splitlines()), summary["timed"])

    def test_oracle_answers_every_request(self):
        # prepare exits non-zero when the oracle answers err.
        for workload in run.WORKLOADS:
            summary, _ = prepare(self.tool, workload, 11)
            self.assertGreater(summary["distinct"], 0, workload)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the qoesim benchmark runner.

    python3 perfbench/tests/test_perfbench.py

Builds the runner through perfbench/run.py on first use (see its --help),
then checks that counts repeat exactly across runs, that a perturbed
reference digest is reported as a failure, and that the metric names
printed match BENCHMARK.json. Takes about a minute once built.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that are counts (or ratios of counts): the simulation
# is deterministic for a seed, so these must repeat exactly. The rest are
# host times.
COUNTS = [
    "sim.events_fired", "sim.events_per_pkt", "sim.peak_pending",
    "sim.cancel_ratio", "queue.offered", "queue.drop_ratio", "queue.peak_pkts",
    "queue.allocs_per_pkt", "link.hops", "link.pool_slab_growths",
    "link.allocs_per_hop", "node.binds", "node.unbinds", "node.demux_rehashes",
    "tcp.flows_opened", "tcp.flow_peak_live", "tcp.hot_bytes_per_flow",
    "tcp.cold_allocs_per_flow", "qoe.probes_scored", "engine.shards_used",
    "engine.quantum_ms", "alloc.per_pkt", "alloc.bytes_per_pkt",
]


def run(workload, trace, seed=1, seconds=1, extra=()):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


class PerfbenchTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        first = run("backbone_churn", trace=1)[2]
        second = run("backbone_churn", trace=1)[2]
        for name in COUNTS:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        self.assertGreater(first["metrics"]["sim.events_fired"]["value"], 0)

    def test_perturbed_digest_is_a_failure(self):
        good = (BENCH_DIR / "references.txt").read_text().splitlines()
        bad = []
        for line in good:
            fields = line.split()
            if fields[:2] == ["access_bloat", "1"]:
                digest = fields[2]
                fields[2] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            bad.append(" ".join(fields))
        self.assertNotEqual(good, bad, "no access_bloat seed-1 reference")
        build_dir = ROOT / ".bench_build" / "perfbench"
        build_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         dir=build_dir) as ref:
            ref.write("\n".join(bad) + "\n")
            ref.flush()
            proc, _, result = run("access_bloat", trace=0,
                                  extra=["--references", ref.name])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        # The first cell fails on every pass, and nothing else does.
        self.assertEqual(result["failed"] * 48, result["attempted"])
        self.assertIn("!= reference", proc.stderr)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, lines, result = run("access_bloat", trace=trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            listed = {l.split()[1]: l.split()[3] for l in lines
                      if l.startswith("metric ")}
            self.assertEqual(listed, want)


if __name__ == "__main__":
    unittest.main()

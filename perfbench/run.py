"""Benchmark entry point for hilbtaut.

Run from the root of a source tree:

    python3 perfbench/run.py --workload deep_gamma --seed 1 --seconds 28 --trace 0

Every timed pass runs the workload's whole job list in a fresh interpreter
(perfbench/worker.py), one process at a time, importing hilbtaut from
./src.  `--trace 0` repeats untraced passes for about `--seconds` and
reports the end-to-end metrics; `--trace 1` runs one untraced pass and
then traced passes, and reports the per-layer metrics.  Every job's exact
result is checked outside the timed region (perfbench/gates.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every job was
exact.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench-out"  # spans and scratch files, under the tree's root
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
SETUP_ONLY_PASSES = 6  # extra set-up samples per untraced run
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def percentile(samples, q):
    """q-th percentile, interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it, or None."""
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    return q if q >= 1 else None


def speed(report):
    """Factor that turns a pass's raw seconds into calibrated seconds."""
    return calibrate.REFERENCE_S / statistics.median(report["calibration_s"])


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name == "repo.src_lines":
        return "lines"
    return "count"


def src_lines(root):
    total = 0
    for path in sorted((root / "src" / "hilbtaut").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


class Bench:
    """One workload at one seed: inputs on disk, passes in child processes."""

    def __init__(self, root, workload, seed, smoke=False):
        self.root = Path(root)
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.inputs = workloads.make_inputs(workload, seed, smoke)
        (self.root / OUT_DIR).mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=self.root / OUT_DIR))
        self.paths = {}
        for desc in self.inputs.get("descriptors", ()):
            path = self.work / (desc["name"] + ".ini")
            path.write_text(workloads.descriptor_text(desc))
            self.paths[desc["name"]] = str(path.relative_to(self.root))
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self._count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_pass(self, trace=False, setup_only=False, values=False, spans_path=None):
        """Run one pass in a fresh interpreter and return its report."""
        self._count += 1
        spec_path = self.work / ("spec-%d.json" % self._count)
        result_path = self.work / ("result-%d.json" % self._count)
        spec = {
            "workload": self.workload,
            "inputs": self.inputs,
            "paths": self.paths,
            "src": str(self.root / "src"),
            "result_path": str(result_path),
            "trace": trace,
            "setup_only": setup_only,
            "values": values,
            "spans_path": spans_path,
        }
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.root, env=self.env, stdout=sys.stderr, timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a pass ran longer than %d s" % PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("a pass exited with code %d" % proc.returncode)
        report = json.loads(result_path.read_text())
        spec_path.unlink()
        result_path.unlink()
        return report

    # -- checking ----------------------------------------------------------------------

    def reference(self, first):
        """Digests of the first pass's jobs whose results pass the exact gates."""
        import gates
        from worker import import_hilbtaut

        goldens = None
        if not self.smoke:
            with open(HERE / "goldens.json") as fh:
                goldens = json.load(fh).get(self.workload)
        values = {r["name"]: r["value"] for r in first["results"] if r["error"] is None}
        problems = gates.check(self.workload, self.inputs, values,
                               import_hilbtaut(str(self.root / "src")), goldens)
        ref = {}
        for r in first["results"]:
            problem = r["error"] or problems.get(r["name"])
            if problem:
                print("perfbench: job %s failed: %s" % (r["name"], problem.strip()),
                      file=sys.stderr)
            else:
                ref[r["name"]] = r["digest"]
        return ref

    @staticmethod
    def count_failed(passes, ref):
        return sum(
            1 for p in passes for r in p["results"]
            if r["error"] is not None or ref.get(r["name"]) != r.get("digest")
        )

    # -- the two modes --------------------------------------------------------------------

    def run_untraced(self, seconds):
        self.run_pass(setup_only=True)  # compiles bytecode; not a sample
        setup_passes = [self.run_pass(setup_only=True) for _ in range(SETUP_ONLY_PASSES)]
        start = time.perf_counter()
        passes, costs = [], []
        while True:
            t = time.perf_counter()
            passes.append(self.run_pass(values=not passes))
            costs.append(time.perf_counter() - t)
            spent = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and spent + statistics.median(costs) > seconds:
                break
        setups = [p["setup_s"] * speed(p) for p in setup_passes + passes]
        failed = self.count_failed(passes, self.reference(passes[0]))
        walls = [p["wall_s"] * speed(p) for p in passes]
        # one latency per job: its median over the passes, so that the
        # percentiles describe the job mix rather than one-off stalls
        latencies = [
            statistics.median(p["latencies_s"][i] * speed(p) for p in passes)
            for i in range(len(passes[0]["latencies_s"]))
        ]
        metrics = {
            "wall_s": statistics.median(walls),
            "job_p50_s": percentile(latencies, 50),
            "job_p90_s": percentile(latencies, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        attempted = sum(len(p["results"]) for p in passes)
        notes = {"wall_s": walls, "job latency (median over passes)": latencies, "setup_s": setups,
                 "raw wall_s": [p["wall_s"] for p in passes],
                 "raw setup_s": [p["setup_s"] for p in setup_passes + passes],
                 "speed": [speed(p) for p in setup_passes + passes]}
        return self.report(failed == 0, attempted, failed, metrics, END_TO_END, notes)

    def run_traced(self, seconds):
        self.run_pass(setup_only=True)
        start = time.perf_counter()
        base = self.run_pass(values=True)
        spans_path = self.root / OUT_DIR / ("spans-%s-seed%d.txt.gz" % (self.workload, self.seed))
        traced, costs = [], []
        while True:
            t = time.perf_counter()
            traced.append(self.run_pass(trace=True, spans_path=None if traced else str(spans_path)))
            costs.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(costs) > seconds:
                break
        passes = [base] + traced
        failed = self.count_failed(passes, self.reference(base))
        for p in traced:
            if p["missing_targets"]:
                print("perfbench: not traced (absent): %s" % ", ".join(p["missing_targets"]),
                      file=sys.stderr)
        layers = [
            {name: v * speed(p) if layer_unit(name) == "s" else v for name, v in p["layers"].items()}
            for p in traced
        ]
        counts_repeat = all(
            lay[name] == layers[0][name]
            for lay in layers for name in lay if layer_unit(name) != "s"
        )
        if not counts_repeat:
            print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)
        metrics = {
            name: statistics.median(lay[name] for lay in layers)
            for name in layers[0] if not name.startswith("trace.")
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] * speed(p) for p in traced
        ) / (base["wall_s"] * speed(base))
        metrics["repo.src_lines"] = src_lines(self.root)
        units = {name: layer_unit(name) for name in metrics}
        job_s = statistics.median(p["wall_s"] * speed(p) for p in traced)
        notes = {"traced job time (s)": [job_s],
                 "trace.probe_s": [lay["trace.probe_s"] for lay in layers]}
        attempted = sum(len(p["results"]) for p in passes)
        print("perfbench: spans written to %s" % spans_path.relative_to(self.root),
              file=sys.stderr)
        return self.report(failed == 0 and counts_repeat, attempted, failed, metrics, units,
                           notes)

    def report(self, correct, attempted, failed, metrics, units, notes):
        print("%s seed %d: %d of %d jobs failed (failed_frac %.4f)"
              % (self.workload, self.seed, failed, attempted, failed / attempted))
        for name, samples in notes.items():
            tail = tail_percentile(len(samples))
            extra = "" if tail is None else ", p%d %.6f" % (tail, percentile(samples, tail))
            print("  %s: n=%d, median %.6f%s" % (name, len(samples),
                                                  statistics.median(samples), extra))
        for name, value in metrics.items():
            print("  %-44s %14.6f %s" % (name, value, units[name]))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hilbtaut benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hilbtaut" / "__init__.py").is_file():
        print("perfbench: no hilbtaut sources under %s; run from the repository root"
              % (root / "src"), file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        run = bench.run_traced if args.trace else bench.run_untraced
        result = run(args.seconds)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        bench.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

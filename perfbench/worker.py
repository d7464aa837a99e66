"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the workload, its inputs, the source directory to import
hilbtaut from, the result file to write, and whether to trace.  The pass
times its set-up (import of hilbtaut plus construction of the workload's
families) and each job, times calibration slices between the jobs (see
calibrate.py), records peak resident memory after the last job, and only
then turns each result into canonical JSON for checking.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import pkgutil
import resource
import sys
import time
import traceback

import calibrate
import workloads

CAL_EVERY_S = 0.25  # job time between two calibration slices


def import_hilbtaut(src):
    """Import every hilbtaut module from `src`; refuse any other copy."""
    sys.path.insert(0, src)
    package = importlib.import_module("hilbtaut")
    where = os.path.realpath(os.path.dirname(package.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise ImportError("hilbtaut imported from %s, not from %s" % (where, src))
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module("hilbtaut." + info.name)
    return mods


def poly_data(poly):
    return sorted(([list(pair) for pair in mono], str(c)) for mono, c in poly.terms.items())


def canonical(value, mods):
    """JSON-able exact form of a job result."""
    if isinstance(value, mods["charpoly"].CharPoly):
        return {"poly": poly_data(value)}
    if isinstance(value, mods["tautmod"].TautClass):
        return {"class": mods["tautmod"].to_data(value)}
    if isinstance(value, mods["transfer"].PunctualClass):
        nodes = sorted(value.scroll)
        return {"punctual": {
            "m": value.m,
            "interior": str(value.interior),
            "scroll": {n: {str(i): str(c) for i, c in value.scroll[n].items()} for n in nodes},
            "section": {n: {str(i): str(c) for i, c in value.section[n].items()} for n in nodes},
        }}
    if isinstance(value, str):
        return {"text": value}
    raise TypeError("no canonical form for %r" % type(value).__name__)


def digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _slice():
    # the collector's cost depends on what the jobs left alive, not on the machine
    gc.disable()
    try:
        t = time.perf_counter()
        calibrate.work_slice()
        return time.perf_counter() - t
    finally:
        gc.enable()


def run(spec):
    clock = time.perf_counter
    t0 = clock()
    mods = import_hilbtaut(spec["src"])
    fams = workloads.setup(spec["workload"], spec["inputs"], mods)
    setup_s = clock() - t0
    calibrate.prepare()
    out = {"setup_s": setup_s}
    if spec.get("setup_only"):
        out["calibration_s"] = [_slice() for _ in range(4)][1:]  # the first one warms up
        return out

    job_list = workloads.jobs(spec["workload"], spec["inputs"], fams, mods, spec.get("paths"))
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install(mods)
    raw, latencies = [], []
    calibration = []
    since = CAL_EVERY_S
    for trace_id, (name, fn) in enumerate(job_list):
        if since >= CAL_EVERY_S:
            calibration.append(_slice())
            since = 0.0
        t = clock()
        try:
            value = tracer.run_job(trace_id, fn) if tracer else fn()
            error = None
        except Exception:
            value, error = None, traceback.format_exc(limit=4)
        latencies.append(clock() - t)
        since += latencies[-1]
        raw.append((name, value, error))
    calibration.append(_slice())
    out["calibration_s"] = calibration
    out["wall_s"] = sum(latencies)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["latencies_s"] = latencies
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["missing_targets"] = tracer.missing
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])

    results = []
    for name, value, error in raw:
        entry = {"name": name, "error": error}
        if error is None:
            try:
                data = canonical(value, mods)
                entry["digest"] = digest(data)
                if spec.get("values"):
                    entry["value"] = data
            except TypeError as exc:
                entry["error"] = str(exc)
        results.append(entry)
    out["results"] = results
    return out


def main(argv):
    with open(argv[1]) as fh:
        spec = json.load(fh)
    out = run(spec)
    with open(spec["result_path"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

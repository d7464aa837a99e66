"""Print the pinned digests of the fixed-input workloads (goldens.json).

Run from the repository root, at the commit whose exact results are pinned:

    python3 perfbench/pin_goldens.py > perfbench/goldens.json

The committed file was made at the seed commit; regenerating it from later
code would turn the golden gate into a self-comparison.
"""

import json
import sys
from pathlib import Path

from run import Bench


def main():
    out = {}
    for workload in ("deep_gamma", "flag_pushdown"):
        bench = Bench(Path.cwd(), workload, 0)
        try:
            report = bench.run_pass()
        finally:
            bench.close()
        for r in report["results"]:
            if r["error"] is not None:
                sys.exit("job %s failed:\n%s" % (r["name"], r["error"]))
        out[workload] = {r["name"]: r["digest"] for r in report["results"]}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

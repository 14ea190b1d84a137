#!/usr/bin/env python3
"""Checks that scripts/bench_diff.py reads a metric's direction from its key.

Feeds bench_diff a synthetic baseline/fresh pair in which every metric
halved: a halved higher-is-better key (`_ops_s`, `_ratio`) must warn, a
halved lower-is-better key (`_us`) must not. Exits non-zero on a mismatch.

Usage: bench_diff_test.py [path/to/bench_diff.py]
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = (sys.argv[1] if len(sys.argv) > 1 else
              os.path.join(HERE, "..", "scripts", "bench_diff.py"))


def main() -> int:
    base = {"mutation_ops_s": 100.0, "index_churn_ratio": 500.0,
            "pairing_us": 1000.0}
    fresh = {key: value / 2 for key, value in base.items()}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("base.json", base), ("fresh.json", fresh)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(data, f)
        run = subprocess.run([sys.executable, BENCH_DIFF, *paths],
                             capture_output=True, text=True, check=False)
    warned = {line.split()[2] for line in run.stderr.splitlines()
              if line.startswith("bench_diff: WARNING:")}
    expected = {"mutation_ops_s", "index_churn_ratio"}
    if run.returncode != 0 or warned != expected:
        print(f"bench_diff exited {run.returncode}; warned about "
              f"{sorted(warned)}, expected {sorted(expected)}\n"
              f"{run.stdout}{run.stderr}", file=sys.stderr)
        return 1
    print("bench_diff_test: halved _ops_s/_ratio warn, halved _us does not")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the per-ladder seconds and growth exponents of every kernel
ladder as a Markdown table, the format of the ROADMAP "Baseline" table.

    python3 bench/table.py --seed 1 --seconds 45

It runs ``run.py --workload kernels --trace 0`` once; a cell in the
seconds column is the median job latency at that size.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    args = parser.parse_args(argv)
    print("| ladder | sizes | seconds | growth |")
    print("|---|---|---|---|")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "kernels", "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("ladder "):
            row = json.loads(line[len("ladder "):])
            sizes = " / ".join(str(s) for s in row["sizes"])
            secs = " / ".join(f"{s:.3g}" for s in row["seconds"])
            print(f"| `{row['name']}` | {sizes} | {secs} "
                  f"| n^{row['growth']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

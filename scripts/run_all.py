#!/usr/bin/env python3
"""Reproduce every artifact: fig3/fig4/fig5 CSVs plus the oracle report.

Usage:
  python scripts/run_all.py [--config configs/default.yaml] [--out results] [--seed N]

Prints each verb's wall-clock and CPU seconds, then the line count of
``src/v2i_fairness``.  Stops at the first failing step and propagates its
exit code.
"""

import argparse
import sys
import time
from pathlib import Path

from v2i_fairness.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/default.yaml")
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    common = ["--config", args.config]
    if args.out is not None:
        common += ["--out", args.out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    for verb in ("validate-config", "fig4", "fig5", "fig3", "oracle"):
        print(f"\n=== {verb} ===")
        start, cpu_start = time.perf_counter(), time.process_time()
        code = cli_main([verb, *common])
        print(f"[{verb}] exit {code} in {time.perf_counter() - start:.1f}s "
              f"({time.process_time() - cpu_start:.1f} CPU s)")
        if code != 0:
            return code
    package = Path(__file__).resolve().parents[1] / "src" / "v2i_fairness"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in package.glob("*.py"))
    print(f"\nsrc/v2i_fairness: {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

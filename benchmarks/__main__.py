"""``python -m benchmarks <name> [--seed N] [--only S] [--json P]``: run
``bench_<name>.py`` from the checkout's root (``src`` goes on the path
here, once for every bench)."""

import argparse
import glob
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from benchmarks.bench_util import run_cli  # noqa: E402

NAMES = sorted(os.path.basename(path)[6:-3] for path in glob.glob(os.path.join(HERE, "bench_*.py")))
NAMES.remove("util")


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks", description="Run one bench.")
    parser.add_argument("name", choices=NAMES, help="bench_<name>.py")
    parser.add_argument("--seed", type=int, help="RNG seed threaded into the benches")
    parser.add_argument("--only", metavar="SUBSTR",
                        help="run only tests whose name contains SUBSTR")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the combined results document here")
    return run_cli(**vars(parser.parse_args()))


if __name__ == "__main__":
    sys.exit(main())

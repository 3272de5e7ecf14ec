"""One set-up measurement, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY

Times `import bentswimmer` plus writing every generated case of the
workload into DIRECTORY and validating each with `load_scenario` (which
builds waypoint splines and so imports scipy), and prints the seconds.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bentswimmer  # noqa: E402,F401
from bentswimmer.scenario import load_scenario  # noqa: E402

import cases  # noqa: E402


def main() -> None:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    for path in cases.write(cases.generate(workload, seed), directory):
        load_scenario(path)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()

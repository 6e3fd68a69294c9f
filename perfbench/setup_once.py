"""Time one benchmark set-up in this fresh process and print the seconds.

    python3 perfbench/setup_once.py --workload NAME --seed N

Set-up is `import softcontact`, building the workload's scene from its
config or generator, and the first forward_dynamics call. run.py starts this
several times and reports the speed-normalised median as setup_s.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    from workloads import build, load_package, module

    load_package(os.path.dirname(here))
    wl = build(args.workload, args.seed, os.path.dirname(here))
    module("dynamics").forward_dynamics(wl.scene, wl.state)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

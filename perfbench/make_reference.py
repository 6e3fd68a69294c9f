"""Write reference.json: the final rollout states the benchmark checks against.

    python3 perfbench/make_reference.py

Run it on the commit whose physics is the reference (it was produced from
the package as first benchmarked) and commit the file. It holds, for
stack_rollout and for every box-pile layout, the final q and v of one
rollout operation and its max penetration.
"""
import json
import os
import sys

from run import ROOT, pin_blas_threads


def final_state(wl) -> dict:
    from workloads import module

    result = module("dynamics").rollout(wl.scene, wl.state, wl.dt, wl.n_steps, "rk4", record_separation=True)
    final = result.states[-1]
    return {"q": final.q.tolist(), "v": final.v.tolist(), "max_penetration": result.max_penetration}


def main() -> int:
    pin_blas_threads()
    from workloads import PILE_LAYOUTS, REFERENCE_FILE, build, load_package

    load_package(ROOT)
    ref = {
        "stack_rollout": final_state(build("stack_rollout", 0, ROOT)),
        "box_pile_rollout": [final_state(build("box_pile_rollout", s, ROOT)) for s in range(PILE_LAYOUTS)],
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_FILE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: time from interpreter start to a workload's built state.

Run as ``python3 setup_probe.py <src dir> <workload> <spawn time>``, where
the spawn time is the parent's ``time.time()`` just before it started this
interpreter.  Measures the seconds from then until ``qpair`` is imported
and the workload's ``Session`` or ``Algebra`` is built, and prints that
time at the reference speed (see ``pace``; the speed is sampled every
``PERIOD_S`` while importing and building) followed by the wall time.
"""

import sys
import time

PERIOD_S = 0.01

if __name__ == "__main__":
    src, workload, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, src)
    from pace import Pacer

    with Pacer(PERIOD_S) as pace:
        from workloads import build_state

        build_state(workload)
    wall = time.time() - spawned
    print(repr((wall - pace.spent_s) * pace.speed), repr(wall))

"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py '<spec as JSON>'

Prints the CPU seconds of this process from just before `import airvote` to the moment the
first step could start (package import, data generation, partitioning,
model initialisation and the round-0 evaluation for training specs), so
work moved to import time or into set-up shows in `setup_s`.
"""

import json
import sys
import time

import run

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    run.pin_blas_threads()
    import numpy  # noqa: F401  (loaded before the clock starts)

    start = time.process_time()
    run.import_package()
    import workloads

    workloads.set_up(spec)
    print(time.process_time() - start)

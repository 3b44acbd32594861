"""Self-checks of the benchmark's own code; every benchmark run makes them.

    PYTHONPATH=src python3 perfbench/selfcheck.py

- the tbird-ingest generator writes the same bytes for one seed and other
  bytes for another seed;
- `tracing.grid_steps` matches a brute-force walk of the window grid.

run.py also checks, on every run, that the metric names it prints are
exactly those BENCHMARK.json declares.
"""

from __future__ import annotations

import sys

import tracing
import workloads

TINY = workloads.TbirdSpec(
    n_templates=12, n_anomaly_templates=2, n_dense_nodes=2, dense_lines=60,
    n_sparse_nodes=3, bursts_per_node=2, burst_lines=(3, 5), malformed_share=0.05,
)


def check_generator() -> list[str]:
    a, b, c = (workloads.tbird_lines(s, TINY) for s in (11, 11, 12))
    errors = []
    if a != b:
        errors.append("generator: same seed gave different lines")
    if a == c:
        errors.append("generator: different seeds gave the same lines")
    if a[1] < 1:
        errors.append("generator: tiny corpus has no malformed lines")
    return errors


def check_grid_steps() -> list[str]:
    errors = []
    for times, step in (([5], 3), ([0, 2, 9], 3), ([0, 9], 3), ([7, 7, 8], 1), ([3, 100], 60)):
        walked, start = 0, times[0]
        while start <= times[-1]:  # the walk build_windows makes
            walked += 1
            start += step
        if tracing.grid_steps(times, step) != walked:
            errors.append(f"grid_steps{times, step} = {tracing.grid_steps(times, step)}, "
                          f"walk gives {walked}")
    return errors


def run_all() -> list[str]:
    return check_generator() + check_grid_steps()


if __name__ == "__main__":
    problems = run_all()
    for p in problems:
        print(p, file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)

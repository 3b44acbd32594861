#!/usr/bin/env python3
"""flog benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout. It writes the workload's inputs
and config from --seed (untimed), then runs `pipeline.run_pipeline` at
that seed in two fresh interpreters (perfbench/child.py), checks every
run's artifacts, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 gives each interpreter half of S seconds to repeat untraced
runs in (at least one each) and reports the end-to-end metrics as
medians. --trace 1 makes one untraced and one traced run and reports the
per-layer metrics; `trace.overhead_s` is the difference of their wall
times. The line before the result records the environment (Python,
numpy/BLAS, nproc, thread variables, git commit).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_runs"

BUDGET_S = 170.0  # the whole run must end within 180 s
MIN_RUNS = 2  # two runs at one seed check reproducibility
SETUP_SAMPLES = 3
EXACT_ARTIFACTS = ("templates.tsv", "assignment.tsv", "ledger.txt", "model.ckpt")
THREAD_VARS = ("FLOG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Rep:
    """One pipeline run: its output directory and wall time, or why it failed."""

    def __init__(self, out: Path, wall_s: float | None = None, error: str | None = None,
                 layers: dict | None = None):
        self.out, self.wall_s, self.error, self.layers = out, wall_s, error, layers


def run_child(config: Path, seed: int, out: Path, deadline: float, seconds: float = 0.0,
              trace: bool = False, setup_only: bool = False) -> tuple[dict, list[Rep]]:
    """Start child.py; return its result and the pipeline runs it made."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
           "--seed", str(seed), "--out", str(out), "--result", str(result_path),
           "--seconds", repr(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = {k: v for k, v in os.environ.items() if k != "FLOG_THREADS"}  # 1 worker
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    try:
        with open(out / "child.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=ROOT, timeout=max(1.0, deadline - t0),
            )
    except subprocess.TimeoutExpired:
        return {}, [Rep(out, error="timed out")]
    if proc.returncode != 0:
        tail = (out / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return {}, [Rep(out, error=f"exit {proc.returncode}: {tail}")]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, [
        Rep(out / f"rep{k}", w, layers=result.get("layers")) for k, w in enumerate(result["wall_s"])
    ]


# -- correctness -------------------------------------------------------------


def last_round(out: Path) -> dict:
    with open(out / "rounds.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))[-1]


def fingerprint(out: Path) -> dict[str, str]:
    """Digests of the artifacts that must repeat; rounds.csv without wall_seconds."""
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in EXACT_ARTIFACTS}
    rounds = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
    masked = "\n".join(line.rsplit(",", 1)[0] for line in rounds)
    digests["rounds.csv"] = hashlib.sha256(masked.encode()).hexdigest()
    return digests


def check_rep(rep: Rep, workload: str, seed: int, prep) -> list[str]:
    """Failed checks of one pipeline run's artifacts."""
    from flog import accountant

    if rep.error:
        return [rep.error]
    problems = []
    ledger = dict(
        line.split("=", 1)
        for line in (rep.out / "ledger.txt").read_text(encoding="utf-8").splitlines()
    )
    rounds = prep.config["federated"]["rounds"]
    eps, _ = accountant.epsilon_for(
        prep.config["federated"]["noise_multiplier"], rounds, prep.config["privacy"]["delta"]
    )
    if int(ledger["rounds"]) != rounds or float(ledger["eps_rdp"]) != eps:
        problems.append(f"ledger eps_rdp={ledger['eps_rdp']} rounds={ledger['rounds']}, "
                        f"expected {eps!r} after {rounds} rounds")
    if workload == "synthetic-train" and seed == 4:
        final = last_round(rep.out)
        if float(final["f1"]) < 0.90 or float(final["roc_auc"]) < 0.95:
            problems.append(f"seed 4 below floor: f1={final['f1']} roc_auc={final['roc_auc']}")
    if workload == "tbird-ingest":
        with open(rep.out / "templates.tsv", encoding="utf-8") as fh:
            parsed = sum(int(row["count"]) for row in csv.DictReader(fh, delimiter="\t"))
        if parsed != prep.n_lines - prep.n_malformed:
            problems.append(f"{parsed} lines parsed, expected "
                            f"{prep.n_lines} - {prep.n_malformed} malformed")
        if rep.layers and rep.layers["datasets.malformed_lines"] != prep.n_malformed:
            problems.append(f"traced {rep.layers['datasets.malformed_lines']} malformed lines, "
                            f"generator wrote {prep.n_malformed}")
    return problems


def check_all(reps: list[Rep], workload: str, seed: int, prep) -> list[list[str]]:
    """Per-run failures, including disagreement with the first finished run."""
    problems = [check_rep(r, workload, seed, prep) for r in reps]
    finished = [i for i, r in enumerate(reps) if r.error is None]
    if len(finished) < MIN_RUNS:
        problems[-1].append(f"only {len(finished)} finished run(s); reproducibility unchecked")
        return problems
    reference = fingerprint(reps[finished[0]].out)
    for i in finished[1:]:
        differ = [n for n, d in fingerprint(reps[i].out).items() if reference[n] != d]
        if differ:
            problems[i].append(f"artifacts differ from the first run at the same seed: {differ}")
    return problems


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def declared_units(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[mode]}


# -- main ------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + BUDGET_S

    if not (ROOT / "src" / "flog" / "__init__.py").is_file():
        print(f"no flog sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import selfcheck
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    prep = workloads.prepare(args.workload, args.seed, ROOT, work)
    bench_errors = selfcheck.run_all()

    def child(name: str, **kw) -> tuple[dict, list[Rep]]:
        return run_child(prep.config_path, args.seed, work / name, deadline, **kw)

    # Two interpreters, so reproducibility is checked across processes.
    if args.trace:
        results, rep_lists = zip(child("proc0"), child("proc1", trace=True))
    else:
        t_measure = time.monotonic()
        first = child("proc0", seconds=args.seconds / 2)
        second = child("proc1", seconds=args.seconds - (time.monotonic() - t_measure))
        results, rep_lists = zip(first, second)
    reps = [r for rl in rep_lists for r in rl]
    problems = check_all(reps, args.workload, args.seed, prep)
    failed = sum(1 for p in problems if p)
    for rep, p in zip(reps, problems):
        for msg in p:
            print(f"{rep.out.relative_to(work)}: {msg}", file=sys.stderr)
    walls = [r.wall_s for r in reps if r.error is None]
    if not (all(results) if args.trace else walls):
        print("no finished run to measure; no metrics to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(reps[1].layers)
        metrics["metrics.final_roc_auc"] = float(last_round(reps[1].out)["roc_auc"])
        metrics["trace.overhead_s"] = reps[1].wall_s - reps[0].wall_s
        units = declared_units("per_layer")
    else:
        setups = [r["setup_s"] for r in results if r]
        while len(setups) < SETUP_SAMPLES and deadline - time.monotonic() > 15:
            probe, _ = child(f"setup{len(setups)}", setup_only=True)
            if not probe:
                bench_errors.append("set-up probe failed")
                break
            setups.append(probe["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "lines_per_s": statistics.median(prep.n_lines / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results if r),
        }
        units = declared_units("end_to_end")
    emitted = {name: units.get(name) for name in metrics}
    if emitted != units:
        bench_errors.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for msg in bench_errors:
        print(f"benchmark self-check: {msg}", file=sys.stderr)

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name)}")
    print(json.dumps({"env": environment(), "walls": [r.wall_s for r in reps],
                      "elapsed_s": time.monotonic() - start}))
    print(json.dumps({
        "correct": failed == 0 and not bench_errors,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units.get(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""`flog train` pipeline runs in one fresh interpreter.

    python3 perfbench/child.py --config C --seed N --out DIR --t0 T --result R.json
        [--seconds S] [--trace] [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import flog` and config
load. The pipeline then runs into DIR/rep0, DIR/rep1, ... for about S
seconds: it starts no run that would end later, and makes at least one.
With `--trace` it runs once, traced (spans go to DIR/rep0/spans.jsonl),
and the `model.train_us_per_sample` grid is timed afterwards, untraced.
"""

from __future__ import annotations

import argparse
import time

ap = argparse.ArgumentParser()
ap.add_argument("--config", required=True)
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--out", required=True)
ap.add_argument("--t0", type=float, required=True)
ap.add_argument("--result", required=True)
ap.add_argument("--seconds", type=float, default=0.0)
ap.add_argument("--trace", action="store_true")
ap.add_argument("--setup-only", action="store_true")

GRID_T = (8, 16, 64)  # sequence lengths of the model.train_us_per_sample grid
GRID_B = (1, 8, 64)  # batch sizes


def train_grid(cfg, n_templates: int, seed: int, n_samples: int = 128, repeats: int = 3):
    """Median µs/sample of `federated.local_train` on fixed-length client sets."""
    import dataclasses
    import statistics

    import numpy as np

    from flog import federated, model as model_ops
    from flog.partition import ClientDataset
    from flog.windows import WindowSequence

    mcfg = model_ops.ModelConfig(
        vocab_size=n_templates + model_ops.N_RESERVED,
        hidden_dim=cfg.model.hidden_dim, head_dim=cfg.model.head_dim,
        n_heads=cfg.model.n_heads, n_layers=cfg.model.n_layers,
        lora_rank=cfg.model.lora_rank, lora_alpha=cfg.model.lora_alpha,
        lora_dropout=cfg.model.lora_dropout,
        max_sequence_length=cfg.window.max_sequence_length, ffn_dim=cfg.model.ffn_dim,
    )
    state = model_ops.init(mcfg, [seed, 10])
    flat = state.get_trainable()
    rng = np.random.default_rng([seed, 0x6A1D])
    out = {}
    for t in GRID_T:
        keys = rng.integers(0, n_templates, size=(n_samples, t))
        client = ClientDataset(0, [
            WindowSequence("grid", i, tuple(int(k) for k in row), i % 2)
            for i, row in enumerate(keys)
        ])
        for b in GRID_B:
            fcfg = dataclasses.replace(
                cfg.federated, batch_size=b, local_epochs=1, grad_accum_steps=1, seed=seed
            )
            times = []
            for r in range(repeats):
                t0 = time.perf_counter()
                federated.local_train(client, state, flat, fcfg, np.random.default_rng([seed, r]))
                times.append(time.perf_counter() - t0)
            out[f"model.train_us_per_sample.T{t}.B{b}"] = 1e6 * statistics.median(times) / n_samples
    return out


def main() -> None:
    args = ap.parse_args()
    import dataclasses
    import resource

    from flog import pipeline
    from flog.config import load_config

    cfg = load_config(args.config)
    result = {"setup_s": time.monotonic() - args.t0, "wall_s": []}

    def run_once() -> None:
        out = f"{args.out}/rep{len(result['wall_s'])}"
        t0 = time.perf_counter()
        pipeline.run_pipeline(dataclasses.replace(cfg, output_dir=out), args.seed)
        result["wall_s"].append(time.perf_counter() - t0)
        if "peak_rss_mb" not in result:  # the peak of one run, as `flog train` has it
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
        run_once()
        tracer.uninstall()
        tracer.write(f"{args.out}/rep0/spans.jsonl")
        result["layers"] = tracer.layer_metrics()
        result["layers"].update(train_grid(cfg, int(result["layers"]["drain.templates"]), args.seed))
    elif not args.setup_only:
        # Start another run only if it should end within the time given.
        t_start = time.monotonic()
        run_once()
        while time.monotonic() - t_start + result["wall_s"][-1] <= args.seconds:
            run_once()
    _write(args.result, result)


def _write(path, result: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

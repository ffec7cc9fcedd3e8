"""Paired A/B timing of two source trees, in short interleaved units.

Run from the root of a checkout:

    python3 tools/ab.py                  # the working tree against HEAD
    python3 tools/ab.py --base HEAD~1    # against another revision
    python3 tools/ab.py --aa             # the working tree on both sides

The base revision is checked out into a temporary `git worktree`, removed
on exit. One long-lived worker process per side imports that tree's
`bankcast` and builds the same seeded inputs once: the 30-region,
1200-window acceptance city, its held-out regions and a model trained for
two epochs (with retrieval, or graph-only with `--arm graph`). The workers
then take turns at both units, in ABBA order (base first on even pairs,
change first on odd pairs), 10 pairs in each of 10 blocks that each start
fresh workers:

- `forecast`: one `predict_city` pass over the test split, held-out regions
  masked;
- `epoch`: one training epoch from a fresh model (key refresh, batches,
  validation).

For each unit and clock (wall time and `process_time`), it reports the
median over all pairs of log(change / base) as a relative change, with a
bootstrap 95 % interval of that median that resamples blocks, then pairs
within them. For each side it reports `peak_rss_mb`, the median over blocks
of the worker's peak resident set size (set-up and both units included).
It prints the report as one JSON object; the pairs go to stderr as they
run. An A/A run (`--aa`) shows the noise floor: its interval
should contain 0. The blocks and pairs are fixed, because that is the
configuration whose A/A intervals were checked: 10 blocks of 10 pairs kept
both units' intervals inside +-5 %, fewer did not.

It is evidence, not a gate. BLAS runs on one thread in each worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

# numpy is imported inside functions: a worker must set its BLAS thread
# count before the import
ROOT = Path(__file__).resolve().parent.parent
UNITS = ("forecast", "epoch")
CLOCKS = ("wall", "cpu")
BLOCKS = 10
PAIRS = 10


# ---------------------------------------------------------------------------
# the worker: one tree's bankcast, one set of inputs, one unit per request


def worker(src: str, seed: int, arm: str) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    from bankcast.data import SyntheticSpec, generate_synthetic_city, make_windows, split_windows
    from bankcast.evaluation import choose_holdout, predict_city
    from bankcast.model import Model, ModelConfig
    from bankcast.training import TrainConfig, train

    city = generate_synthetic_city(SyntheticSpec(t_total=1200 + 24 + 24 - 1, seed=seed))
    holdout = choose_holdout(city.n_regions, 10, seed)
    observable = [i for i in range(city.n_regions) if i not in set(holdout)]
    train_windows, val_windows, test_windows = split_windows(make_windows(city))
    model_config = ModelConfig(d_c=city.d_c, retrieval_enabled=arm == "retrieval")
    trained = Model(model_config, seed=seed)
    bank = train(
        trained, city, observable, train_windows, val_windows, TrainConfig(epochs=2, patience=0, seed=seed)
    ).bank
    one_epoch = TrainConfig(epochs=1, patience=0, seed=seed)

    units = {
        "forecast": lambda: predict_city(
            trained, city, test_windows, holdout, bank, one_epoch, collect_priors=True
        ),
        "epoch": lambda: train(
            Model(model_config, seed=seed), city, observable, train_windows, val_windows, one_epoch
        ),
    }
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        unit = line.strip()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        units[unit]()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(json.dumps({"wall": wall, "cpu": cpu, "peak_rss_mb": peak_mb}), flush=True)
    return 0


class Worker:
    def __init__(self, tree: Path, seed: int, arm: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree / "src"),
             "--seed", str(seed), "--arm", arm],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab: a worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, unit: str) -> dict:
        self.proc.stdin.write(unit + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# statistics


def summary(log_ratios: list[list[float]], n_boot: int, seed: int) -> dict:
    """Median log ratio over every pair, as a relative change, with a
    bootstrap 95 % interval that resamples blocks, then pairs within them."""
    import numpy as np

    rng = np.random.default_rng(seed)
    blocks = [np.asarray(x) for x in log_ratios]
    pooled = np.concatenate(blocks)
    boot = np.empty(n_boot)
    for i in range(n_boot):
        picked = [blocks[j] for j in rng.integers(0, len(blocks), size=len(blocks))]
        boot[i] = np.median(np.concatenate([x[rng.integers(0, x.size, size=x.size)] for x in picked]))
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {
        "median_rel": float(np.expm1(np.median(pooled))),
        "ci95_rel": [float(np.expm1(lo)), float(np.expm1(hi))],
        "change_faster": int((pooled < 0).sum()),
    }


# ---------------------------------------------------------------------------
# the orchestrator


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True)
    return done.stdout.strip()


@contextmanager
def checkout(rev: str | None):
    """The working tree when `rev` is None, else a temporary worktree of `rev`."""
    if rev is None:
        yield ROOT
        return
    tmp = Path(tempfile.mkdtemp(prefix="ab-")) / "tree"
    git("worktree", "add", "--detach", str(tmp), rev)
    try:
        yield tmp
    finally:
        git("worktree", "remove", "--force", str(tmp))
        tmp.parent.rmdir()


def compare(base_tree: Path, change_tree: Path, seed: int, arm: str) -> dict:
    """Time PAIRS ABBA pairs of each unit in each of BLOCKS blocks,
    each with a fresh worker per side: a process's memory layout can make
    it a few per cent faster or slower for its whole life, so blocks
    turn that bias into spread that the interval shows. Each side's
    `peak_rss_mb` is the median over blocks of its worker's peak."""
    import numpy as np

    times = {unit: {side: {c: [] for c in CLOCKS} for side in ("base", "change")} for unit in UNITS}
    peak_rss = {"base": [], "change": []}  # per block: the worker's last reply, its peak so far
    for block in range(BLOCKS):
        sides = {"base": Worker(base_tree, seed, arm), "change": Worker(change_tree, seed, arm)}
        for unit in UNITS:
            for side in times[unit].values():
                for c in CLOCKS:
                    side[c].append([])
        last_peak = {}
        try:
            for unit in UNITS:  # one unit each, not timed: caches and allocator warm-up
                for w in sides.values():
                    w.run(unit)
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for unit in UNITS:
                    for side in order:
                        t = sides[side].run(unit)
                        for c in CLOCKS:
                            times[unit][side][c][-1].append(t[c])
                        last_peak[side] = t["peak_rss_mb"]
                    b, c = times[unit]["base"]["wall"][-1][-1], times[unit]["change"]["wall"][-1][-1]
                    print(f"block {block}  pair {i:>3}  {unit:<8}  base {b:.4f} s  change {c:.4f} s  "
                          f"ratio {c / b:.3f}", file=sys.stderr)
        finally:
            for w in sides.values():
                w.close()
        for side, peak in last_peak.items():
            peak_rss[side].append(peak)
    report = {}
    for unit in UNITS:
        report[unit] = {}
        for c in CLOCKS:
            base, change = (times[unit][side][c] for side in ("base", "change"))
            report[unit][c] = {
                "base_median_s": float(np.median(base)),
                "change_median_s": float(np.median(change)),
                **summary([np.log(np.divide(ch, b)) for b, ch in zip(base, change)], 2000, seed),
            }
    peak_rss_mb = {side: float(np.median(peaks)) for side, peaks in peak_rss.items()}
    return {"peak_rss_mb": peak_rss_mb, "units": report}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    ap.add_argument("--aa", action="store_true", help="run the working tree on both sides")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--arm", choices=("retrieval", "graph"), default="retrieval",
                    help="the model the units use: with retrieval, or graph-only")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args.worker, args.seed, args.arm)

    base = None if args.aa else git("rev-parse", args.base)
    header = {
        "blocks": BLOCKS,
        "pairs_per_block": PAIRS,
        "seed": args.seed,
        "arm": args.arm,
        "order": "ABBA: base first on even pairs",
        "base": base or "working tree",
        "change": "working tree",
    }
    with checkout(base) as base_tree:
        report = compare(base_tree, ROOT, args.seed, args.arm)
    print(json.dumps({**header, **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

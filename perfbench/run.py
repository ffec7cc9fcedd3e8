"""Benchmark of bankcast: cold-start training, a graph-only control, large-bank serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coldstart-train --seed 1 --seconds 50 --trace 0

It builds its inputs from `--seed`, runs whole protocol rounds for
`--seconds`, checks the outputs, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they are
the per-layer ones, from spans recorded around the calls into each layer.
Details of the run (machine, per-round timings, check results) go to
`perfbench/out/`. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys

# One process; BLAS pinned to one thread (at most nproc) so that the load and
# the timings do not depend on thread scheduling. Must precede numpy's import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import bankcast from this checkout's sources, never from anywhere else."""
    if not (SRC / "bankcast" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bankcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bankcast

    if Path(bankcast.__file__).resolve().parent != (SRC / "bankcast").resolve():
        raise SystemExit(f"perfbench: bankcast imported from {bankcast.__file__}, not {SRC}")
    return bankcast


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": BLAS_THREADS,
        },
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("coldstart-train", "coldstart-graph", "transfer-serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    p.add_argument("--out", default=str(HERE / "out"), help="directory for results and traces")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"tmp-{stem}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    env = environment()
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, workloads.SIZES[args.size], workdir, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = workloads.end_to_end(outcome)
    else:
        # median traced round against the median untraced one, as the end-to-end metrics take medians
        untraced = median(outcome.reference_protocol_s)
        overhead = median(t["protocol_s"] for t in outcome.rounds) - untraced
        metrics = tracing.layer_metrics(tracer, len(outcome.rounds), overhead, untraced)
        tracer.write(out_dir / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed, **env})

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": 0,  # a failing operation raises and ends the run without a result
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "checks": outcome.checks,
        "rounds": outcome.rounds,
        "reference_protocol_s": outcome.reference_protocol_s,
        "result": result,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=2))

    print(f"# {args.workload} seed {args.seed}: {len(outcome.rounds)} rounds, "
          f"git {env['git_sha'][:12]}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']['name']} "
          f"{env['blas']['version']} x{BLAS_THREADS} thread")
    for name, verdict in outcome.checks.items():
        print(f"# check {name}: {verdict}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

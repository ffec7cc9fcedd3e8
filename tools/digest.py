"""Reproducibility digest: two training epochs on the acceptance city, per arm.

Run from the root of a checkout:

    python3 tools/digest.py

For each arm (retrieval, and graph-only), it trains the 30-region, 1200-window
acceptance city for 2 epochs with seed 1 and holdout seed 1, forecasts the
first 50 test windows with the held-out regions masked, and prints SHA-256
digests of:

- `state`: the state dict, by sorted name, each name's bytes then its values;
- `keys`: the bank's keys after training (the graph-only arm has no bank);
- `forecasts`: the 50 forecasts;
- `state+forecasts`: the state dict then the forecasts, the digest that
  changes record (`a4787c12…` for the retrieval arm, since its prior reads
  the selection's GEMM scores);
- `all`: the state dict, the keys and the forecasts.

A change that must keep every value bit for bit prints the same lines as its
parent commit. BLAS runs on one thread, so the lines do not depend on the
machine's core count.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bankcast.data import SyntheticSpec, generate_synthetic_city, make_windows, split_windows  # noqa: E402
from bankcast.evaluation import choose_holdout, predict_city  # noqa: E402
from bankcast.model import Model, ModelConfig  # noqa: E402
from bankcast.training import TrainConfig, train  # noqa: E402

SEED = 1
N_FORECASTS = 50


def arm_digests(retrieval_enabled: bool) -> dict[str, str]:
    city = generate_synthetic_city(SyntheticSpec(t_total=1200 + 24 + 24 - 1, seed=SEED))
    holdout = choose_holdout(city.n_regions, 10, SEED)
    observable = [i for i in range(city.n_regions) if i not in set(holdout)]
    train_windows, val_windows, test_windows = split_windows(make_windows(city))
    config = TrainConfig(epochs=2, patience=0, seed=SEED)
    model = Model(ModelConfig(d_c=city.d_c, retrieval_enabled=retrieval_enabled), seed=SEED)
    result = train(model, city, observable, train_windows, val_windows, config)
    preds, _, _ = predict_city(model, city, test_windows[:N_FORECASTS], holdout, result.bank, config)

    state = model.store.state_dict()
    parts = {
        "state": b"".join(name.encode() + state[name].tobytes() for name in sorted(state)),
        "keys": b"" if result.bank is None else result.bank.keys.tobytes(),
        "forecasts": preds.tobytes(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in parts.items()}
    digests["state+forecasts"] = hashlib.sha256(parts["state"] + parts["forecasts"]).hexdigest()
    digests["all"] = hashlib.sha256(b"".join(parts.values())).hexdigest()
    return digests


def main() -> int:
    for arm, retrieval_enabled in (("retrieval", True), ("graph-only", False)):
        for name, digest in arm_digests(retrieval_enabled).items():
            print(f"{arm:<10}  {name:<15}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

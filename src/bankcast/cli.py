"""Command-line entry point for reproducible experiments.

One JSON config document drives everything; `--set key=value` overrides
scalar fields with dotted paths. Every run directory receives a frozen copy of
the resolved config, and every artifact embeds the config hash it was produced
from. Exit codes: 0 success, 2 config error, 3 data error, 4 numeric
divergence, 5 artifact-version mismatch.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

from .data import (
    SyntheticSpec,
    generate_synthetic_city,
    load_city,
    make_windows,
    save_city,
    split_windows,
)
from .errors import (
    BankcastError,
    ConfigError,
    DataError,
    DivergenceError,
    VersionMismatchError,
)
from .evaluation import (
    EvalReport,
    ProtocolRun,
    choose_holdout,
    run_ablation_lret,
    run_coldstart,
    run_transfer,
    train_for_protocol,
    write_curves_csv,
)
from .gradcheck import grad_check, toy_objective
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .retrieval import load_bank, save_bank
from .training import TrainConfig, TrainResult, write_log_csv

DEFAULT_CONFIG: dict = {
    "protocol": "coldstart",
    "seeds": [1, 2, 3],
    "n_holdout": 10,
    "window": 24,
    "horizon": 24,
    "split_ratios": [0.6, 0.2, 0.2],
    "paths": {
        "dataset": "runs/source.json",
        "dataset_target": "runs/target.json",
        "checkpoint": "runs/checkpoint.bin",
        "bank": "runs/bank.bin",
        "report_dir": "runs",
    },
    "synthetic": {
        "n_regions": 30,
        "d_c": 16,
        "n_archetypes": 4,
        "t_total": 4281,
        "noise_scale": 0.3,
        "seed": 1,
        "scale_range": [8.0, 20.0],
        "target_seed": 101,
    },
    "model": {
        "d_g": 32,
        "d_z": 32,
        "hidden": 64,
        "head_blocks": 3,
        "gcn_layers": 1,
        "d_r": 128,
        "d_h": 8,
        "d_ec": 64,
        "d_ex": 64,
        "psi_hidden": 128,
        "retrieval_enabled": True,
        "stop_key_grad": False,
    },
    "train": {
        "epochs": 100,
        "batch_size": 16,
        "learning_rate": 1e-3,
        "lambda_ret": 0.2,
        "k": 8,
        "temperature": 0.1,
        "n_inactive_per_batch": 6,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "clip_norm": 5.0,
        "patience": 10,
        "supervise_inactive": True,
    },
}

PROTOCOLS = ("coldstart", "transfer", "ablation")


# ---------------------------------------------------------------------------
# config plumbing


def _check(value, reference, name: str = "") -> None:
    """Reject keys the defaults lack and values of another JSON type than
    their default (an integer stands for a float, a boolean for nothing else);
    list items take the type of the default's first item."""
    if type(value) is not type(reference) and (type(reference), type(value)) != (float, int):
        kind = type(reference).__name__
        raise ConfigError(f"config value {name} must be of type {kind}, got {value!r}")
    if isinstance(reference, dict):
        for key, item in value.items():
            path = f"{name}.{key}" if name else key
            if key not in reference:
                raise ConfigError(f"unknown config key: {path}")
            _check(item, reference[key], path)
    elif isinstance(reference, list) and reference:
        for i, item in enumerate(value):
            _check(item, reference[0], f"{name}[{i}]")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    doc = {}
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {config_path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {config_path}: the top level must be of type dict, got {doc!r}")
    config = _merge(DEFAULT_CONFIG, doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        node = config
        parts = dotted.split(".")
        probe = DEFAULT_CONFIG
        for p in parts[:-1]:
            if not isinstance(probe, dict) or p not in probe:
                raise ConfigError(f"unknown config key: {dotted}")
            probe, node = probe[p], node[p]
            if not isinstance(node, dict):  # the file or an earlier --set put a non-object here
                raise ConfigError(f"config value {p} must be of type dict to take {dotted}, got {node!r}")
        if not isinstance(probe, dict) or parts[-1] not in probe:
            raise ConfigError(f"unknown config key: {dotted}")
        node[parts[-1]] = value
    _check(config, DEFAULT_CONFIG)
    if config["protocol"] not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {config['protocol']!r}")
    if not config["seeds"]:
        raise ConfigError("seeds list must not be empty")
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def freeze_config(config: dict, report_dir: Path) -> str:
    report_dir.mkdir(parents=True, exist_ok=True)
    h = config_hash(config)
    doc = dict(config)
    doc["config_hash"] = h
    (report_dir / "config.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    return h


def synthetic_spec(config: dict, seed_override: int | None = None) -> SyntheticSpec:
    s = config["synthetic"]
    return SyntheticSpec(
        n_regions=s["n_regions"],
        d_c=s["d_c"],
        n_archetypes=s["n_archetypes"],
        t_total=s["t_total"],
        noise_scale=s["noise_scale"],
        seed=s["seed"] if seed_override is None else seed_override,
        scale_range=tuple(s["scale_range"]),
    )


def model_config(config: dict, d_c: int) -> ModelConfig:
    m = config["model"]
    return ModelConfig(d_c=d_c, window=config["window"], horizon=config["horizon"], **m)


def train_config(config: dict, seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **config["train"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(config: dict) -> int:
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    spec = synthetic_spec(config)
    city = generate_synthetic_city(spec, name="source")
    Path(paths["dataset"]).parent.mkdir(parents=True, exist_ok=True)
    save_city(city, paths["dataset"], config_hash=h)
    windows = make_windows(city, config["window"], config["horizon"])
    tr, va, te = split_windows(windows, tuple(config["split_ratios"]))
    print(f"wrote {paths['dataset']}: {city.n_regions} regions, {city.t_total} intervals")
    print(f"windows {len(windows)} -> train/val/test {len(tr)}/{len(va)}/{len(te)}")
    if config["protocol"] in ("transfer", "ablation"):
        target = generate_synthetic_city(
            synthetic_spec(config, seed_override=config["synthetic"]["target_seed"]),
            name="target",
        )
        save_city(target, paths["dataset_target"], config_hash=h)
        print(f"wrote {paths['dataset_target']}: {target.n_regions} regions")
    return 0


def cmd_train(config: dict, dry_run: bool = False) -> int:
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    city = load_city(paths["dataset"])
    mc = model_config(config, city.d_c)
    tc = train_config(config, seed=config["seeds"][0])
    if dry_run:
        model = Model(mc, seed=tc.seed)
        tc.validate()
        print(f"dry run ok: {model.store.n_coords()} parameters over {len(model.store)} arrays")
        return 0
    run = train_for_protocol(
        city,
        tc,
        mc,
        n_holdout=config["n_holdout"],
        ratios=tuple(config["split_ratios"]),
        window=config["window"],
        horizon=config["horizon"],
    )
    save_checkpoint(run.model, paths["checkpoint"], config_hash=h)
    written = [paths["checkpoint"]]
    if run.bank is not None:
        save_bank(run.bank, paths["bank"], config_hash=h)
        written.append(paths["bank"])
    write_log_csv(run.train_result.log_rows, report_dir / "training_log.csv", config_hash=h)
    written.append(str(report_dir / "training_log.csv"))
    print(
        f"trained seed {tc.seed}: best epoch {run.train_result.best_epoch}, "
        f"val MAE {run.train_result.best_val_mae:.6f}"
    )
    print(f"wrote {', '.join(written)}")
    return 0


def _report_to_json(report: EvalReport, h: str) -> str:
    doc = report.as_dict()
    doc["config_hash"] = h
    return json.dumps(doc, sort_keys=True, indent=2)


def _load_pretrained(config: dict):
    """Load the checkpoint and, when its model retrieves, the bank; None when
    there is no checkpoint. A retrieval checkpoint without its bank file is a
    data error, and the bank must match the checkpoint's encoder."""
    paths = config["paths"]
    ckpt_path, bank_path = Path(paths["checkpoint"]), Path(paths["bank"])
    if not ckpt_path.exists():
        return None
    model = load_checkpoint(ckpt_path)
    if not model.config.retrieval_enabled:
        return model, None
    bank, _ = load_bank(bank_path, expected_encoder_version=model.encoder_version())
    model.refresh_bank(bank)
    return model, bank


def cmd_eval(config: dict) -> int:
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    city = load_city(paths["dataset"])
    mc = model_config(config, city.d_c)
    ratios = tuple(config["split_ratios"])
    protocol = config["protocol"]
    if protocol == "ablation":
        return cmd_ablate(config)
    target = load_city(paths["dataset_target"]) if protocol == "transfer" else None
    pretrained = _load_pretrained(config)
    if pretrained is not None:
        if pretrained[0].config != mc:
            raise VersionMismatchError(
                "checkpoint was trained with a different model config than this config and dataset"
            )
        # a pretrained model and bank are only cold-start for the holdout they were trained on
        trained_holdout = pretrained[0].holdout
        for seed in config["seeds"]:
            holdout = choose_holdout(city.n_regions, config["n_holdout"], seed)
            if holdout != trained_holdout:
                raise VersionMismatchError(
                    f"seed {seed} holds out regions {holdout}, but the checkpoint was trained "
                    f"with holdout {trained_holdout}; train one checkpoint per seed"
                )

    for seed in config["seeds"]:
        tc = train_config(config, seed=seed)
        seed_dir = report_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        run = None
        if pretrained is not None:
            model, bank = pretrained
            holdout = model.holdout
            observable = [i for i in range(city.n_regions) if i not in set(holdout)]
            run = ProtocolRun(
                model=model,
                bank=bank,
                train_result=TrainResult([], -1, float("nan"), bank, (model.norm_mean, model.norm_std)),
                holdout=holdout,
                observable=observable,
            )
        if protocol == "coldstart":
            report, run, preds, targets = run_coldstart(
                city, tc, mc, config["n_holdout"], ratios, config["window"], config["horizon"], run=run
            )
        else:
            report, run, preds, targets = run_transfer(
                city, target, tc, mc, config["n_holdout"], ratios,
                config["window"], config["horizon"], run=run,
            )
        (seed_dir / "report.json").write_text(_report_to_json(report, h))
        write_curves_csv(seed_dir / "curves.csv", preds, targets, config_hash=h)
        cold = report.coldstart_only
        print(
            f"seed {seed} [{protocol}]: MAE {report.overall.mae:.6f} RMSE {report.overall.rmse:.6f} "
            f"R2 {report.overall.r2 if report.overall.r2 is None else round(report.overall.r2, 6)} "
            f"| cold-start MAE {cold.mae:.6f}"
        )
    return 0


def cmd_ablate(config: dict) -> int:
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    source = load_city(paths["dataset"])
    target = load_city(paths["dataset_target"])
    mc = model_config(config, source.d_c)
    ratios = tuple(config["split_ratios"])
    for seed in config["seeds"]:
        tc = train_config(config, seed=seed)
        result = run_ablation_lret(
            source, target, tc, mc, config["n_holdout"], ratios, config["window"], config["horizon"]
        )
        seed_dir = report_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "config_hash": h,
            "seed": seed,
            "rmse_delta": result["rmse_delta"],
            "prior_l2_delta": result["prior_l2_delta"],
            "arms": {
                label: {
                    "lambda_ret": arm["lambda_ret"],
                    "val_prior_future_l2": arm["val_prior_future_l2"],
                    "test": arm["test"].as_dict(),
                }
                for label, arm in result["arms"].items()
            },
        }
        (seed_dir / "ablation.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
        print(
            f"seed {seed} [ablation]: rmse with/without ret loss "
            f"{result['arms']['with_ret_loss']['test'].overall.rmse:.6f}/"
            f"{result['arms']['no_ret_loss']['test'].overall.rmse:.6f}, "
            f"val prior-L2 {result['arms']['with_ret_loss']['val_prior_future_l2']:.6f}/"
            f"{result['arms']['no_ret_loss']['val_prior_future_l2']:.6f}"
        )
    return 0


def cmd_grad_check(config: dict) -> int:
    """Finite-difference check of the full objective on a tiny instance, for CI."""
    model, losses = toy_objective(config["seeds"][0])

    def loss():
        return losses()[0]

    report = grad_check(loss, model.store, eps=1e-5, tol=1e-4)
    print(report.summary())
    if not report.passed:
        raise DivergenceError("gradient check failed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bankcast",
        description="Retrieval-augmented graph forecasting benchmark harness",
    )
    parser.add_argument("--config", help="JSON config file (defaults merged underneath)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path, e.g. --set train.epochs=5",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write synthetic dataset file(s)")
    p_train = sub.add_parser("train", help="train one model; write checkpoint, bank, log")
    p_train.add_argument("--dry-run", action="store_true", help="validate config and shapes only")
    sub.add_parser("eval", help="run the configured protocol across all seeds")
    sub.add_parser("ablate", help="paired retrieval-loss ablation runs")
    sub.add_parser("grad-check", help="finite-difference check of the full objective")

    args = parser.parse_args(argv)
    try:
        config = resolve_config(args.config, args.set)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "train":
            return cmd_train(config, dry_run=args.dry_run)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "ablate":
            return cmd_ablate(config)
        if args.command == "grad-check":
            return cmd_grad_check(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError,) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 4
    except VersionMismatchError as e:
        print(f"artifact version mismatch: {e}", file=sys.stderr)
        return 5
    except BankcastError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

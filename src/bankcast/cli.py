"""Command-line entry point for reproducible experiments.

One JSON config document drives everything; each `--set a.b=value` is the
one-key document {"a": {"b": value}}, merged over the file as the file is
merged over the defaults. The train/val/test split is the paper's, fixed as
`data.SPLIT_RATIOS`. Every run directory receives a frozen copy of
the resolved config, and every artifact embeds the config hash it was produced
from. Exit codes: 0 success, 1 other error, 2 config error, 3 data error,
4 numeric divergence, 5 artifact-version mismatch; each error class in
`errors` carries its code.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from .artifacts import check_writable, write_text
from .data import (
    DEFAULT_HORIZON,
    DEFAULT_WINDOW,
    SyntheticSpec,
    generate_synthetic_city,
    load_city,
    make_transfer_pair,
    make_windows,
    save_city,
    split_windows,
)
from .errors import BankcastError, ConfigError, DivergenceError, VersionMismatchError
from .evaluation import (
    DEFAULT_N_HOLDOUT,
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
from .training import TrainConfig, write_log_csv


def _field_defaults(cls, skip: tuple[str, ...]) -> dict:
    """A config dataclass's defaults by field name."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


DEFAULT_CONFIG: dict = {
    "protocol": "coldstart",
    "seeds": [1, 2, 3],
    "n_holdout": DEFAULT_N_HOLDOUT,
    "window": DEFAULT_WINDOW,
    "horizon": DEFAULT_HORIZON,
    "paths": {
        "dataset": "runs/source.json",
        "dataset_target": "runs/target.json",
        "checkpoint": "runs/checkpoint.bin",
        "bank": "runs/bank.bin",
        "report_dir": "runs",
    },
    # the synthetic, model and train blocks take their defaults from the
    # config dataclasses; the city fixes d_c, the top level window and
    # horizon, and each seed of `seeds` the training seed
    "synthetic": {**_field_defaults(SyntheticSpec, ("seed",)), "seed": 1, "target_seed": 101},
    "model": _field_defaults(ModelConfig, ("d_c", "window", "horizon")),
    "train": _field_defaults(TrainConfig, ("seed",)),
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


def _override_doc(item: str) -> dict:
    """`--set a.b=v` as the one-key document {"a": {"b": v}}; a value that
    is not JSON is taken as a bare string."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    dotted, raw = item.split("=", 1)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError:
        doc = raw
    for key in reversed(dotted.split(".")):
        doc = {key: doc}
    return doc


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    """The defaults, merged with the config file and then with each `--set`
    in order; the result is checked after every merge."""
    doc = {}
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except OSError as e:  # a directory, no permission
            raise ConfigError(f"config file {config_path} cannot be read: {type(e).__name__}: {e.strerror}")
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise ConfigError(f"config file {config_path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {config_path}: the top level must be of type dict, got {doc!r}")
    config = DEFAULT_CONFIG
    for layer in [doc, *map(_override_doc, overrides)]:
        config = _merge(config, layer)
        _check(config, DEFAULT_CONFIG)
    if config["protocol"] not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {config['protocol']!r}")
    if not config["seeds"]:
        raise ConfigError("seeds list must not be empty")
    named_seeds = [("seeds", s) for s in config["seeds"]]
    named_seeds += [(f"synthetic.{k}", config["synthetic"][k]) for k in ("seed", "target_seed")]
    for name, seed in named_seeds:
        if seed < 0:
            raise ConfigError(f"{name} must be nonnegative, got {seed}")
    for key in ("n_holdout", "window", "horizon"):
        if config[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {config[key]}")
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def freeze_config(config: dict, report_dir: Path) -> str:
    h = config_hash(config)
    doc = dict(config)
    doc["config_hash"] = h
    write_text(report_dir / "config.json", json.dumps(doc, sort_keys=True, indent=2))
    return h


def synthetic_spec(config: dict) -> SyntheticSpec:
    return SyntheticSpec(**{k: v for k, v in config["synthetic"].items() if k != "target_seed"})


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
    if config["protocol"] in ("transfer", "ablation"):
        city, target = make_transfer_pair(spec, config["synthetic"]["target_seed"])
    else:
        city, target = generate_synthetic_city(spec, name="source"), None
    # a window or split that does not fit the city fails before a dataset is written
    windows = make_windows(city, config["window"], config["horizon"])
    tr, va, te = split_windows(windows)
    save_city(city, paths["dataset"], config_hash=h)
    print(f"wrote {paths['dataset']}: {city.n_regions} regions, {city.t_total} intervals")
    print(f"windows {len(windows)} -> train/val/test {len(tr)}/{len(va)}/{len(te)}")
    if target is not None:
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
    # an artifact that cannot be written fails here, not after every epoch
    check_writable(paths["checkpoint"])
    if mc.retrieval_enabled:
        check_writable(paths["bank"])
    run = train_for_protocol(city, tc, mc, config["n_holdout"])
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


def _load_pretrained(config: dict) -> ProtocolRun | None:
    """The checkpoint and, when its model retrieves, the bank, as a run
    without a training result; None when there is no checkpoint. A retrieval
    checkpoint without its bank file is a data error, and the bank must match
    the checkpoint's encoder."""
    paths = config["paths"]
    ckpt_path, bank_path = Path(paths["checkpoint"]), Path(paths["bank"])
    if not ckpt_path.exists():
        return None
    model = load_checkpoint(ckpt_path)
    bank = None
    if model.config.retrieval_enabled:
        bank, _ = load_bank(bank_path, expected_encoder_version=model.encoder_version())
        model.refresh_bank(bank)
    return ProtocolRun(model=model, bank=bank, train_result=None)


def cmd_eval(config: dict) -> int:
    protocol = config["protocol"]
    if protocol == "ablation":
        return cmd_ablate(config)
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    city = load_city(paths["dataset"])
    mc = model_config(config, city.d_c)
    target = load_city(paths["dataset_target"]) if protocol == "transfer" else None
    pretrained = _load_pretrained(config)
    if pretrained is not None:
        if pretrained.model.config != mc:
            raise VersionMismatchError(
                "checkpoint was trained with a different model config than this config and dataset"
            )
        # a pretrained model and bank are only cold-start for the holdout they were trained on
        for seed in config["seeds"]:
            holdout = choose_holdout(city.n_regions, config["n_holdout"], seed)
            if holdout != pretrained.model.holdout:
                raise VersionMismatchError(
                    f"seed {seed} holds out regions {holdout}, but the checkpoint was trained "
                    f"with holdout {pretrained.model.holdout}; train one checkpoint per seed"
                )

    for seed in config["seeds"]:
        tc = train_config(config, seed=seed)
        seed_dir = report_dir / f"seed_{seed}"
        if protocol == "coldstart":
            report, _, preds, targets = run_coldstart(city, tc, mc, config["n_holdout"], run=pretrained)
        else:
            report, _, preds, targets = run_transfer(
                city, target, tc, mc, config["n_holdout"], run=pretrained
            )
        write_text(seed_dir / "report.json", _report_to_json(report, h))
        write_curves_csv(seed_dir / "curves.csv", preds, targets, config_hash=h)
        cold = report.coldstart_only
        print(
            f"seed {seed} [{protocol}]: MAE {report.overall.mae:.6f} RMSE {report.overall.rmse:.6f} "
            f"R2 {report.overall.r2 if report.overall.r2 is None else round(report.overall.r2, 6)} "
            f"| cold-start MAE {cold.mae:.6f}"
        )
    return 0


def _fixed(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def cmd_ablate(config: dict) -> int:
    if not config["model"]["retrieval_enabled"]:
        # without retrieval the loss weight has nothing to act on, and no prior to measure
        raise ConfigError("the retrieval-loss ablation needs model.retrieval_enabled=true")
    paths = config["paths"]
    report_dir = Path(paths["report_dir"])
    h = freeze_config(config, report_dir)
    source = load_city(paths["dataset"])
    target = load_city(paths["dataset_target"])
    mc = model_config(config, source.d_c)
    for seed in config["seeds"]:
        tc = train_config(config, seed=seed)
        doc = run_ablation_lret(source, target, tc, mc, config["n_holdout"])
        write_text(
            report_dir / f"seed_{seed}" / "ablation.json",
            json.dumps({"config_hash": h, "seed": seed, **doc}, sort_keys=True, indent=2),
        )
        arms = [doc["arms"][label] for label in ("with_ret_loss", "no_ret_loss")]
        rmse = "/".join(f"{arm['test']['overall']['rmse']:.6f}" for arm in arms)
        l2 = "/".join(_fixed(arm["val_prior_future_l2"]) for arm in arms)
        print(f"seed {seed} [ablation]: rmse with/without ret loss {rmse}, val prior-L2 {l2}")
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
        return cmd_grad_check(config)
    except BankcastError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())

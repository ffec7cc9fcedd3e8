import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.recfunctions import repack_fields

from bankcast import cli, errors
from bankcast.cli import main, resolve_config
from bankcast.data import SyntheticSpec, generate_synthetic_city, save_city
from bankcast.errors import ConfigError
from bankcast.model import Model, ModelConfig, load_checkpoint, save_checkpoint


def fast_config(tmp_path: Path, protocol: str = "coldstart") -> Path:
    """A tiny config that keeps CLI tests quick."""
    doc = {
        "protocol": protocol,
        "seeds": [1],
        "n_holdout": 3,
        "paths": {
            "dataset": str(tmp_path / "source.json"),
            "dataset_target": str(tmp_path / "target.json"),
            "checkpoint": str(tmp_path / "checkpoint.bin"),
            "bank": str(tmp_path / "bank.bin"),
            "report_dir": str(tmp_path / "runs"),
        },
        "synthetic": {
            "n_regions": 10,
            "d_c": 8,
            "n_archetypes": 3,
            "t_total": 24 * 10 + 1,
            "noise_scale": 0.2,
            "seed": 5,
            "target_seed": 55,
        },
        "model": {
            "d_g": 6,
            "d_z": 5,
            "hidden": 12,
            "head_blocks": 2,
            "d_r": 10,
            "d_h": 4,
            "d_ec": 6,
            "d_ex": 6,
            "psi_hidden": 12,
        },
        "train": {
            "epochs": 2,
            "batch_size": 16,
            "k": 3,
            "n_inactive_per_batch": 2,
            "patience": 0,
        },
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return p


def run_cli(*args) -> int:
    return main(list(args))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(autouse=True)
def strict_json_reports(tmp_path):
    """Every report.json and ablation.json a test writes is strict JSON: no NaN or Infinity."""
    yield
    for path in [*tmp_path.rglob("report.json"), *tmp_path.rglob("ablation.json")]:
        json.loads(path.read_text(), parse_constant=_reject_constant)


class TestConfigResolution:
    def test_defaults_merged(self, tmp_path):
        p = fast_config(tmp_path)
        cfg = resolve_config(str(p), [])
        assert cfg["train"]["lambda_ret"] == 0.2  # default survives partial override
        assert cfg["train"]["epochs"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"protocl": "coldstart"}))
        with pytest.raises(ConfigError):
            resolve_config(str(p), [])

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"epoch": 3}}))
        with pytest.raises(ConfigError):
            resolve_config(str(p), [])

    def test_set_override(self, tmp_path):
        p = fast_config(tmp_path)
        cfg = resolve_config(str(p), ["train.epochs=7", "protocol=transfer"])
        assert cfg["train"]["epochs"] == 7
        assert cfg["protocol"] == "transfer"

    def test_set_unknown_key_rejected(self, tmp_path):
        p = fast_config(tmp_path)
        with pytest.raises(ConfigError):
            resolve_config(str(p), ["train.nope=1"])

    def test_bad_protocol_rejected(self, tmp_path):
        p = fast_config(tmp_path)
        with pytest.raises(ConfigError):
            resolve_config(str(p), ["protocol=frobnicate"])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            resolve_config("/nonexistent/config.json", [])

    # a directory, or a file that is not UTF-8 text, used to end in a traceback
    @pytest.mark.parametrize("make", [Path.mkdir, lambda p: p.write_bytes(b"\xff\xfe{}")])
    def test_unreadable_config_file_exits_2(self, make, tmp_path, capsys):
        make(tmp_path / "config.json")
        assert run_cli("--config", str(tmp_path / "config.json"), "train", "--dry-run") == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path / "config.json") in err

    # a value of the wrong JSON type, or a model width below 1, used to reach
    # the model or the selection and fail there with a traceback (exit 1);
    # a train value out of range was reported as a data error (exit 3); a
    # negative n_holdout passed the dry run, then failed with a traceback;
    # stop_key_grad is no longer a model key, nor are the optimizer
    # constants of `training` train keys
    @pytest.mark.parametrize("override", [
        "train.k=abc", "train.k=2.5", "model.d_r=abc", "model.retrieval_enabled=1",
        "train.learning_rate=true", "seeds=[1.5]", "synthetic=3",
        "model.d_r=-1", "model.d_g=0", "model.gcn_layers=-1",
        "train.k=0", "train.temperature=0",
        "n_holdout=-1", "n_holdout=0",
        "model.stop_key_grad=false", "train.clip_norm=1", "train.beta1=1", "train.beta2=1", "train.eps=1",
        # negative seeds and inactive counts used to reach numpy and fail
        # there with a traceback (exit 1)
        "seeds=[-1]", "synthetic.seed=-1", "synthetic.target_seed=-5", "train.n_inactive_per_batch=-1",
        # the archetype volume range is the constant data.SCALE_RANGE, and
        # the train/val/test split the constant data.SPLIT_RATIOS
        "synthetic.scale_range=[8,20]", "split_ratios=[0.5,0.6,0.2]", "split_ratios=[0.5,0.5]",
    ])
    def test_bad_value_exits_2(self, override, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "--set", override, "train", "--dry-run") == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override,command,key", [
        ("seeds=[-1]", "train", "seeds"),
        ("train.n_inactive_per_batch=-1", "train", "n_inactive_per_batch"),
        ("synthetic.seed=-1", "generate", "synthetic.seed"),
        ("synthetic.target_seed=-5", "generate", "synthetic.target_seed"),
    ])
    def test_negative_seed_or_count_exits_2_naming_its_key(self, override, command, key, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="transfer")
        if command == "train":
            run_cli("--config", str(p), "generate")
        capsys.readouterr()
        assert run_cli("--config", str(p), "--set", override, command) == 2
        assert f"config error: {key} must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / ("checkpoint.bin" if command == "train" else "source.json")).exists()

    def test_ablate_is_not_a_command(self, tmp_path, capsys):
        # the ablation runs through `eval` with protocol ablation
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--config", str(fast_config(tmp_path, protocol="ablation")), "ablate")
        assert exit_info.value.code == 2
        assert "invalid choice: 'ablate'" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["train.temperature=1", "model.gcn_layers=0", "model.head_blocks=0"])
    def test_integer_for_number_and_zero_depths_accepted(self, override, tmp_path):
        config = resolve_config(str(fast_config(tmp_path)), [override])
        cli.model_config(config, d_c=4).validate()
        cli.train_config(config, seed=0).validate()

    def test_model_config_validated_where_the_model_is_built(self):
        with pytest.raises(ConfigError, match="d_r must be at least 1"):
            Model(ModelConfig(d_c=4, d_r=0))
        with pytest.raises(ConfigError, match="head_blocks must be at least 0"):
            ModelConfig(d_c=4, head_blocks=-1).validate()

    @pytest.mark.parametrize("doc,where", [({"train": {"k": "3"}}, "train.k"), ([1, 2], "top level")])
    def test_bad_type_in_config_file_rejected(self, doc, where, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=where):
            resolve_config(str(p), [])

    def test_set_below_a_non_object_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": 3}))
        with pytest.raises(ConfigError, match="train must be of type dict"):
            resolve_config(str(p), ["train.k=1"])

    def test_later_set_wins_and_file_values_survive(self, tmp_path):
        p = fast_config(tmp_path)
        cfg = resolve_config(str(p), ["train.epochs=5", "train.k=4", "train.epochs=7"])
        assert (cfg["train"]["epochs"], cfg["train"]["k"]) == (7, 4)
        assert (cfg["train"]["batch_size"], cfg["train"]["patience"]) == (16, 0)  # from the file
        assert cfg["model"]["hidden"] == 12

    def test_later_set_cannot_hide_an_earlier_bad_value(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            resolve_config(str(fast_config(tmp_path)), ["model=3", "model.d_r=4"])

    def test_set_object_merges_into_its_block(self, tmp_path):
        # it used to replace the whole block, dropping the file's hidden=12
        cfg = resolve_config(str(fast_config(tmp_path)), ['model={"d_r": 4}'])
        assert (cfg["model"]["d_r"], cfg["model"]["hidden"], cfg["model"]["d_g"]) == (4, 12, 6)

    def test_settable_keys(self):
        # every setting, as a dotted path: adding or removing one is an edit here
        def leaves(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert list(leaves(cli.DEFAULT_CONFIG)) == [
            "protocol", "seeds", "n_holdout", "window", "horizon",
            "paths.dataset", "paths.dataset_target", "paths.checkpoint", "paths.bank", "paths.report_dir",
            "synthetic.n_regions", "synthetic.d_c", "synthetic.n_archetypes", "synthetic.t_total",
            "synthetic.noise_scale", "synthetic.seed", "synthetic.target_seed",
            "model.d_g", "model.d_z", "model.hidden", "model.head_blocks", "model.gcn_layers", "model.d_r",
            "model.d_h", "model.d_ec", "model.d_ex", "model.psi_hidden", "model.retrieval_enabled",
            "train.epochs", "train.batch_size", "train.learning_rate", "train.lambda_ret", "train.k",
            "train.temperature", "train.n_inactive_per_batch", "train.patience",
        ]


class TestGenerate:
    def test_generate_writes_dataset_and_prints_counts(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        assert run_cli("--config", str(p), "generate") == 0
        out = capsys.readouterr().out
        assert "10 regions" in out
        assert "116/39/39" in out  # 241 intervals -> 194 windows split 0.6/0.2/0.2
        assert (tmp_path / "source.json").exists()
        assert (tmp_path / "runs" / "config.json").exists()

    def test_default_split_matches_reference_counts(self, tmp_path, capsys):
        # default t_total reproduces the 2540/847/847 reference split
        p = fast_config(tmp_path)
        code = run_cli(
            "--config", str(p), "--set", "synthetic.t_total=4281",
            "--set", "synthetic.n_regions=30", "generate",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "30 regions" in out
        assert "2540/847/847" in out

    def test_same_seed_identical_checksum(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        first = hashlib.sha256((tmp_path / "source.json").read_bytes()).hexdigest()
        run_cli("--config", str(p), "generate")
        second = hashlib.sha256((tmp_path / "source.json").read_bytes()).hexdigest()
        assert first == second

    def test_invalid_spec_nonzero_exit(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        code = run_cli("--config", str(p), "--set", "synthetic.t_total=30", "generate")
        assert code == 3
        assert "too small" in capsys.readouterr().err

    # a non-positive window or horizon used to exit 0 with bogus window
    # counts; n_regions=0 wrote a city without regions, n_regions=-3 ended
    # in a traceback (exit 1); a window longer than the city exited 3 after
    # writing the dataset
    @pytest.mark.parametrize("override,code,prefix", [
        ("window=0", 2, "config error: window must be at least 1"),
        ("horizon=0", 2, "config error: horizon must be at least 1"),
        ("window=-2", 2, "config error: window must be at least 1"),
        ("synthetic.n_regions=0", 3, "data error: n_regions must be at least 1"),
        ("synthetic.n_regions=-3", 3, "data error: n_regions must be at least 1"),
        ("window=300", 3, "data error: window + horizon exceeds dataset length"),
    ])
    def test_bad_size_exits_without_dataset(self, override, code, prefix, tmp_path, capsys):
        p = fast_config(tmp_path)
        assert run_cli("--config", str(p), "--set", override, "generate") == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "source.json").exists()

    def test_transfer_generates_both_cities(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="transfer")
        assert run_cli("--config", str(p), "generate") == 0
        assert (tmp_path / "target.json").exists()

    def test_dataset_under_a_file_exits_3(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        (tmp_path / "afile").write_text("")
        dataset = tmp_path / "afile" / "source.json"
        assert run_cli("--config", str(p), "--set", f"paths.dataset={dataset}", "generate") == 3
        out, err = capsys.readouterr()
        assert "data error" in err and str(dataset) in err
        assert "wrote" not in out

    def test_config_hash_embedded(self, tmp_path):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        doc = json.loads((tmp_path / "source.json").read_text())
        frozen = json.loads((tmp_path / "runs" / "config.json").read_text())
        assert doc["config_hash"] == frozen["config_hash"]


@pytest.mark.parametrize(
    "command", [["generate"], ["train"], ["eval"], ["--set", "protocol=ablation", "eval"]],
    ids=["generate", "train", "eval", "eval-ablation"],
)
def test_report_dir_that_is_a_file_exits_3(command, tmp_path, capsys):
    # every subcommand that runs an experiment first freezes its config there
    p = fast_config(tmp_path)
    report_dir = tmp_path / "afile"
    report_dir.write_text("")
    assert run_cli("--config", str(p), "--set", f"paths.report_dir={report_dir}", *command) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(report_dir) in err
    assert report_dir.read_text() == ""


ERROR_EXITS = [
    (errors.BankcastError, 1, "error"),
    (errors.ConfigError, 2, "config error"),
    (errors.DataError, 3, "data error"),
    (errors.DivergenceError, 4, "numeric divergence"),
    (errors.VersionMismatchError, 5, "artifact version mismatch"),
    (errors.DegenerateEmbedding, 1, "error"),  # a subclass without its own code
]


@pytest.mark.parametrize("error,code,prefix", ERROR_EXITS, ids=[e.__name__ for e, _, _ in ERROR_EXITS])
def test_error_class_sets_exit_code_and_prefix(error, code, prefix, monkeypatch, capsys):
    def fail(config):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert run_cli("generate") == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


class TestTrain:
    def test_dry_run(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "train", "--dry-run") == 0
        assert "dry run ok" in capsys.readouterr().out

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        assert run_cli("--config", str(p), "train") == 3

    @pytest.mark.parametrize("make", [Path.mkdir, lambda p: p.write_bytes(b"\xff\xfe{}")])
    def test_unreadable_dataset_exits_3(self, make, tmp_path, capsys):
        p = fast_config(tmp_path)
        make(tmp_path / "unreadable.json")
        dataset = f"paths.dataset={tmp_path / 'unreadable.json'}"
        assert run_cli("--config", str(p), "--set", dataset, "train", "--dry-run") == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path / "unreadable.json") in err

    # a scalar context raised IndexError in `CityDataset.validate`; a nested
    # one loaded as an (N, d_c, 1) array and failed in `build_bank`; a
    # non-finite one loaded, and training then failed on unit-norm bank keys
    # (exit 3, no dataset path) or a non-finite loss (graph-only, exit 4);
    # ids out of order were reported without the dataset path
    @pytest.mark.parametrize("rewrite,retrieval", [
        pytest.param(lambda r: r.update(context=r["context"][0]), True, id="scalar"),
        pytest.param(lambda r: r.update(context=[[v] for v in r["context"]]), True, id="nested"),
        pytest.param(lambda r: r.update(context=[None] + r["context"][1:]), True, id="null"),
        pytest.param(lambda r: r.update(context=[None] + r["context"][1:]), False, id="null-graph-only"),
        pytest.param(lambda r: r.update(context=[math.inf] + r["context"][1:]), True, id="infinity"),
        pytest.param(
            lambda r: r.update(context=[math.inf] + r["context"][1:]), False, id="infinity-graph-only"
        ),
        pytest.param(lambda r: r.update(id=r["id"] + 1), True, id="region-ids"),
    ])
    def test_malformed_region_context_exits_3(self, rewrite, retrieval, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        dataset = tmp_path / "source.json"
        doc = json.loads(dataset.read_text())
        for region in doc["regions"]:
            rewrite(region)
        dataset.write_text(json.dumps(doc))
        capsys.readouterr()
        switch = f"model.retrieval_enabled={json.dumps(retrieval)}"
        assert run_cli("--config", str(p), "--set", switch, "train") == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(dataset) in err

    @pytest.mark.parametrize("artifact,unwritable", [
        pytest.param("checkpoint", "directory", id="checkpoint"),
        pytest.param("bank", "directory", id="bank"),
        pytest.param("checkpoint", "parent-is-a-file", id="checkpoint-parent-is-a-file"),
        pytest.param("bank", "parent-is-a-file", id="bank-parent-is-a-file"),
    ])
    def test_unwritable_artifact_exits_3(self, artifact, unwritable, tmp_path, capsys):
        # found before the first epoch, not after the last one; the probes
        # leave no file and no directory
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        path = tmp_path / f"{artifact}.bin"
        if unwritable == "directory":
            path.mkdir()
        else:
            (tmp_path / "a-file").write_text("")
            path = tmp_path / "a-file" / f"{artifact}.bin"
        # the other artifact goes under a new directory: the checkpoint's
        # probe, which runs first, makes it and removes it again
        other = "bank" if artifact == "checkpoint" else "checkpoint"
        other_path = tmp_path / "new" / "dir" / f"{other}.bin"
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run_cli(
            "--config", str(p), "--set", f"paths.{artifact}={path}", "--set", f"paths.{other}={other_path}",
            "train",
        )
        assert code == 3
        out, err = capsys.readouterr()
        assert "data error" in err and str(path) in err
        assert "trained seed" not in out
        assert not (tmp_path / "runs" / "training_log.csv").exists()
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("artifact", ["checkpoint", "bank"])
    def test_artifact_under_a_new_directory_is_written(self, artifact, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        path = tmp_path / "missing" / f"{artifact}.bin"
        assert run_cli("--config", str(p), "--set", f"paths.{artifact}={path}", "train") == 0
        assert path.is_file()

    def test_train_writes_artifacts(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "train") == 0
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "bank.bin").exists()
        log = (tmp_path / "runs" / "training_log.csv").read_text().splitlines()
        assert log[0].startswith("# config_hash=")
        assert log[1] == (
            "epoch,train_loss,train_pred_loss,train_ret_loss,val_mae,val_rmse,"
            "grad_norm,fusion_scale,seconds"
        )
        assert len(log) == 4  # header comment + columns + 2 epochs


class TestEval:
    def test_coldstart_eval_report_blocks(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "eval") == 0
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        assert "overall" in report and "coldstart_only" in report and "observed_only" in report
        assert report["protocol"] == "coldstart"
        assert (tmp_path / "runs" / "seed_1" / "curves.csv").exists()

    def test_eval_from_checkpoint_and_tampered_bank(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        run_cli("--config", str(p), "train")
        assert run_cli("--config", str(p), "eval") == 0
        _edit_raw(tmp_path / "bank.bin", body=_flip_float_byte)
        assert run_cli("--config", str(p), "eval") == 5

    def test_transfer_eval(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="transfer")
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "eval") == 0
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        assert report["protocol"] == "transfer"
        assert report["extras"]["source_city"] == "source"


def _edit_raw(path: Path, header=lambda h: h, body=lambda b: b) -> None:
    """Rewrite a bank or checkpoint file's JSON header line and .npy body, as bytes."""
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header(head) + b"\n" + body(rest))


def _v1_header(head: bytes) -> bytes:
    return json.dumps({**json.loads(head), "format": "bankcast-bank-v1"}).encode()


def _one_more_entry(head: bytes) -> bytes:
    header = json.loads(head)
    return json.dumps({**header, "n_entries": header["n_entries"] + 1}).encode()


def _shift_norm_mean(head: bytes) -> bytes:
    header = json.loads(head)
    header["norm"]["mean"] += 0.5
    return json.dumps(header).encode()


def _drop_future(body: bytes) -> bytes:
    entries = np.load(io.BytesIO(body))
    out = io.BytesIO()
    np.save(out, repack_fields(entries[["region_id", "anchor", "hour", "context", "history"]]))
    return out.getvalue()


def _flip_float_byte(body: bytes) -> bytes:
    # body[-8] is the lowest mantissa byte of the body's last float64: the bank's
    # last future value, or the checkpoint's last parameter value
    return body[:-8] + bytes([body[-8] ^ 1]) + body[-7:]


def _hour_out_of_range(path: Path) -> None:
    """The first entry's hour set to 24, under a header checksum that matches."""
    head, body = path.read_bytes().split(b"\n", 1)
    entries = np.load(io.BytesIO(body))
    entries["hour"][0] = 24
    header = {**json.loads(head), "entry_checksum": hashlib.sha256(entries.tobytes()).hexdigest()}
    out = io.BytesIO()
    np.save(out, entries)
    path.write_bytes(json.dumps(header).encode() + b"\n" + out.getvalue())


def _read_ckpt(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's header and its parameters by name, split from the body."""
    head, body = path.read_bytes().split(b"\n", 1)
    header, flat = json.loads(head), np.load(io.BytesIO(body))
    sizes = [int(np.prod(shape)) for _, shape in header["params"]]
    offsets = np.cumsum([0] + sizes)
    params = {
        name: flat[lo:hi].reshape(shape)
        for (name, shape), lo, hi in zip(header["params"], offsets[:-1], offsets[1:])
    }
    return header, params


def _edit_ckpt(edit):
    """A corruption that applies edit(header, params) and writes the result
    back with a parameter list, body, norm and checksum that agree, so that
    only the edit itself is wrong."""

    def corrupt(path: Path) -> None:
        header, params = _read_ckpt(path)
        edit(header, params)
        flat = np.concatenate([v.reshape(-1) for v in params.values()])
        header["params"] = [[name, list(v.shape)] for name, v in params.items()]
        norm = header.get("norm", {})
        norm = np.array([norm.get("mean", 0.0), norm.get("std", 1.0)])
        header["params_checksum"] = hashlib.sha256(flat.tobytes() + norm.tobytes()).hexdigest()
        out = io.BytesIO()
        np.save(out, flat)
        path.write_bytes(json.dumps(header).encode() + b"\n" + out.getvalue())

    return corrupt


def _as_v1(path: Path) -> None:
    """The checkpoint rewritten as a v1 file: one JSON document, values as decimal text."""
    header, params = _read_ckpt(path)
    doc = {k: v for k, v in header.items() if k not in ("params", "params_checksum")}
    doc["format"] = "bankcast-checkpoint-v1"
    doc["params"] = {
        name: {"shape": list(v.shape), "values": v.reshape(-1).tolist()} for name, v in params.items()
    }
    path.write_text(json.dumps(doc, sort_keys=True))


def _body_as(fn):
    """A body transform that re-saves the stored array as fn(array)."""

    def body(raw: bytes) -> bytes:
        out = io.BytesIO()
        np.save(out, fn(np.load(io.BytesIO(raw))))
        return out.getvalue()

    return body


def _narrower_city(path: Path) -> None:
    spec = SyntheticSpec(n_regions=10, d_c=6, n_archetypes=3, t_total=24 * 10 + 1, seed=5)
    save_city(generate_synthetic_city(spec, name="source"), path)


def _as_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def case(id: str, artifact: str, corrupt, code: int):
    return pytest.param(artifact, corrupt, code, id=id)


CORRUPTIONS = [
    case("bank-header-not-json", "bank.bin", lambda p: _edit_raw(p, header=lambda _: b"not json"), 3),
    case("bank-header-not-object", "bank.bin", lambda p: _edit_raw(p, header=lambda _: b"[1, 2]"), 3),
    case("bank-header-v1", "bank.bin", lambda p: _edit_raw(p, header=_v1_header), 3),
    case("bank-header-count", "bank.bin", lambda p: _edit_raw(p, header=_one_more_entry), 3),
    case("bank-body-not-npy", "bank.bin", lambda p: _edit_raw(p, body=lambda _: b'{"region_id": 0}\n'), 3),
    case("bank-body-missing", "bank.bin", lambda p: _edit_raw(p, body=lambda _: b""), 3),
    case("bank-body-truncated", "bank.bin", lambda p: _edit_raw(p, body=lambda b: b[:-100]), 3),
    case("bank-no-future-field", "bank.bin", lambda p: _edit_raw(p, body=_drop_future), 3),
    case("bank-float-flipped", "bank.bin", lambda p: _edit_raw(p, body=_flip_float_byte), 5),
    case("bank-hour-out-of-range", "bank.bin", _hour_out_of_range, 3),
    case("bank-is-directory", "bank.bin", _as_directory, 3),
    case("ckpt-missing-param", "checkpoint.bin", _edit_ckpt(lambda h, p: p.pop("fusion.scale")), 3),
    case("ckpt-missing-model-config", "checkpoint.bin", _edit_ckpt(lambda h, p: h.pop("model_config")), 3),
    case("ckpt-missing-norm", "checkpoint.bin", _edit_ckpt(lambda h, p: h.pop("norm")), 3),
    case("ckpt-unknown-config-field", "checkpoint.bin",
         _edit_ckpt(lambda h, p: h["model_config"].update(bogus=1)), 3),
    case("ckpt-param-shape", "checkpoint.bin",
         _edit_ckpt(lambda h, p: p.update({"fusion.scale": np.append(p["fusion.scale"], 0.0)})), 3),
    case("ckpt-extra-param", "checkpoint.bin", _edit_ckpt(lambda h, p: p.update(bogus=np.zeros(1))), 3),
    case("ckpt-not-object", "checkpoint.bin", lambda p: _edit_raw(p, header=lambda _: b"[1, 2]"), 3),
    case("ckpt-no-holdout", "checkpoint.bin", _edit_ckpt(lambda h, p: h.pop("holdout")), 5),
    case("ckpt-header-not-json", "checkpoint.bin", lambda p: _edit_raw(p, header=lambda _: b"not json"), 3),
    case("ckpt-v1-json", "checkpoint.bin", _as_v1, 3),
    case("ckpt-body-not-npy", "checkpoint.bin", lambda p: _edit_raw(p, body=lambda _: b'{"values": [0.0]}\n'), 3),
    case("ckpt-body-truncated", "checkpoint.bin", lambda p: _edit_raw(p, body=lambda b: b[:-100]), 3),
    case("ckpt-body-wrong-dtype", "checkpoint.bin",
         lambda p: _edit_raw(p, body=_body_as(lambda a: a.astype(np.float32))), 3),
    case("ckpt-body-rank-2", "checkpoint.bin", lambda p: _edit_raw(p, body=_body_as(lambda a: a[None])), 3),
    case("ckpt-body-longer", "checkpoint.bin",
         lambda p: _edit_raw(p, body=_body_as(lambda a: np.append(a, 0.0))), 3),
    case("ckpt-float-flipped", "checkpoint.bin", lambda p: _edit_raw(p, body=_flip_float_byte), 5),
    case("ckpt-is-directory", "checkpoint.bin", _as_directory, 3),
    case("dataset-not-object", "source.json", lambda p: p.write_text("[]"), 3),
    case("dataset-other-context-width", "source.json", _narrower_city, 5),
]


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    """generate + train once; tests copy the directory before changing it."""
    root = tmp_path_factory.mktemp("trained")
    p = fast_config(root)
    assert run_cli("--config", str(p), "generate") == 0
    assert run_cli("--config", str(p), "train") == 0
    return root


def copy_artifacts(src: Path, dst: Path) -> Path:
    for name in ("source.json", "checkpoint.bin", "bank.bin"):
        shutil.copy(src / name, dst / name)
    return fast_config(dst)


class TestCorruptArtifacts:
    @pytest.mark.parametrize("name,corrupt,code", CORRUPTIONS)
    def test_eval_exits_with_code_not_traceback(self, name, corrupt, code, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        corrupt(tmp_path / name)
        assert run_cli("--config", str(p), "eval") == code
        err = capsys.readouterr().err
        assert ("data error" if code == 3 else "artifact version mismatch") in err

    # the checksum did not cover the norm: an edited mean went unnoticed
    # without retrieval (exit 0, other forecasts), and with retrieval the
    # bank was blamed for it
    @pytest.mark.parametrize("retrieval", [True, False], ids=["retrieval", "graph-only"])
    def test_norm_edit_exits_5_naming_the_checkpoint(self, retrieval, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        switch = ["--set", f"model.retrieval_enabled={json.dumps(retrieval)}"]
        if not retrieval:
            assert run_cli("--config", str(p), *switch, "train") == 0
        _edit_raw(tmp_path / "checkpoint.bin", header=_shift_norm_mean)
        capsys.readouterr()
        assert run_cli("--config", str(p), *switch, "eval") == 5
        err = capsys.readouterr().err
        assert "artifact version mismatch" in err and str(tmp_path / "checkpoint.bin") in err


class TestCheckpointRoundTrip:
    def model(self) -> Model:
        config = ModelConfig(d_c=4, window=5, horizon=3, d_g=4, d_z=3, hidden=8, head_blocks=2,
                             d_r=8, d_h=3, d_ec=5, d_ex=5, psi_hidden=9)
        model = Model(config, seed=7)
        model.set_norm(1.0 / 3.0, np.pi)
        model.holdout = [4, 1, 9]
        rng = np.random.default_rng(7)
        for _, var in model.store.items():
            var.value = var.value + rng.normal(size=var.value.shape)
        return model

    def test_parameters_and_metadata_come_back_bit_for_bit(self, tmp_path):
        model = self.model()
        save_checkpoint(model, tmp_path / "checkpoint.bin", config_hash="0123abcd")
        loaded = load_checkpoint(tmp_path / "checkpoint.bin")
        assert loaded.config == model.config
        assert (loaded.norm_mean, loaded.norm_std) == (1.0 / 3.0, np.pi)
        assert loaded.holdout == [4, 1, 9]
        assert loaded.store.names() == model.store.names()
        for name, var in model.store.items():
            assert loaded.store[name].value.shape == var.value.shape
            assert loaded.store[name].value.tobytes() == var.value.tobytes()
        assert loaded.encoder_version() == model.encoder_version()
        header, _ = _read_ckpt(tmp_path / "checkpoint.bin")
        assert header["format"] == "bankcast-checkpoint-v3"
        assert header["config_hash"] == "0123abcd"

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        save_checkpoint(self.model(), tmp_path / "checkpoint.bin")
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise
        assert load_checkpoint(tmp_path / "checkpoint.bin").holdout == [4, 1, 9]

    def test_two_saves_are_byte_identical(self, tmp_path):
        model = self.model()
        save_checkpoint(model, tmp_path / "a.bin", config_hash="0123abcd")
        save_checkpoint(model, tmp_path / "b.bin", config_hash="0123abcd")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestHoldoutGuard:
    def test_pretrained_eval_refuses_other_seeds(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        assert run_cli("--config", str(p), "--set", "seeds=[1, 2]", "eval") == 5
        assert "holds out regions" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "seed_1" / "report.json").exists()

    def test_graph_only_checkpoint_loads_without_bank(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        graph_only = ["--config", str(p), "--set", "model.retrieval_enabled=false"]
        assert run_cli(*graph_only, "train") == 0
        written = capsys.readouterr().out
        assert "checkpoint.bin" in written and "bank.bin" not in written
        # bank.bin is now stale: it belongs to the retrieval checkpoint trained before
        assert run_cli(*graph_only, "--set", "seeds=[1, 2]", "eval") == 5
        assert "holds out regions" in capsys.readouterr().err
        assert run_cli(*graph_only, "eval") == 0
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        # the checkpoint was used, not retrained: there is no training result to report
        assert report["extras"]["best_epoch"] is None and report["extras"]["best_val_mae"] is None

    def test_missing_bank_exits_3_without_retraining(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        (tmp_path / "bank.bin").unlink()
        assert run_cli("--config", str(p), "eval") == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path / "bank.bin") in err
        assert not (tmp_path / "runs" / "seed_1" / "report.json").exists()

    def test_pretrained_eval_uses_stored_holdout(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        assert run_cli("--config", str(p), "eval") == 0
        stored = _read_ckpt(tmp_path / "checkpoint.bin")[0]["holdout"]
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        assert stored == cli.choose_holdout(10, 3, 1)
        assert sorted(report["holdout"]) == stored


class TestAblate:
    def test_paired_reports(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="ablation")
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "eval") == 0
        doc = json.loads((tmp_path / "runs" / "seed_1" / "ablation.json").read_text())
        assert doc["arms"]["with_ret_loss"]["lambda_ret"] == 0.2
        assert doc["arms"]["no_ret_loss"]["lambda_ret"] == 0.0
        assert doc["arms"]["with_ret_loss"]["test"]["seed"] == 1
        assert doc["arms"]["no_ret_loss"]["test"]["seed"] == 1
        l2 = [doc["arms"][arm]["val_prior_future_l2"] for arm in ("with_ret_loss", "no_ret_loss")]
        assert doc["prior_l2_delta"] == l2[0] - l2[1]
        assert "val prior-L2 " + "/".join(f"{x:.6f}" for x in l2) in capsys.readouterr().out

    def test_no_validation_prior_is_reported_as_null(self, tmp_path, capsys):
        # a 12/4/4 split: no val hour is in the bank, so no val row retrieves;
        # it used to write ablation.json, then end in a TypeError formatting
        # the missing prior L2, and read a missing L2 as 0.0 in the delta
        p = fast_config(tmp_path, protocol="ablation")
        short = ["--set", "synthetic.t_total=67", "--set", "train.epochs=1"]
        assert run_cli("--config", str(p), *short, "generate") == 0
        assert "train/val/test 12/4/4" in capsys.readouterr().out
        assert run_cli("--config", str(p), *short, "eval") == 0
        doc = json.loads((tmp_path / "runs" / "seed_1" / "ablation.json").read_text())
        assert doc["prior_l2_delta"] is None
        assert doc["arms"]["with_ret_loss"]["val_prior_future_l2"] is None
        assert doc["arms"]["no_ret_loss"]["val_prior_future_l2"] is None
        assert "val prior-L2 n/a/n/a" in capsys.readouterr().out

    # the protocol comes from the config file, or from --set on a cold-start config
    @pytest.mark.parametrize(
        "config_protocol,protocol", [("ablation", []), ("coldstart", ["--set", "protocol=ablation"])],
        ids=["eval", "eval-set-protocol"],
    )
    def test_retrieval_off_is_a_config_error(self, config_protocol, protocol, tmp_path, capsys):
        # it used to train both arms, then end in a TypeError formatting a None prior L2
        p = fast_config(tmp_path, protocol=config_protocol)
        run_cli("--config", str(p), *protocol, "generate")
        capsys.readouterr()
        assert run_cli("--config", str(p), *protocol, "--set", "model.retrieval_enabled=false", "eval") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "retrieval_enabled" in err
        assert not (tmp_path / "runs" / "seed_1").exists()


class TestGradCheckCommand:
    def test_grad_check_passes(self, capsys):
        assert run_cli("grad-check") == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestReproducibility:
    def test_end_to_end_byte_identical(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        run_cli("--config", str(p), "eval")
        report1 = (tmp_path / "runs" / "seed_1" / "report.json").read_bytes()
        curves1 = (tmp_path / "runs" / "seed_1" / "curves.csv").read_bytes()
        run_cli("--config", str(p), "generate")
        run_cli("--config", str(p), "eval")
        report2 = (tmp_path / "runs" / "seed_1" / "report.json").read_bytes()
        curves2 = (tmp_path / "runs" / "seed_1" / "curves.csv").read_bytes()
        assert report1 == report2
        assert curves1 == curves2

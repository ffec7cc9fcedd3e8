import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.recfunctions import repack_fields

from bankcast import cli
from bankcast.cli import main, resolve_config
from bankcast.data import SyntheticSpec, generate_synthetic_city, save_city
from bankcast.errors import ConfigError


def fast_config(tmp_path: Path, protocol: str = "coldstart") -> Path:
    """A tiny config that keeps CLI tests quick."""
    doc = {
        "protocol": protocol,
        "seeds": [1],
        "n_holdout": 3,
        "paths": {
            "dataset": str(tmp_path / "source.json"),
            "dataset_target": str(tmp_path / "target.json"),
            "checkpoint": str(tmp_path / "checkpoint.json"),
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

    def test_transfer_generates_both_cities(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="transfer")
        assert run_cli("--config", str(p), "generate") == 0
        assert (tmp_path / "target.json").exists()

    def test_config_hash_embedded(self, tmp_path):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        doc = json.loads((tmp_path / "source.json").read_text())
        frozen = json.loads((tmp_path / "runs" / "config.json").read_text())
        assert doc["config_hash"] == frozen["config_hash"]


class TestTrain:
    def test_dry_run(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "train", "--dry-run") == 0
        assert "dry run ok" in capsys.readouterr().out

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        assert run_cli("--config", str(p), "train") == 3

    def test_train_writes_artifacts(self, tmp_path, capsys):
        p = fast_config(tmp_path)
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "train") == 0
        assert (tmp_path / "checkpoint.json").exists()
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
        _edit_bank(tmp_path / "bank.bin", body=_flip_float_byte)
        assert run_cli("--config", str(p), "eval") == 5

    def test_transfer_eval(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="transfer")
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "eval") == 0
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        assert report["protocol"] == "transfer"
        assert report["extras"]["source_city"] == "source"


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _edit_bank(path: Path, header=lambda h: h, body=lambda b: b) -> None:
    """Rewrite a bank file's JSON header line and .npy body, as bytes."""
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header(head) + b"\n" + body(rest))


def _v1_header(head: bytes) -> bytes:
    return json.dumps({**json.loads(head), "format": "bankcast-bank-v1"}).encode()


def _one_more_entry(head: bytes) -> bytes:
    header = json.loads(head)
    return json.dumps({**header, "n_entries": header["n_entries"] + 1}).encode()


def _drop_future(body: bytes) -> bytes:
    entries = np.load(io.BytesIO(body))
    out = io.BytesIO()
    np.save(out, repack_fields(entries[["region_id", "anchor", "hour", "context", "history"]]))
    return out.getvalue()


def _flip_float_byte(body: bytes) -> bytes:
    # body[-8] is the lowest mantissa byte of the last entry's last future value
    return body[:-8] + bytes([body[-8] ^ 1]) + body[-7:]


def _grow_param(doc: dict) -> None:
    p = doc["params"]["fusion.scale"]
    p["values"].append(0.0)
    p["shape"] = [len(p["values"])]


def _narrower_city(path: Path) -> None:
    spec = SyntheticSpec(n_regions=10, d_c=6, n_archetypes=3, t_total=24 * 10 + 1, seed=5)
    save_city(generate_synthetic_city(spec, name="source"), path)


def case(id: str, artifact: str, corrupt, code: int):
    return pytest.param(artifact, corrupt, code, id=id)


CORRUPTIONS = [
    case("bank-header-not-json", "bank.bin", lambda p: _edit_bank(p, header=lambda _: b"not json"), 3),
    case("bank-header-not-object", "bank.bin", lambda p: _edit_bank(p, header=lambda _: b"[1, 2]"), 3),
    case("bank-header-v1", "bank.bin", lambda p: _edit_bank(p, header=_v1_header), 3),
    case("bank-header-count", "bank.bin", lambda p: _edit_bank(p, header=_one_more_entry), 3),
    case("bank-body-not-npy", "bank.bin", lambda p: _edit_bank(p, body=lambda _: b'{"region_id": 0}\n'), 3),
    case("bank-body-missing", "bank.bin", lambda p: _edit_bank(p, body=lambda _: b""), 3),
    case("bank-body-truncated", "bank.bin", lambda p: _edit_bank(p, body=lambda b: b[:-100]), 3),
    case("bank-no-future-field", "bank.bin", lambda p: _edit_bank(p, body=_drop_future), 3),
    case("bank-float-flipped", "bank.bin", lambda p: _edit_bank(p, body=_flip_float_byte), 5),
    case("ckpt-missing-param", "checkpoint.json",
         lambda p: _edit_json(p, lambda d: d["params"].pop("fusion.scale")), 3),
    case("ckpt-missing-model-config", "checkpoint.json", lambda p: _edit_json(p, lambda d: d.pop("model_config")), 3),
    case("ckpt-missing-norm", "checkpoint.json", lambda p: _edit_json(p, lambda d: d.pop("norm")), 3),
    case("ckpt-unknown-config-field", "checkpoint.json",
         lambda p: _edit_json(p, lambda d: d["model_config"].update(bogus=1)), 3),
    case("ckpt-param-shape", "checkpoint.json", lambda p: _edit_json(p, _grow_param), 3),
    case("ckpt-not-object", "checkpoint.json", lambda p: p.write_text("[]"), 3),
    case("ckpt-no-holdout", "checkpoint.json", lambda p: _edit_json(p, lambda d: d.pop("holdout")), 5),
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
    for name in ("source.json", "checkpoint.json", "bank.bin"):
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


class TestHoldoutGuard:
    def test_pretrained_eval_refuses_other_seeds(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        assert run_cli("--config", str(p), "--set", "seeds=[1, 2]", "eval") == 5
        assert "holds out regions" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "seed_1" / "report.json").exists()

    def test_pretrained_eval_uses_stored_holdout(self, trained_artifacts, tmp_path, capsys):
        p = copy_artifacts(trained_artifacts, tmp_path)
        assert run_cli("--config", str(p), "eval") == 0
        stored = json.loads((tmp_path / "checkpoint.json").read_text())["holdout"]
        report = json.loads((tmp_path / "runs" / "seed_1" / "report.json").read_text())
        assert stored == cli.choose_holdout(10, 3, 1)
        assert sorted(report["holdout"]) == stored


class TestAblate:
    def test_paired_reports(self, tmp_path, capsys):
        p = fast_config(tmp_path, protocol="ablation")
        run_cli("--config", str(p), "generate")
        assert run_cli("--config", str(p), "ablate") == 0
        doc = json.loads((tmp_path / "runs" / "seed_1" / "ablation.json").read_text())
        assert doc["arms"]["with_ret_loss"]["lambda_ret"] == 0.2
        assert doc["arms"]["no_ret_loss"]["lambda_ret"] == 0.0
        assert doc["arms"]["with_ret_loss"]["test"]["seed"] == 1
        assert doc["arms"]["no_ret_loss"]["test"]["seed"] == 1


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

import argparse
import csv
import io
import json
import shutil

import numpy as np
import pytest

from cascadefuse.cli import _load_split, run_command
from cascadefuse.data import (
    SyntheticProfile,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from cascadefuse.features import (
    VARIANTS,
    BundleConfig,
    build_bundle,
    build_bundles,
    build_vocabulary,
    fit_user_scaler,
)
from cascadefuse.model import ModelConfig, evaluate, load_checkpoint, train


def synthetic(seed, **profile):
    return split_dataset(generate_synthetic(6, seed=seed,
                                            profile_spec=SyntheticProfile(**profile)),
                         seed=seed)


def write_dataset(path, manifest):
    save_dataset(manifest, path)
    with open(str(path) + ".split.json", "w") as f:
        json.dump(manifest.split, f)
    return path


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("cli") / "stories.jsonl", synthetic(3))


def test_validate(tiny_dataset, capsys):
    assert run_command(["validate", "--input", str(tiny_dataset)]) == 0
    assert "12 stories" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert run_command(["validate", "--input", str(tmp_path / "nope.jsonl")]) != 0


def test_validate_rejects_non_finite_numbers(tmp_path, capsys):
    # json reads NaN and Infinity; the dataset boundary does not let them through
    user = {"desc_len": 1, "name_len": 2, "followers": float("nan"), "follows": 4,
            "posts": 5, "account_age_days": 6, "verified": 0, "geo": 1}
    line = json.dumps({"id": "a", "label": "true", "posts": [
        {"t": float("nan"), "followers": float("inf"), "text": "x", "user": user}]})
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert run_command(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "stories" not in captured.out
    assert captured.err.count("error:") == 1 and "line 1" in captured.err


def test_simulate(tmp_path):
    out = tmp_path / "sim.jsonl"
    assert run_command(["simulate", "--seed", "4", "--out", str(out)]) == 0
    assert out.exists()


def test_generate_synthetic(tmp_path):
    out = tmp_path / "syn.jsonl"
    assert run_command(["generate-synthetic", "--n-per-class", "2",
                        "--seed", "1", "--out", str(out)]) == 0
    assert sum(1 for _ in open(out)) == 4
    assert (tmp_path / "syn.jsonl.split.json").exists()


def test_infectiousness_csv(tiny_dataset, tmp_path):
    out = tmp_path / "series.csv"
    assert run_command(["infectiousness", "--input", str(tiny_dataset),
                        "--grid-hours", "5", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["story_id", "h1", "h2", "h3", "h4", "h5"]
    assert len(rows) == 13


def test_featurize(tiny_dataset, tmp_path):
    # `train` fits the featurizer on the train split alone, at --vocab-size
    ckpt = tmp_path / "model"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--max-epochs", "1", "--seq-len", "10",
                        "--vocab-size", "5"]) == 0
    manifest = synthetic(3)
    train = manifest.by_split()["train"]
    vocab, scaler = build_vocabulary(train, K=5), fit_user_scaler(train)
    # a fit on every story would give other terms and scaling
    assert build_vocabulary(manifest.stories, K=5).terms != vocab.terms
    assert not np.array_equal(fit_user_scaler(manifest.stories).means, scaler.means)
    meta = json.load(open(tmp_path / "model.json"))
    assert meta["vocabulary"] == {"terms": list(vocab.terms), "idf": vocab.idf.tolist()}
    assert meta["user_scaler"] == {"means": scaler.means.tolist(),
                                   "stds": scaler.stds.tolist()}
    assert meta["config"]["vocab_size"] == 5


def test_train_eval_roundtrip(tiny_dataset, tmp_path):
    ckpt = tmp_path / "model"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--variant", "full", "--max-epochs", "2",
                        "--seq-len", "10"]) == 0
    assert (tmp_path / "model.npz").exists()
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "model.history.json").exists()

    # the manifest carries the featurizer fit on the train split
    train = synthetic(3).by_split()["train"]
    vocab, scaler = build_vocabulary(train), fit_user_scaler(train)
    meta = json.load(open(tmp_path / "model.json"))
    assert meta["vocabulary"] == {"terms": list(vocab.terms), "idf": vocab.idf.tolist()}
    assert meta["user_scaler"] == {"means": scaler.means.tolist(),
                                   "stds": scaler.stds.tolist()}
    assert meta["config"]["vocab_size"] == vocab.size

    report = tmp_path / "report.json"
    assert run_command(["eval", "--input", str(tiny_dataset),
                        "--checkpoint", str(ckpt), "--out", str(report)]) == 0
    doc = json.load(open(report))
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert "per_class_f1" in doc


def test_eval_on_other_dataset_uses_checkpoint_featurizer(tiny_dataset, tmp_path):
    ckpt = tmp_path / "model"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--max-epochs", "2", "--seq-len", "10"]) == 0
    other = synthetic(11, shared_text=True)
    report = tmp_path / "report.json"
    assert run_command(["eval", "--input", str(write_dataset(tmp_path / "b.jsonl", other)),
                        "--checkpoint", str(ckpt), "--out", str(report)]) == 0

    train = synthetic(3).by_split()["train"]
    vocab, scaler = build_vocabulary(train), fit_user_scaler(train)
    # a refit on the eval input would index the terms differently
    assert build_vocabulary(other.by_split()["train"]).terms != vocab.terms
    params, config, _, _, temporal_scaler, _ = load_checkpoint(ckpt)
    bundles = [build_bundle(s, vocab, scaler, BundleConfig(seq_len=10))
               for s in other.by_split()["test"]]
    want = evaluate(bundles, params, config, scaler=temporal_scaler)
    assert json.load(open(report)) == json.loads(json.dumps(want.to_dict()))


def test_eval_rejects_checkpoint_of_another_version(tiny_dataset, tmp_path, capsys):
    (tmp_path / "old.json").write_text(json.dumps({"version": 1}))
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint",
                        str(tmp_path / "old"), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error: unsupported checkpoint version 1")


@pytest.fixture(scope="module")
def trained(tiny_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "model"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--max-epochs", "1", "--seq-len", "5"]) == 0
    return ckpt


def copy_checkpoint(src, dst, edit):
    """Copy a checkpoint to dst, passing its manifest through edit()."""
    shutil.copy(str(src) + ".npz", str(dst) + ".npz")
    meta = json.load(open(str(src) + ".json"))
    edit(meta)
    with open(str(dst) + ".json", "w") as f:
        json.dump(meta, f)
    return dst


def test_eval_rejects_label_outside_the_checkpoint_label_set(tiny_dataset, trained, tmp_path,
                                                            capsys):
    split = json.load(open(str(tiny_dataset) + ".split.json"))
    first_test = next(sid for sid, part in split.items() if part == "test")
    lines = []
    for line in open(tiny_dataset, encoding="utf-8"):
        obj = json.loads(line)
        obj["label_set"] = ["true", "fake", "unverified", "debunking"]
        if obj["id"] == first_test:
            obj["label"] = "unverified"
        lines.append(json.dumps(obj))
    data = tmp_path / "fourway.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    shutil.copy(str(tiny_dataset) + ".split.json", str(data) + ".split.json")
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert run_command(["eval", "--input", str(data), "--checkpoint", str(trained),
                        "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: label 'unverified'")
    assert "['true', 'fake']" in err
    assert not report.exists()


def test_eval_rejects_version_2_checkpoint(tiny_dataset, trained, tmp_path, capsys):
    # version 2 stored user_dim in the config
    def as_version_2(meta):
        meta["version"] = 2
        meta["config"]["user_dim"] = 8

    ckpt = copy_checkpoint(trained, tmp_path / "v2", as_version_2)
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported checkpoint version 2") and err.count("\n") == 1


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("vocabulary"), "missing key 'vocabulary'"),
    (lambda m: m["config"].update(user_dim=8), "unknown config fields ['user_dim']"),
    (lambda m: m["vocabulary"]["idf"].pop(), "terms and idf lengths differ"),
    (lambda m: m["config"].update(variant="bogus"), "unknown variant 'bogus'"),
    (lambda m: m["label_set"].append("unverified"), "parameters ['out_W', 'out_b']"),
    (lambda m: m["config"].update(E_s=0), "E_s 0 must be at least 1"),
    (lambda m: m["config"].update(E_l=-1, E_u=-1), "E_l -1 must be at least 1"),
])
def test_eval_rejects_malformed_manifest(tiny_dataset, trained, tmp_path, capsys,
                                         edit, message):
    ckpt = copy_checkpoint(trained, tmp_path / "bad", edit)
    report = tmp_path / "r.json"
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint", str(ckpt),
                        "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and err.count("\n") == 1
    assert message in err
    assert not report.exists()


@pytest.mark.parametrize("edit", [
    lambda v: v.pop("f2_W"),
    lambda v: v.update(extra=np.zeros(2)),
    lambda v: v.update(f2_W=v["f2_W"][:, :-1]),
])
def test_eval_rejects_parameters_that_do_not_fit_the_config(tiny_dataset, trained, tmp_path,
                                                           capsys, edit):
    # a missing parameter would otherwise keep its fresh random initialisation
    with np.load(str(trained) + ".npz") as npz:
        values = dict(npz)
    edit(values)
    np.savez(tmp_path / "bad.npz", **values)
    shutil.copy(str(trained) + ".json", tmp_path / "bad.json")
    report = tmp_path / "r.json"
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint",
                        str(tmp_path / "bad"), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {tmp_path / 'bad'}: parameters [")
    assert err.count("\n") == 1 and not report.exists()


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("dropout", "0.5"), ("E_l", True)])
def test_eval_checks_manifest_config_types(tiny_dataset, trained, tmp_path, capsys,
                                          field, value):
    ckpt = copy_checkpoint(trained, tmp_path / "bad", lambda m: m["config"].update({field: value}))
    report = tmp_path / "r.json"
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint", str(ckpt),
                        "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {ckpt}: {field} {value!r} is not of type " \
                  f"{'float' if field == 'dropout' else 'int'}\n"
    assert not report.exists()


def test_eval_rejects_manifest_that_is_not_json(tiny_dataset, trained, tmp_path, capsys):
    shutil.copy(str(trained) + ".npz", tmp_path / "bad.npz")
    (tmp_path / "bad.json").write_text('{"version": 3, "config": {')
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint",
                        str(tmp_path / "bad"), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {tmp_path / 'bad'}.json is not valid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_eval_rejects_manifest_that_is_not_an_object(tiny_dataset, trained, tmp_path, capsys,
                                                     text):
    shutil.copy(str(trained) + ".npz", tmp_path / "bad.npz")
    (tmp_path / "bad.json").write_text(text)
    report = tmp_path / "r.json"
    assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint",
                        str(tmp_path / "bad"), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {tmp_path / 'bad'}.json is not a JSON object\n"
    assert not report.exists()


def object_array_npz(original: bytes) -> bytes:
    """The checkpoint's arrays with one of them an object array."""
    with np.load(io.BytesIO(original)) as npz:
        values = dict(npz)
    values["f2_b"] = np.array([None, 1], dtype=object)
    buf = io.BytesIO()
    np.savez(buf, **values)
    return buf.getvalue()


def npz_with(name: str, value: float):
    """A rewrite of the checkpoint's arrays with the first entry of parameter name set to value."""
    def rewrite(original: bytes) -> bytes:
        with np.load(io.BytesIO(original)) as npz:
            values = dict(npz)
        values[name].flat[0] = value
        buf = io.BytesIO()
        np.savez(buf, **values)
        return buf.getvalue()
    return rewrite


def manifest_with(path: tuple, value):
    """A rewrite of the checkpoint manifest with the entry at path (keys and indices) set
    to value."""
    def rewrite(original: bytes) -> bytes:
        meta = target = json.loads(original)
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(meta).encode()
    return rewrite


def split_without(original: bytes, story_id: str) -> bytes:
    split = json.loads(original)
    del split[story_id]
    return json.dumps(split).encode()


# command, file replaced (as a function of its bytes), and a part of the error line;
# "train --split" is train with a --split file that does not exist
MALFORMED_INPUTS = {
    "split_list": ("train", "d.jsonl.split.json", lambda b: b"[1, 2]",
                   "d.jsonl.split.json is not a JSON object"),
    "split_truncated": ("train", "d.jsonl.split.json", lambda b: b[:len(b) // 2],
                        "d.jsonl.split.json is not valid JSON: "),
    "split_not_utf8": ("train", "d.jsonl.split.json", lambda b: b.replace(b"test", b"t\xe9st", 1),
                       "d.jsonl.split.json is not valid JSON: 'utf-8' codec can't decode"),
    "split_value": ("train", "d.jsonl.split.json", lambda b: b.replace(b'"train"', b'"Train"'),
                    "has split 'Train', not one of ['train', 'val', 'test']"),
    "split_story_missing": ("train", "d.jsonl.split.json", lambda b: split_without(b, "true-0"),
                            "d.jsonl.split.json: story 'true-0' of the dataset has no split"),
    "split_story_unknown": ("train", "d.jsonl.split.json",
                            lambda b: b.replace(b"{", b'{"true-99": "train", ', 1),
                            "d.jsonl.split.json: story 'true-99' is not in the dataset"),
    "dataset_not_utf8": ("train", "d.jsonl", lambda b: b.replace(b"news", b"n\xe9ws", 1),
                         "d.jsonl is not valid UTF-8 text: 'utf-8' codec can't decode"),
    "dataset_repeated_id": ("train", "d.jsonl", lambda b: b.split(b"\n")[0] + b"\n" + b,
                            "line 2: story id 'true-0' repeats line 1"),
    "npz_not_zip": ("eval", "m.npz", lambda b: b"not a zip archive",
                    "pickled"),
    "npz_truncated": ("eval", "m.npz", lambda b: b[:len(b) // 2],
                      "File is not a zip file"),
    "npz_empty": ("eval", "m.npz", lambda b: b"", "No data left in file"),
    "npz_object_array": ("eval", "m.npz", object_array_npz,
                         "Object arrays cannot be loaded"),
    "manifest_field": ("eval", "m.json", manifest_with(("config", "user_dim"), 8),
                       "unknown config fields ['user_dim']"),
    "npz_nan": ("eval", "m.npz", npz_with("f2_W", float("nan")),
                "parameters ['f2_W'] hold values that are not finite"),
    "npz_inf": ("eval", "m.npz", npz_with("out_b", float("-inf")),
                "parameters ['out_b'] hold values that are not finite"),
    "user_stds_zero": ("eval", "m.json", manifest_with(("user_scaler", "stds"), [0.0] * 6),
                       "user scaler stds must be positive"),
    "user_means_null": ("eval", "m.json", manifest_with(("user_scaler", "means"), None),
                        "user scaler means must be 6 finite numbers"),
    "user_means_short": ("eval", "m.json", manifest_with(("user_scaler", "means"), [0.0] * 3),
                         "user scaler means must be 6 finite numbers"),
    "idf_nan": ("eval", "m.json", manifest_with(("vocabulary", "idf", 0), float("nan")),
                "idf values must be finite"),
    "temporal_std_zero": ("eval", "m.json", manifest_with(("temporal_scaler", "std"), 0),
                          "temporal scaler std 0 is not positive"),
    "temporal_std_negative": ("eval", "m.json", manifest_with(("temporal_scaler", "std"), -1),
                              "temporal scaler std -1 is not positive"),
    "temporal_mean_string": ("eval", "m.json", manifest_with(("temporal_scaler", "mean"), "x"),
                             "temporal scaler mean 'x' is not a finite number"),
    "temporal_mean_null": ("eval", "m.json", manifest_with(("temporal_scaler", "mean"), None),
                           "temporal scaler mean None is not a finite number"),
    "manifest_seed_negative": ("eval", "m.json", manifest_with(("config", "seed"), -1),
                               "seed -1 must not be negative"),
    "manifest_label_repeated": ("eval", "m.json",
                                manifest_with(("label_set",), ["true", "fake", "true"]),
                                "label set ['true', 'fake', 'true'] repeats label 'true'"),
    "label_set_repeated": ("validate", "d.jsonl",
                           lambda b: b.replace(b'"label_set": ["true", "fake"]',
                                               b'"label_set": ["true", "fake", "true"]'),
                           "label set ['true', 'fake', 'true'] repeats label 'true'"),
    "label_not_utf8": ("import", "tree/label.txt", lambda b: b.replace(b"false", b"f\xe4lse"),
                       "label.txt is not valid UTF-8 text: 'utf-8' codec can't decode"),
    "tree_not_utf8": ("import", "tree/tree/e1.txt", lambda b: b.replace(b"u2", b"\xfc2"),
                      "e1.txt is not valid UTF-8 text: 'utf-8' codec can't decode"),
    "label_repeated_id": ("import", "tree/label.txt", lambda b: b + b,
                          "label.txt line 2: story id 'e1' repeats line 1"),
    "split_missing": ("train --split", "d.jsonl", lambda b: b, "nosuch.split.json"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_is_one_error_line(tiny_dataset, trained, tmp_path, capsys, case):
    command, name, rewrite, message = MALFORMED_INPUTS[case]
    for suffix in ("", ".split.json"):
        shutil.copy(f"{tiny_dataset}{suffix}", tmp_path / f"d.jsonl{suffix}")
    for suffix in (".npz", ".json"):
        shutil.copy(f"{trained}{suffix}", tmp_path / f"m{suffix}")
    (tmp_path / "tree" / "tree").mkdir(parents=True)
    (tmp_path / "tree" / "label.txt").write_text("false:e1\n", encoding="utf-8")
    (tmp_path / "tree" / "tree" / "e1.txt").write_text("['u1','t1',0.0]->['u2','t2',5.0]\n",
                                                        encoding="utf-8")
    target = tmp_path / name
    target.write_bytes(rewrite(target.read_bytes()))
    out = tmp_path / "out"
    out.mkdir()
    train = ["train", "--input", str(tmp_path / "d.jsonl"), "--out", str(out / "m"),
             "--max-epochs", "1", "--seq-len", "5"]
    argv = {"validate": ["validate", "--input", str(tmp_path / "d.jsonl")],
            "train": train,
            "train --split": train + ["--split", str(tmp_path / "nosuch.split.json")],
            "eval": ["eval", "--input", str(tmp_path / "d.jsonl"), "--checkpoint",
                     str(tmp_path / "m"), "--out", str(out / "r.json")],
            "import": ["import", "--input", str(tmp_path / "tree"),
                       "--out", str(out / "i.jsonl")]}[command]
    capsys.readouterr()
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    if command == "eval":
        assert err.startswith(f"error: checkpoint {tmp_path / 'm'}: ")
    assert not list(out.iterdir())


def test_train_rejects_config_tau_that_differs_from_the_labels(tiny_dataset, tmp_path,
                                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 3}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(out / "m"),
                        "--config", str(cfg), "--max-epochs", "1", "--seq-len", "5"]) == 1
    err = capsys.readouterr().err  # the label set fixes the class count; tau is no field
    assert err.startswith(f"error: {cfg}: unknown config fields ['tau']")
    assert err.count("\n") == 1
    assert not list(out.iterdir())


def test_train_rejects_config_keys_that_are_not_fields(tiny_dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dropuot": 0.9, "user_dim": 5, "E_l": 8}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(out / "m"),
                        "--config", str(cfg), "--max-epochs", "1", "--seq-len", "5"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: unknown config fields ['dropuot', 'user_dim']\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "is not a JSON object"),
    ('{"dropout": 0.5', "is not valid JSON"),
    (b"\xff\xfe{}", "is not valid JSON"),
    ('{"dropout": "0.5"}', "dropout '0.5' is not of type float"),
    ('{"seed": 1.5}', "seed 1.5 is not of type int"),
    ('{"patience": true}', "patience True is not of type int"),
    ('{"gru_form": "standard"}', "unknown config fields ['gru_form']"),
    ('{"f2_dim": 8}', "unknown config fields ['f2_dim']"),
    ('{"min_improvement": 0}', "unknown config fields ['min_improvement']"),
])
def test_train_rejects_config_file_that_is_not_a_config(tiny_dataset, tmp_path, capsys,
                                                        text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    out.mkdir()
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(out / "m"),
                        "--config", str(cfg), "--max-epochs", "1", "--seq-len", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not list(out.iterdir())


def test_train_rejects_unknown_variant(tiny_dataset, tmp_path, capsys):
    assert run_command(["train", "--input", str(tiny_dataset), "--out",
                        str(tmp_path / "m"), "--variant", "bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown variant 'bogus'")


def test_train_without_val_split_is_an_error(tmp_path, capsys):
    # 3 stories per class in train leave round(0.15 * 3) = 0 for val
    data = tmp_path / "small.jsonl"
    assert run_command(["generate-synthetic", "--n-per-class", "4", "--seed", "3",
                        "--out", str(data)]) == 0
    assert "val" not in json.load(open(str(data) + ".split.json")).values()
    capsys.readouterr()
    assert run_command(["train", "--input", str(data), "--out", str(tmp_path / "m"),
                        "--max-epochs", "1", "--seq-len", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: training and validation sets")


@pytest.mark.parametrize("values, message", [
    ({"dropout": 1.0}, "error: dropout 1.0 outside [0, 1)"),
    ({"dropout": -0.1}, "error: dropout -0.1 outside [0, 1)"),
    ({"E_l": -1, "E_u": -1}, "error: E_l -1 must be at least 1"),
    ({"E_s": 0}, "error: E_s 0 must be at least 1"),
    ({"E_l": 0, "E_u": 0}, "error: E_l 0 must be at least 1"),
    ({"embed_dim": 0}, "error: embed_dim 0 must be at least 1"),
    ({"seed": -1}, "error: seed -1 must not be negative"),
])
def test_train_rejects_invalid_model_config(tiny_dataset, tmp_path, capsys, values, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(tmp_path / "m"),
                        "--config", str(cfg), "--max-epochs", "1", "--seq-len", "10"]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--seq-len", "0", "error: seq_len 0 must be at least 1"),
    ("--seq-len", "-2", "error: seq_len -2 must be at least 1"),
    ("--max-epochs", "0", "error: max_epochs 0 must be at least 1"),
    ("--max-epochs", "-1", "error: max_epochs -1 must be at least 1"),
    ("--vocab-size", "-1", "error: vocab_size -1 must not be negative"),
])
def test_train_rejects_bad_sizes(tiny_dataset, tmp_path, capsys, option, value, message):
    # the last of a repeated option wins
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(tmp_path / "m"),
                        "--seq-len", "10", "--max-epochs", "1", option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_eval_rejects_model_options(tiny_dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_command(["eval", "--input", str(tiny_dataset), "--checkpoint", str(tmp_path / "m"),
                     "--out", str(tmp_path / "r.json"), "--variant", "no_time"])
    assert exc.value.code == 2


def test_checkpoint_named_with_npz_suffix(tiny_dataset, trained, tmp_path):
    # --out m.npz and --checkpoint m.npz name the same m.npz + m.json pair as m
    ckpt = tmp_path / "m.npz"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--max-epochs", "1", "--seq-len", "5"]) == 0
    for suffix in (".npz", ".json"):
        assert (tmp_path / f"m{suffix}").read_bytes() == open(f"{trained}{suffix}", "rb").read()
    assert not (tmp_path / "m.npz.npz").exists() and not (tmp_path / "m.npz.json").exists()
    # the history takes the checkpoint's base name too
    assert (tmp_path / "m.history.json").read_bytes() == \
        open(f"{trained}.history.json", "rb").read()
    assert not (tmp_path / "m.npz.history.json").exists()
    reports = []
    for name in (ckpt, tmp_path / "m", trained):
        report = tmp_path / f"r{len(reports)}.json"
        assert run_command(["eval", "--input", str(tiny_dataset), "--checkpoint", str(name),
                            "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_split_without_sidecar_follows_generate_synthetic(trained, tmp_path):
    # 2 stories per label are too few for a stratified split; without a
    # .split.json, eval splits the way generate-synthetic did
    data = tmp_path / "syn.jsonl"
    assert run_command(["generate-synthetic", "--n-per-class", "2", "--seed", "5",
                        "--out", str(data)]) == 0
    bare = tmp_path / "bare.jsonl"
    shutil.copy(data, bare)
    written = json.load(open(str(data) + ".split.json"))
    args = argparse.Namespace(input=str(bare), split=None, seed=5)
    assert _load_split(args, load_dataset(bare)).split == written
    reports = []
    for path in (data, bare):
        report = tmp_path / f"{path.stem}.report.json"
        assert run_command(["eval", "--input", str(path), "--seed", "5", "--checkpoint",
                            str(trained), "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_eval_without_seed_splits_with_the_checkpoint_seed(tiny_dataset, tmp_path):
    # with no sidecar, train splits with --seed 3, and eval without --seed must split the
    # same way, so that it scores only stories that training did not see
    bare = tmp_path / "bare.jsonl"
    shutil.copy(tiny_dataset, bare)
    ckpt = tmp_path / "m"
    assert run_command(["train", "--input", str(bare), "--out", str(ckpt), "--seed", "3",
                        "--max-epochs", "1", "--seq-len", "5"]) == 0
    reports = []
    for seed in ([], ["--seed", "3"]):
        report = tmp_path / f"r{len(reports)}.json"
        assert run_command(["eval", "--input", str(bare), "--checkpoint", str(ckpt),
                            "--out", str(report)] + seed) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_ablate_json(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "ablate.json"
    assert run_command(["ablate", "--input", str(tiny_dataset), "--out", str(out),
                        "--max-epochs", "2", "--seq-len", "10"]) == 0
    printed = capsys.readouterr().out.splitlines()
    splits = synthetic(3).by_split()
    vocab, scaler = build_vocabulary(splits["train"]), fit_user_scaler(splits["train"])
    want = {}
    for variant in VARIANTS:  # the oracle: featurize, train and score each variant in turn
        config = ModelConfig(variant=variant, seq_len=10, max_epochs=2, vocab_size=vocab.size)
        bundles = build_bundles(splits, vocab, scaler, config)
        params, _, temporal_scaler = train(bundles["train"], bundles["val"], config)
        want[variant] = evaluate(bundles["test"], params, config,
                                 scaler=temporal_scaler).to_dict()
    assert json.load(open(out)) == json.loads(json.dumps(want))
    assert printed == [f"{v}: accuracy {want[v]['accuracy']:.4f}" for v in VARIANTS]


def test_sweep_csv(tiny_dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_command(["sweep", "--input", str(tiny_dataset), "--out", str(out),
                        "--days", "0,1", "--max-epochs", "2",
                        "--seq-len", "10"]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["days", "accuracy"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]


@pytest.mark.parametrize("days", ["1,x", "", "0,-1"])
def test_sweep_rejects_bad_days(tiny_dataset, tmp_path, capsys, days):
    with pytest.raises(SystemExit) as exc:
        run_command(["sweep", "--input", str(tiny_dataset), "--out", str(tmp_path / "s.csv"),
                     "--days", days])
    assert exc.value.code == 2
    assert "argument --days" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "generate-synthetic", "train", "eval",
                                     "ablate", "sweep"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(tiny_dataset, tmp_path, capsys, command, seed):
    argv = [command, "--out", str(tmp_path / "o"), "--seed", seed]
    if command in ("train", "eval", "ablate", "sweep"):
        argv += ["--input", str(tiny_dataset)]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "m")]
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_rejects_non_positive_horizon(tmp_path, capsys):
    out = tmp_path / "sim.jsonl"
    assert run_command(["simulate", "--horizon-days", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: horizon must be positive and finite")
    assert not out.exists()


def test_import_command(tmp_path):
    (tmp_path / "tree").mkdir()
    (tmp_path / "label.txt").write_text("false:e1\n")
    (tmp_path / "tree" / "e1.txt").write_text("['u1','t1',0.0]->['u2','t2',5.0]\n")
    out = tmp_path / "imported.jsonl"
    assert run_command(["import", "--input", str(tmp_path), "--out", str(out)]) == 0
    assert out.exists()


def test_config_file_with_flag_override(tiny_dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "no_time", "max_epochs": 1,
                               "seq_len": 10, "E_l": 8, "E_u": 8}))
    ckpt = tmp_path / "m2"
    assert run_command(["train", "--input", str(tiny_dataset), "--out", str(ckpt),
                        "--config", str(cfg), "--variant", "freq"]) == 0
    meta = json.load(open(str(ckpt) + ".json"))
    assert meta["config"]["variant"] == "freq"  # flag overrides file
    assert meta["config"]["E_l"] == 8


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit):
        run_command(["frobnicate"])

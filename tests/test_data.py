import json
import math
from dataclasses import replace

import pytest

from simtlab.data import TaskSpec, ambiguous_text_ceiling, load_manifest, make_synthetic_dataset
from simtlab.errors import ConfigError, DataError
from simtlab.metrics import corpus_bleu


def test_load_manifest_without_dataset_json_raises(tmp_path):
    with pytest.raises(DataError, match="dataset.json"):
        load_manifest(tmp_path)


def test_ambiguous_text_ceiling_picks_each_types_majority_realization():
    manifest = {"pairs": {"amb00": ["w01", "w02"], "amb01": ["w03", "w04"]}}
    train = [(["amb00", "w05", "amb01"], ["w01", "w05", "w04"]),
             (["amb00", "w06"], ["w01", "w06"]),
             (["w07", "amb00"], ["w07", "w02"]),
             (["amb01", "w05"], ["w04", "w05"])]
    test = [(["w05", "w06", "w07", "w08", "amb00"], ["w05", "w06", "w07", "w08", "w02"]),
            (["amb01", "w05", "w06", "w07", "amb00"], ["w03", "w05", "w06", "w07", "w01"])]
    # majorities: amb00 -> w01 (2 of 3), amb01 -> w04 (2 of 2)
    hyps = [["w05", "w06", "w07", "w08", "w01"], ["w04", "w05", "w06", "w07", "w01"]]
    ceiling = ambiguous_text_ceiling(manifest, train, test)
    assert ceiling == corpus_bleu(hyps, [tgt for _, tgt in test])
    assert 0.0 < ceiling < corpus_bleu([tgt for _, tgt in test], [tgt for _, tgt in test])


@pytest.mark.parametrize("field, value, problem", [
    ("vocab_size", 0, "vocab_size must be at least 1, got 0"),
    ("feature_noise", -1.0, "feature_noise must be at least 0, got -1.0"),
    ("feature_noise", math.nan, "feature_noise must be at least 0, got nan"),
    ("n_ambiguous_types", -1, "n_ambiguous_types must be at least 0, got -1")])
def test_task_spec_rejects_an_empty_vocabulary_and_negative_or_nan_noise(field, value, problem):
    with pytest.raises(ConfigError, match=f"TaskSpec.{problem}"):
        TaskSpec(task="copy" if field == "vocab_size" else "ambiguous", **{field: value})
    TaskSpec(vocab_size=1)


def test_pure_noise_features_are_generated(tmp_path):
    spec = TaskSpec(task="ambiguous", n_train=2, n_valid=1, n_test=1, feature_noise=math.inf)
    manifest = make_synthetic_dataset(spec, tmp_path, seed=0)
    assert manifest["feature_noise"] == math.inf
    assert manifest["counts"] == {"train": 2, "valid": 1, "test": 1}
    assert (tmp_path / "test.feat").exists()


def _reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_pure_noise_manifest_is_valid_json_and_loads_back_as_inf(tmp_path):
    spec = TaskSpec(task="ambiguous", n_train=2, n_valid=1, n_test=1, feature_noise=math.inf)
    make_synthetic_dataset(spec, tmp_path, seed=0)
    text = (tmp_path / "dataset.json").read_text(encoding="utf-8")
    assert json.loads(text, parse_constant=_reject_constant)["feature_noise"] == "inf"
    assert load_manifest(tmp_path)["feature_noise"] == math.inf
    make_synthetic_dataset(replace(spec, feature_noise=0.25), tmp_path, seed=0)
    assert load_manifest(tmp_path)["feature_noise"] == 0.25


def test_make_synthetic_dataset_rejects_a_negative_seed_before_writing(tmp_path):
    out = tmp_path / "data"
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        make_synthetic_dataset(TaskSpec(), out, seed=-1)
    assert not out.exists()

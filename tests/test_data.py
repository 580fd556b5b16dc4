import pytest

from simtlab.data import ambiguous_text_ceiling, load_manifest
from simtlab.errors import DataError
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

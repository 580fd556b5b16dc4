import struct

import numpy as np
import pytest

from simtlab.errors import ConfigError, FormatError, ShapeError
from simtlab.features import MAGIC, FeatureSet, check_feature_sets, load_features, write_features


def _sets(rng, count=3, rows=4, cols=5):
    # float32-representable values survive the float32 payload exactly
    return [FeatureSet("grid", rng.normal(size=(rows, cols)).astype(np.float32))
            for _ in range(count)]


def test_write_load_round_trip_is_exact_at_float32(tmp_path):
    sets = _sets(np.random.default_rng(0))
    path = tmp_path / "train.feat"
    write_features(path, sets)
    loaded = load_features(path)
    assert [f.variant for f in loaded] == ["grid"] * 3
    for got, want in zip(loaded, sets, strict=True):
        assert got.matrix.dtype == np.float32
        assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("given, held", [(np.float32, np.float32), (np.float64, np.float64),
                                         (np.float16, np.float64), (np.int64, np.float64)])
def test_feature_set_keeps_float32_and_holds_anything_else_as_float64(given, held):
    matrix = np.arange(6).reshape(2, 3).astype(given)
    fs = FeatureSet("grid", matrix)
    assert fs.matrix.dtype == held
    assert np.array_equal(fs.matrix, matrix)
    if given in (np.float32, np.float64):
        assert fs.matrix is matrix  # no copy at the precision it already has


def _header(tag=0, count=1, rows=2, cols=3):
    return MAGIC + struct.pack("<BIII", tag, count, rows, cols)


@pytest.mark.parametrize("blob, message", [
    (b"SIMTFEAT0" + bytes(13 + 24), "bad magic"),
    (MAGIC + bytes(5), "truncated header"),
    (_header() + bytes(23), "expected 46 bytes"),
    (_header(tag=7) + bytes(24), "unknown variant tag"),
], ids=["bad-magic", "truncated-header", "short-payload", "unknown-tag"])
def test_malformed_feature_files_raise_format_error(tmp_path, blob, message):
    path = tmp_path / "bad.feat"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=message):
        load_features(path)


def test_a_sample_no_feature_set_allows_names_the_file_and_sample(tmp_path):
    # the second of two samples holds an Inf; in memory the same matrix is a ShapeError
    values = np.ones((2, 2, 3), dtype=np.float32)
    values[1, 0, 2] = np.inf
    path = tmp_path / "bad.feat"
    path.write_bytes(_header(count=2) + values.astype("<f4").tobytes())
    with pytest.raises(FormatError, match=r"bad.feat: sample 1: feature matrix contains NaN/Inf"):
        load_features(path)
    with pytest.raises(ShapeError, match="NaN/Inf"):
        FeatureSet("grid", values[1])


def test_check_feature_sets_accepts_only_sets_of_the_configured_shape():
    good = FeatureSet("grid", np.ones((2, 3)))
    check_feature_sets([good, good], (2, 3), "model")
    check_feature_sets([], (2, 3), "model")
    with pytest.raises(ConfigError, match="model requires visual features; entry 1 has none"):
        check_feature_sets([good, None], (2, 3), "model")
    with pytest.raises(ConfigError, match=r"model: feature geometry \(3, 2\) of entry 0 does not "
                                          r"match the configured \(2, 3\)"):
        check_feature_sets([FeatureSet("grid", np.ones((3, 2))), good], (2, 3), "model")

import numpy as np
import pytest

from simtlab.autodiff import Tensor
from simtlab.checkpoint import (file_sha256, load_checkpoint, load_into,
                                read_metadata, save_checkpoint, write_metadata)
from simtlab.errors import FormatError


def _random_params(rng):
    return [("emb", Tensor(rng.normal(size=(5, 3)))),
            ("w", Tensor(rng.normal(size=(3, 4)))),
            ("b", Tensor(rng.normal(size=4))),
            ("scalarish", Tensor(rng.normal(size=(1,))))]


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    params = _random_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == [name for name, _ in params]
    for name, tensor in params:
        assert np.array_equal(loaded[name], tensor.data)


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    params = _random_params(rng)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert file_sha256(a) == file_sha256(b)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT!" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_reports_byte_counts(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _random_params(rng))
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(FormatError, match=r"need \d+ bytes, file has \d+"):
        load_checkpoint(path)


def test_load_into_validates_names_and_shapes(tmp_path):
    rng = np.random.default_rng(3)
    params = _random_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)

    wrong_shape = [(n, Tensor(np.zeros((2, 2)))) for n, _ in params]
    with pytest.raises(FormatError, match="shape"):
        load_into(path, wrong_shape)

    missing = params + [("extra", Tensor(np.zeros(1)))]
    with pytest.raises(FormatError, match="missing parameter 'extra'"):
        load_into(path, missing)

    fresh = [(n, Tensor(np.zeros_like(t.data))) for n, t in params]
    load_into(path, fresh)
    for (_, a), (_, b) in zip(fresh, params):
        assert np.array_equal(a.data, b.data)


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "model.meta"
    write_metadata(path, {
        "format": "1",
        "multimodal": True,
        "emb_dim": 200,
        "src_vocab": ["<pad>", "<bos>", "<eos>", "<unk>", "w01", "w02"],
    })
    meta = read_metadata(path)
    assert meta["multimodal"] == "true"
    assert meta["emb_dim"] == "200"
    assert meta["src_vocab"].split() == ["<pad>", "<bos>", "<eos>", "<unk>", "w01", "w02"]


def _tiny_env_model(multimodal=False):
    from simtlab.environment import EnvConfig, EnvModel
    from simtlab.vocab import Vocabulary

    cfg = EnvConfig(emb_dim=5, hid_dim=6, multimodal=multimodal,
                    feature_rows=2 if multimodal else 0, feature_dim=3 if multimodal else 0)
    return EnvModel(Vocabulary(["a", "b"]), Vocabulary(["x", "y", "z"]), cfg,
                    np.random.default_rng(4))


@pytest.mark.parametrize("multimodal", [False, True])
def test_env_model_round_trip_fused_layout(tmp_path, multimodal):
    from simtlab.environment import EnvModel

    model = _tiny_env_model(multimodal)
    model.save(tmp_path / "env")
    names = list(load_checkpoint(tmp_path / "env.ckpt"))
    assert names[2:5] == ["enc1.w_x", "enc1.w_h", "enc1.b"]
    loaded = EnvModel.load(tmp_path / "env")
    assert loaded.enc2.w_x.data.shape == (6, 18) and loaded.dec1.w_x.data.shape == (5, 18)
    assert [n for n, _ in loaded.named_tensors()] == [n for n, _ in model.named_tensors()]
    for (_, a), (_, b) in zip(loaded.named_tensors(), model.named_tensors()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("kind", ["agent", "baseline"])
def test_agent_round_trip_fused_layout(tmp_path, kind):
    from simtlab.agent import AgentConfig, AgentNetwork, BaselineNetwork

    net_cls = AgentNetwork if kind == "agent" else BaselineNetwork
    cfg = AgentConfig(text_dim=6, emb_dim=5, hidden_dim=7, key_dim=5, use_init=True,
                      use_att=True, feature_rows=2, feature_dim=3)
    net = net_cls(cfg, np.random.default_rng(5))
    net.save(tmp_path / kind)
    names = list(load_checkpoint(tmp_path / f"{kind}.ckpt"))
    assert names[:3] == ["gru.w_x", "gru.w_h", "gru.b"]
    loaded = net_cls.load(tmp_path / kind)
    assert loaded.gru.w_x.data.shape == (cfg.obs_dim, 21)
    for (name, a), (_, b) in zip(loaded.named_tensors(), net.named_tensors()):
        assert np.array_equal(a.data, b.data), name


def test_per_gate_checkpoint_is_rejected(tmp_path):
    from simtlab.environment import EnvModel

    model = _tiny_env_model()
    model.save(tmp_path / "env")
    # rewrite the GRU tensors in the per-gate layout (w_xr, w_hr, b_r, ...)
    per_gate = []
    for name, t in model.named_tensors():
        prefix, _, field = name.rpartition(".")
        if field not in ("w_x", "w_h", "b"):
            per_gate.append((name, t))
            continue
        kind = {"w_x": "w_x", "w_h": "w_h", "b": "b_"}[field]
        for gate, part in zip("rzn", np.split(t.data, 3, axis=-1)):
            per_gate.append((f"{prefix}.{kind}{gate}", Tensor(part)))
    save_checkpoint(tmp_path / "env.ckpt", per_gate)
    with pytest.raises(FormatError, match="missing parameter 'enc1.w_x'"):
        EnvModel.load(tmp_path / "env")

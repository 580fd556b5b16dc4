import pytest

from simtlab.errors import DataError
from simtlab.vocab import BOS, EOS, PAD, RESERVED, UNK, Vocabulary


def test_duplicate_tokens_raise_data_error():
    with pytest.raises(DataError, match="duplicate tokens"):
        Vocabulary(["a", "b", "a"])
    with pytest.raises(DataError, match="duplicate tokens"):
        Vocabulary(["a", "<eos>"])  # a reserved string is taken too


def test_from_corpus_orders_by_count_then_token_and_drops_reserved():
    vocab = Vocabulary.from_corpus([["b", "c", "a", "<eos>"], ["c", "a", "<unk>", "d"], ["c"]])
    assert vocab.tokens == RESERVED + ("c", "a", "b", "d")
    assert len(vocab) == 8
    assert [vocab.id(t) for t in RESERVED] == [PAD, BOS, EOS, UNK]


def test_out_of_vocabulary_tokens_encode_to_unk():
    vocab = Vocabulary(["a", "b"])
    assert vocab.encode(["b", "zz", "a", ""]) == [5, UNK, 4, UNK]


@pytest.mark.parametrize("token_id", [-1, 6])
def test_token_rejects_ids_out_of_range(token_id):
    vocab = Vocabulary(["a", "b"])
    with pytest.raises(DataError, match=rf"token id {token_id} out of range \[0, 6\)"):
        vocab.token(token_id)
    assert vocab.token(5) == "b"


def test_decode_strips_reserved_tokens_unless_asked_to_keep_them():
    vocab = Vocabulary(["a", "b"])
    ids = [BOS, 4, UNK, 5, EOS, PAD]
    assert vocab.decode(ids) == ["a", "b"]
    assert vocab.decode(ids, strip_reserved=False) == ["<bos>", "a", "<unk>", "b", "<eos>",
                                                       "<pad>"]

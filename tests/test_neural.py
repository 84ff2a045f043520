"""Forward oracles, gradient checks, training behavior, persistence."""

from __future__ import annotations

import math
import re
import struct
import zlib

import numpy as np
import pytest

from qfs.embeddings import DenseStore, load_word_embeddings
from qfs.errors import EmptyInput, MalformedInput, MissingInput, QfsError
from qfs.neural import (
    KINDS,
    LabeledExample,
    TrainConfig,
    forward,
    load_params,
    save_params,
    train,
    training,
)
from qfs.neural.lstm import bilstm_encode, lstm_forward, lstm_shapes
from qfs.neural.models import Params, init_params, position_feature
from qfs.neural.ops import bce_loss

from conftest import load_each_corruption
from gradcheck import grad_check


def oracle_lstm_states(blocks, direction, xs):
    """Independent scalar-loop implementation of the recurrences."""
    w_x, w_h, b = (blocks[f"{direction}.{name}"] for name in ("w_x", "w_h", "b"))

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    hdim = w_h.shape[1]
    h = [0.0] * hdim
    c = [0.0] * hdim
    states = []
    for x in xs:
        a = [
            sum(w_x[r][k] * x[k] for k in range(len(x)))
            + sum(w_h[r][k] * h[k] for k in range(hdim))
            + b[r]
            for r in range(4 * hdim)
        ]
        new_h, new_c = [], []
        for j in range(hdim):
            i_g = sig(a[j])
            f_g = sig(a[hdim + j])
            o_g = sig(a[2 * hdim + j])
            g_g = math.tanh(a[3 * hdim + j])
            cj = f_g * c[j] + i_g * g_g
            new_c.append(cj)
            new_h.append(o_g * math.tanh(cj))
        h, c = new_h, new_c
        states.append(list(h))
    return states


def random_lstm_blocks(rng, emb_dim, hidden_dim) -> dict[str, np.ndarray]:
    """Both directions' blocks, drawn in block order: w_x, w_h, b per direction."""
    blocks = {}
    for name, shape in lstm_shapes(emb_dim, hidden_dim).items():
        scale = 0.3 if name.endswith(".b") else 0.6
        blocks[name] = rng.uniform(-scale, scale, size=shape)
    return blocks


def zero_lstm_blocks(emb_dim, hidden_dim) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape) for name, shape in lstm_shapes(emb_dim, hidden_dim).items()}


class TestBilstmEncode:
    def test_zero_params_give_zero_vector(self):
        blocks = zero_lstm_blocks(3, 2)
        encoded, _ = bilstm_encode(blocks, np.random.default_rng(0).normal(size=(4, 3)))
        assert np.array_equal(encoded, np.zeros(4))

    def test_single_step_concatenates_both_directions(self):
        rng = np.random.default_rng(1)
        blocks = random_lstm_blocks(rng, 3, 2)
        x = rng.normal(size=(1, 3))
        encoded, _ = bilstm_encode(blocks, x)
        hf, _ = lstm_forward(blocks, "lstm_fwd", x)
        hb, _ = lstm_forward(blocks, "lstm_bwd", x)
        assert np.allclose(encoded, np.concatenate([hf[0], hb[0]]))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        blocks = random_lstm_blocks(rng, 3, 2)
        xs = rng.normal(size=(3, 3))
        fwd_states = oracle_lstm_states(blocks, "lstm_fwd", xs.tolist())
        bwd_states = oracle_lstm_states(blocks, "lstm_bwd", xs[::-1].tolist())[::-1]
        expected = np.mean(
            [np.concatenate([f, b]) for f, b in zip(fwd_states, bwd_states)], axis=0
        )
        encoded, _ = bilstm_encode(blocks, xs)
        assert np.allclose(encoded, expected, atol=1e-9)

    def test_empty_sequence_rejected(self):
        blocks = zero_lstm_blocks(3, 2)
        with pytest.raises(EmptyInput, match=re.escape("encoder input must be a non-empty (n, E)")):
            bilstm_encode(blocks, np.zeros((0, 3)))


def zeroed_nnc(emb_dim=3, lstm_hidden=2, dense_hidden=4) -> Params:
    params = init_params(
        "nnc", emb_dim=emb_dim, lstm_hidden=lstm_hidden, dense_hidden=dense_hidden
    )
    for arr in params.blocks.values():
        arr[...] = 0.0
    return params


class TestNncForward:
    def test_all_zero_params_give_half(self):
        rng = np.random.default_rng(3)
        params = zeroed_nnc()
        prob = forward(params, rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), 0.5)
        assert prob == pytest.approx(0.5)

    def test_interaction_is_elementwise_square_when_q_equals_s(self):
        rng = np.random.default_rng(4)
        params = init_params("nnc", emb_dim=3, lstm_hidden=2, dense_hidden=4, seed=4)
        x = rng.normal(size=(3, 3))
        s_vec, _ = bilstm_encode(params.blocks, x)
        _, backward = KINDS["nnc"].apply(params, x, x, 0.7)
        grads = backward(1)
        # d hidden.w = outer(d hidden.b, head input), so a row with a
        # non-zero bias gradient recovers the head input.
        i = int(np.argmax(np.abs(grads["hidden.b"])))
        assert grads["hidden.b"][i] != 0.0
        head_x = grads["hidden.w"][i] / grads["hidden.b"][i]
        # input layout: [sentence ; interaction ; position]
        assert np.allclose(head_x[:4], s_vec)
        assert np.allclose(head_x[4:8], s_vec**2)
        assert head_x[-1] == pytest.approx(0.7)

    def test_matches_hand_traced_forward(self):
        """Full forward recomputed with the independent scalar oracle."""
        rng = np.random.default_rng(5)
        blocks = random_lstm_blocks(rng, 2, 2)
        hidden_w, hidden_b = rng.uniform(-0.4, 0.4, size=(3, 9)), rng.uniform(-0.1, 0.1, 3)
        output_w, output_b = rng.uniform(-0.4, 0.4, size=(1, 3)), np.array([0.05])
        blocks.update({"hidden.w": hidden_w, "hidden.b": hidden_b,
                       "output.w": output_w, "output.b": output_b})
        params = Params("nnc", {"emb_dim": 2, "lstm_hidden": 2, "dense_hidden": 3}, blocks)

        q = rng.normal(size=(2, 2))
        pos = 0.25

        def encode(xs):
            f = oracle_lstm_states(blocks, "lstm_fwd", xs.tolist())
            b = oracle_lstm_states(blocks, "lstm_bwd", xs[::-1].tolist())[::-1]
            rows = [np.concatenate([fi, bi]) for fi, bi in zip(f, b)]
            return np.mean(rows, axis=0)

        # The second case is q == s, where the interaction is the
        # elementwise square of the sentence embedding.
        for s in (rng.normal(size=(2, 2)), q):
            q_vec, s_vec = encode(q), encode(s)
            x = np.concatenate([s_vec, s_vec * q_vec, [pos]])
            h = np.maximum(hidden_w @ x + hidden_b, 0.0)
            z = output_w[0] @ h + output_b[0]
            expected = 1.0 / (1.0 + math.exp(-z))

            assert forward(params, q, s, pos) == pytest.approx(expected, abs=1e-9)

    def test_empty_matrix_rejected(self):
        params = zeroed_nnc()
        with pytest.raises(EmptyInput, match="^question and sentence matrices must be non-empty$"):
            forward(params, np.zeros((0, 3)), np.ones((1, 3)), 0.5)


class TestPooledForward:
    def test_all_zero_params_give_half(self):
        params = init_params("pooled", input_dim=2, dense_hidden=3)
        for arr in params.blocks.values():
            arr[...] = 0.0
        assert forward(params, np.array([1.0, 2.0]), 1.0) == pytest.approx(0.5)


class TestBceLoss:
    def test_half_prediction(self):
        assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0))

    def test_confident_correct(self):
        assert bce_loss(1.0 - 1e-7, 1) == pytest.approx(1e-7, abs=1e-9)

    def test_confident_wrong_clamped(self):
        assert bce_loss(1e-7, 1) == pytest.approx(-math.log(1e-7), rel=1e-6)
        assert bce_loss(0.0, 1) == pytest.approx(-math.log(1e-7), rel=1e-6)

    def test_symmetric_labels(self):
        assert bce_loss(0.3, 0) == pytest.approx(bce_loss(0.7, 1))


class TestGradCheck:
    def test_pooled_model(self):
        rng = np.random.default_rng(10)
        params = init_params("pooled", input_dim=4, dense_hidden=5, seed=10)
        err = grad_check(params, (rng.normal(size=4), 0.5), label=1)
        assert err < 1e-4

    def test_nnc_model_including_gates(self):
        rng = np.random.default_rng(11)
        params = init_params("nnc", emb_dim=3, lstm_hidden=3, dense_hidden=4, seed=11)
        for arr in params.blocks.values():
            arr += rng.uniform(-0.3, 0.3, size=arr.shape)
        inputs = (rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), position_feature(2))
        assert grad_check(params, inputs, label=0) < 1e-4

    def test_dead_relu_path_passes_via_absolute_fallback(self):
        params = init_params("pooled", input_dim=2, dense_hidden=3, seed=12)
        # drive every hidden pre-activation negative: relu output is 0,
        # so hidden-layer gradients vanish identically
        params.blocks["hidden.w"][...] = 0.0
        params.blocks["hidden.b"][...] = -5.0
        err = grad_check(params, (np.array([1.0, 1.0]), 1.0), label=1)
        assert err < 1e-4


class TestBackwardClosure:
    @pytest.mark.parametrize("kind", ["nnc", "pooled"])
    def test_backward_repeats_and_leaves_the_parameters_alone(self, kind):
        rng = np.random.default_rng(13)
        if kind == "nnc":
            params = init_params("nnc", emb_dim=3, lstm_hidden=2, dense_hidden=4, seed=13)
            inputs = (rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), 0.5)
        else:
            params = init_params("pooled", input_dim=3, dense_hidden=4, seed=13)
            inputs = (rng.normal(size=3), 0.5)
        for arr in params.blocks.values():
            arr += rng.uniform(-0.3, 0.3, size=arr.shape)
        mask = np.array([2.0, 0.0, 2.0, 2.0])
        before = {name: arr.copy() for name, arr in params.blocks.items()}
        apply = KINDS[kind].apply

        _, backward = apply(params, *inputs, dropout_mask=mask)
        for label in (1, 0, 1):
            grads = backward(label)
            fresh = apply(params, *inputs, dropout_mask=mask)[1](label)
            assert list(grads) == list(fresh)
            assert sorted(grads) == sorted(params.blocks)
            for name, grad in grads.items():
                assert np.array_equal(grad, fresh[name])
        for name, arr in params.blocks.items():
            assert np.array_equal(arr, before[name])


NO_VECTORS = DenseStore([], np.zeros((0, 2)))


def separable_fixture(n_per_class=4):
    """2-D pooled examples whose sign of (x0 + x1) gives the label, and their store."""
    examples, vectors = [], {}
    idx = 0
    for sign, label in ((1.0, 1), (-1.0, 0)):
        for i in range(n_per_class):
            pair_id = f"q#{idx}"
            vectors[pair_id] = sign * np.array([2.0 + i, 1.5 + 0.5 * i])
            examples.append(
                LabeledExample(
                    question_text="q",
                    sentence_text="s",
                    position=idx,
                    label=label,
                    pair_id=pair_id,
                )
            )
            idx += 1
    return examples, DenseStore(vectors, np.stack(list(vectors.values())))


class TestTraining:
    def test_separable_fixture_reaches_full_accuracy(self):
        examples, vectors = separable_fixture()
        config = TrainConfig(epochs=200, batch_size=len(examples), learning_rate=1e-3)
        result = train("pooled", examples, vectors, config)
        correct = 0
        for ex in examples:
            prob = forward(result.params, vectors[ex.pair_id], position_feature(ex.position))
            correct += (prob >= 0.5) == (ex.label == 1)
        assert correct == len(examples)
        assert len(result.loss_history) == 200

    def test_loss_non_increasing_on_separable_fixture(self):
        examples, vectors = separable_fixture()
        config = TrainConfig(epochs=50, batch_size=len(examples), learning_rate=1e-3)
        result = train("pooled", examples, vectors, config)
        for earlier, later in zip(result.loss_history, result.loss_history[1:]):
            assert later <= earlier + 1e-12

    def test_same_seed_bit_identical(self):
        examples, vectors = separable_fixture()
        config = TrainConfig(epochs=5, batch_size=3, dropout_rate=0.4, seed=42)
        a = train("pooled", examples, vectors, config)
        b = train("pooled", examples, vectors, config)
        for key, arr in a.params.blocks.items():
            assert np.array_equal(arr, b.params.blocks[key])
        assert a.loss_history == b.loss_history

    def test_zero_dropout_invariant_to_mask_stream(self, monkeypatch):
        examples, vectors = separable_fixture()
        config = TrainConfig(epochs=3, batch_size=4, dropout_rate=0.0, seed=7)
        monkeypatch.setattr(training, "DROPOUT_STREAM", 1)
        a = train("pooled", examples, vectors, config)
        monkeypatch.setattr(training, "DROPOUT_STREAM", 999)
        b = train("pooled", examples, vectors, config)
        for key, arr in a.params.blocks.items():
            assert np.array_equal(arr, b.params.blocks[key])

    def test_nnc_training_runs_and_is_deterministic(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\nflu 1 0\nbad 0 1\ngood 1 1\n", encoding="utf-8")
        words = load_word_embeddings(path)
        examples = [
            LabeledExample("flu", "good flu", position=0, label=1),
            LabeledExample("flu", "bad", position=1, label=0),
        ]
        config = TrainConfig(epochs=3, batch_size=2, seed=1, clip_len=10)
        a = train("nnc", examples, words, config, lstm_hidden=3, dense_hidden=4)
        b = train("nnc", examples, words, config, lstm_hidden=3, dense_hidden=4)
        assert a.loss_history == b.loss_history
        assert len(a.loss_history) == 3

    def test_pooled_input_without_a_record_is_missing_input(self):
        with pytest.raises(MissingInput, match="^no context-embedding record for pair id 'q1#9'$"):
            KINDS["pooled"].input(NO_VECTORS, ("a",), ("b",), "q1#9", 9, 10)

    def test_nnc_input_encodes_a_text_without_tokens_as_one_zero_row(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 2\nflu 1 0\n", encoding="utf-8")
        q, s, _ = KINDS["nnc"].input(load_word_embeddings(path), (), ("flu",), None, 0, 10)
        assert np.array_equal(q, np.zeros((1, 2)))
        assert np.array_equal(s, [[1.0, 0.0]])

    # The words `qfs train` prints after a labels file's line (tests/test_cli.py).
    @pytest.mark.parametrize("field, value, message", [
        ("label", 2, "label must be 0 or 1, not 2"),
        ("position", -1, "position must be >= 0, not -1"),
    ])
    def test_labeled_example_refuses_a_label_or_position_out_of_range(self, field, value,
                                                                      message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabeledExample("flu", "good flu", **{"position": 0, "label": 1, field: value})

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInput, match="^training requires at least one example$"):
            train("pooled", [], NO_VECTORS, TrainConfig())

    def test_non_finite_loss_aborts_with_diagnostics(self):
        examples, vectors = separable_fixture(n_per_class=1)
        bad = DenseStore(vectors.ids, np.tile([np.inf, 1.0], (len(vectors), 1)))
        # No RuntimeWarning either: pytest turns any warning into an error.
        with pytest.raises(
            QfsError, match="^non-finite loss at epoch 1, batch starting at example 0$"
        ) as err:
            train("pooled", examples, bad, TrainConfig(epochs=1, batch_size=2))
        assert err.type is QfsError

    def test_forward_outputs_stay_in_open_interval(self):
        examples, vectors = separable_fixture()
        config = TrainConfig(epochs=100, batch_size=8, learning_rate=5e-2)
        result = train("pooled", examples, vectors, config)
        for ex in examples:
            prob = forward(result.params, vectors[ex.pair_id], position_feature(ex.position))
            assert 0.0 < prob < 1.0


class TestParamsIO:
    def test_nnc_roundtrip(self, tmp_path):
        params = init_params("nnc", emb_dim=3, lstm_hidden=2, dense_hidden=4, seed=9)
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        loaded, clip_len = load_params(path)
        assert loaded.kind == "nnc"
        assert loaded.seed == 9
        assert clip_len == KINDS["nnc"].train_defaults.clip_len
        assert loaded.dims == {"emb_dim": 3, "lstm_hidden": 2, "dense_hidden": 4}
        assert list(loaded.blocks) == list(params.blocks)
        for key, arr in params.blocks.items():
            assert np.array_equal(arr, loaded.blocks[key])

    def test_pooled_roundtrip(self, tmp_path):
        params = init_params("pooled", input_dim=6, dense_hidden=4, seed=3)
        path = tmp_path / "p.qfsm"
        save_params(params, path, clip_len=7)
        loaded, clip_len = load_params(path, expected_kind="pooled")
        assert clip_len == 7
        for key, arr in params.blocks.items():
            assert np.array_equal(arr, loaded.blocks[key])

    @pytest.mark.parametrize("params", [
        init_params("nnc", emb_dim=2, lstm_hidden=1, dense_hidden=2, seed=5),
        init_params("pooled", input_dim=3, dense_hidden=2, seed=6),
    ], ids=["nnc", "pooled"])
    def test_version_1_loads_with_the_kind_default_clip_len(self, tmp_path, params):
        path = tmp_path / "m.qfsm"
        save_params(params, path, clip_len=2)
        kind = KINDS[params.kind]
        clip_at = 4 + 13 + 4 * len(kind.header)
        v2 = path.read_bytes()[:-4]
        assert struct.unpack_from("<I", v2, 4) == (2,)
        assert struct.unpack_from("<I", v2, clip_at) == (2,)
        v1 = bytearray(v2[:clip_at] + v2[clip_at + 4 :])
        struct.pack_into("<I", v1, 4, 1)
        path.write_bytes(bytes(v1) + struct.pack("<I", zlib.crc32(v1)))
        loaded, clip_len = load_params(path)
        assert clip_len == kind.train_defaults.clip_len
        for key, arr in params.blocks.items():
            assert np.array_equal(arr, loaded.blocks[key])

    def test_clip_len_zero_rejected_behind_a_valid_crc(self, tmp_path):
        path = tmp_path / "m.qfsm"
        save_params(init_params("pooled", input_dim=2, dense_hidden=2), path)
        data = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", data, 4 + 13 + 4 * 2, 0)
        path.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(MalformedInput, match="clip_len"):
            load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected_behind_a_valid_crc(self, tmp_path, value):
        params = init_params("nnc", emb_dim=2, lstm_hidden=1, dense_hidden=2, seed=4)
        params.blocks["output.b"][...] = value
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        message = re.escape(f"{path}: parameter block 'output.b' holds a non-finite value")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            load_params(path)

    def test_kind_mismatch(self, tmp_path):
        params = init_params("nnc", emb_dim=2, lstm_hidden=2, dense_hidden=2)
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        message = re.escape(f"{path}: holds a nnc model, expected pooled")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            load_params(path, expected_kind="pooled")

    def test_corrupted_magic(self, tmp_path):
        params = init_params("pooled", input_dim=2, dense_hidden=2)
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"WHAT"
        path.write_bytes(bytes(data))
        with pytest.raises(MalformedInput):
            load_params(path)

    def test_corrupted_payload_fails_crc(self, tmp_path):
        params = init_params("pooled", input_dim=2, dense_hidden=2)
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(MalformedInput):
            load_params(path)

    @pytest.mark.parametrize("params", [
        init_params("nnc", emb_dim=2, lstm_hidden=1, dense_hidden=2, seed=5),
        init_params("pooled", input_dim=3, dense_hidden=2, seed=6),
    ], ids=["nnc", "pooled"])
    def test_every_truncation_and_flipped_byte_is_rejected(self, tmp_path, params):
        path = tmp_path / "m.qfsm"
        save_params(params, path)
        assert load_each_corruption(path, path.read_bytes(), load_params) == 0

    @pytest.mark.parametrize("dim", [0, 1, 2**31])
    def test_header_dims_checked_behind_a_valid_crc(self, tmp_path, dim):
        path = tmp_path / "m.qfsm"
        save_params(init_params("nnc", emb_dim=2, lstm_hidden=2, dense_hidden=2), path)
        data = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", data, 4 + 13 + 4, dim)  # lstm_hidden
        path.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(MalformedInput, match="bytes of parameters"):
            load_params(path)

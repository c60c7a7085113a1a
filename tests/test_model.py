"""The two-channel transformer: attention against scalar oracles,
causality, the zero-velocity identity, parameter accounting, init
statistics and checkpointing."""

import dataclasses
import math

import numpy as np
import pytest

from motioncast import tensor as tz
from motioncast.dataset import build_padded_input
from motioncast.model import (ModelConfig, causal_mask, init_model,
                              load_checkpoint, mha_forward, model_forward,
                              model_from_flat, named_params, param_count,
                              param_count_formula, positional_encoding,
                              predict, save_checkpoint,
                              spatial_channel_forward,
                              temporal_channel_forward)
from motioncast.tensor import MASK_SENTINEL, Tensor

from oracles import channel_weight_arrays, scalar_channel, scalar_mha

TINY = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8, n_heads=2,
                   n_layers=1, dropout=0.0)


def randomized_model(config, seed, scale=0.4):
    """Model with every weight random — decoders included — so outputs
    actually depend on the whole stack."""
    model = init_model(config, seed=seed)
    rng = np.random.default_rng([seed, 99])
    for p in named_params(model).values():
        p.data[...] = rng.normal(size=p.shape) * scale / math.sqrt(max(p.shape[0], 1))
    return model


# ---------------------------------------------------------------------------
# positional encoding / mask
# ---------------------------------------------------------------------------

def test_positional_encoding_position_zero():
    pe = positional_encoding(3, 6)
    np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1])


def test_positional_encoding_bounded_and_known_value():
    pe = positional_encoding(50, 16)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)
    assert abs(pe[1, 0] - 0.841471) < 1e-6  # sin(1)


def test_positional_encoding_odd_width_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


def test_causal_mask_shapes():
    np.testing.assert_array_equal(causal_mask(1), [[0.0]])
    np.testing.assert_array_equal(causal_mask(2),
                                  [[0.0, MASK_SENTINEL], [0.0, 0.0]])
    m = causal_mask(35)
    assert m.shape == (35, 35)
    assert np.all(m[np.tril_indices(35)] == 0.0)
    assert np.all(m[np.triu_indices(35, k=1)] == MASK_SENTINEL)


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def rand_attn_weights(rng, d):
    from motioncast.model import AttentionWeights
    return AttentionWeights(*(Tensor(rng.normal(size=(d, d)) / math.sqrt(d))
                              for _ in range(4)))


def test_mha_single_token():
    rng = np.random.default_rng(0)
    w = rand_attn_weights(rng, 4)
    e = Tensor(rng.normal(size=(1, 4)))
    out, attn = mha_forward(e, w, n_heads=2)
    np.testing.assert_array_equal(attn.data, np.ones((2, 1, 1)))
    expected = (e.data @ w.wv.data) @ w.wo.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_mha_causal_zero_weight():
    rng = np.random.default_rng(1)
    w = rand_attn_weights(rng, 4)
    e = Tensor(rng.normal(size=(2, 4)))
    _, attn = mha_forward(e, w, n_heads=2, mask=causal_mask(2))
    assert np.all(attn.data[:, 0, 1] == 0.0)


def test_mha_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for case in range(8):
        tokens = int(rng.integers(1, 6))
        d, h = [(4, 1), (4, 2), (8, 2), (8, 4)][case % 4]
        w = rand_attn_weights(rng, d)
        e = Tensor(rng.normal(size=(tokens, d)))
        mask = causal_mask(tokens) if case % 2 else None
        denom = math.sqrt(d)
        out, attn = mha_forward(e, w, n_heads=h, mask=mask, denominator=denom)
        o_out, o_attn = scalar_mha(e.data, w.wq.data, w.wk.data, w.wv.data,
                                   w.wo.data, h, denom,
                                   mask if mask is None else mask.tolist())
        np.testing.assert_allclose(out.data, o_out, atol=1e-12)
        np.testing.assert_allclose(attn.data, o_attn, atol=1e-12)


def test_mha_rows_stochastic():
    rng = np.random.default_rng(3)
    w = rand_attn_weights(rng, 8)
    e = Tensor(rng.normal(size=(5, 8)))
    _, attn = mha_forward(e, w, n_heads=4, mask=causal_mask(5))
    np.testing.assert_allclose(attn.data.sum(axis=2), np.ones((4, 5)), atol=1e-9)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_zero_decoder_makes_channel_silent():
    model = init_model(TINY, seed=4)  # decoders are zero at init
    x = np.random.default_rng(4).normal(size=(7, 6))
    out_t = temporal_channel_forward(x, model.temporal, TINY)
    out_s = spatial_channel_forward(x, model.spatial, TINY)
    np.testing.assert_array_equal(out_t.data, np.zeros((7, 6)))
    np.testing.assert_array_equal(out_s.data, np.zeros((7, 6)))


def test_temporal_channel_matches_scalar_oracle():
    model = randomized_model(TINY, seed=5)
    x = np.random.default_rng(5).normal(size=(7, 6))
    got = temporal_channel_forward(x, model.temporal, TINY).data
    want = scalar_channel(x, channel_weight_arrays(model.temporal),
                          d=8, n_heads=2, denominator=TINY.attn_denominator,
                          n_layers=1, causal=True, spatial=False)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_spatial_channel_matches_scalar_oracle():
    model = randomized_model(TINY, seed=6)
    x = np.random.default_rng(6).normal(size=(7, 6))
    got = spatial_channel_forward(x, model.spatial, TINY).data
    want = scalar_channel(x, channel_weight_arrays(model.spatial),
                          d=8, n_heads=2, denominator=TINY.attn_denominator,
                          n_layers=1, causal=False, spatial=True)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_temporal_causality_bit_exact():
    cfg = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                      n_heads=2, n_layers=2, dropout=0.0)
    model = randomized_model(cfg, seed=7)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.normal(size=(7, 6))
        t = int(rng.integers(0, 6))
        base = temporal_channel_forward(x, model.temporal, cfg).data
        poked = x.copy()
        poked[t + 1:] += rng.normal(size=(6 - t, 6))
        after = temporal_channel_forward(poked, model.temporal, cfg).data
        assert np.array_equal(base[:t + 1], after[:t + 1])


def test_spatial_attention_is_param_by_param():
    """The spatial channel's attention operates over P parameter tokens."""
    model = randomized_model(TINY, seed=8)
    x = np.random.default_rng(8).normal(size=(7, 6))
    xt = tz.transpose(Tensor(x))
    e = tz.add_bias(tz.matmul(xt, model.spatial.enc_w), model.spatial.enc_b)
    _, attn = mha_forward(e, model.spatial.blocks[0].attn, TINY.n_heads)
    assert attn.shape == (2, 6, 6)  # H x P x P


def test_channel_shapes_at_full_scale():
    cfg = ModelConfig()
    model = init_model(cfg, seed=9)
    x = np.random.default_rng(9).normal(size=(35, 99))
    assert temporal_channel_forward(x, model.temporal, cfg).shape == (35, 99)
    assert spatial_channel_forward(x, model.spatial, cfg).shape == (35, 99)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_residual_identity_with_zero_decoders():
    cfg = ModelConfig()
    model = init_model(cfg, seed=10)
    x = np.random.default_rng(10).normal(size=(35, 99))
    out = model_forward(x, model)
    np.testing.assert_array_equal(out.data, x)


def test_model_forward_shape_guard():
    model = init_model(TINY, seed=11)
    with pytest.raises(tz.ShapeError):
        model_forward(np.zeros((6, 6)), model)


def test_forward_count_instrumentation():
    model = init_model(TINY, seed=12)
    prefix = np.random.default_rng(12).normal(size=(4, 6))
    assert model.forward_count == 0
    predict(model, prefix)
    assert model.forward_count == 1
    predict(model, prefix)
    assert model.forward_count == 2


def test_predict_is_zero_velocity_on_fresh_model():
    model = init_model(TINY, seed=13)
    prefix = np.random.default_rng(13).normal(size=(4, 6))
    future = predict(model, prefix)
    np.testing.assert_array_equal(future, np.repeat(prefix[-1:], 3, axis=0))


def test_predict_needs_enough_frames():
    model = init_model(TINY, seed=14)
    with pytest.raises(ValueError) as exc:
        predict(model, np.zeros((3, 6)))
    assert "4" in str(exc.value)  # states the required N


def test_predict_uses_last_n_frames():
    model = init_model(TINY, seed=15)
    frames = np.random.default_rng(15).normal(size=(9, 6))
    np.testing.assert_array_equal(predict(model, frames),
                                  predict(model, frames[-4:]))


def test_channel_additivity():
    """Zeroing one channel's decoder removes exactly that channel's
    contribution from the summed output."""
    model = randomized_model(TINY, seed=16)
    x = np.random.default_rng(16).normal(size=(7, 6))
    full = model_forward(x, model).data
    xs = spatial_channel_forward(x, model.spatial, TINY).data
    model.spatial.dec_w.data[...] = 0.0
    model.spatial.dec_b.data[...] = 0.0
    without = model_forward(x, model).data
    np.testing.assert_allclose(full - without, xs, atol=1e-12)


def test_forward_stability_sweep():
    """Random weights with unit layer-norm gains stay finite."""
    for seed in range(100):
        model = randomized_model(TINY, seed=seed)
        x = np.random.default_rng([17, seed]).normal(size=(7, 6))
        out = model_forward(x, model)
        assert np.all(np.isfinite(out.data))


def test_dropout_training_mode():
    cfg = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                      n_heads=2, n_layers=1, dropout=0.5)
    model = randomized_model(cfg, seed=18)
    x = np.random.default_rng(18).normal(size=(7, 6))
    quiet = model_forward(x, model, training=False).data
    noisy = model_forward(x, model, training=True,
                          rng=np.random.default_rng(0)).data
    assert not np.array_equal(quiet, noisy)
    again = model_forward(x, model, training=True,
                          rng=np.random.default_rng(0)).data
    np.testing.assert_array_equal(noisy, again)  # rng-deterministic
    with pytest.raises(ValueError):
        model_forward(x, model, training=True)  # rng required


def test_per_head_scale_switch_changes_scores():
    cfg_a = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                        n_heads=2, n_layers=1, dropout=0.0)
    cfg_b = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                        n_heads=2, n_layers=1, dropout=0.0, per_head_scale=True)
    assert cfg_a.attn_denominator == math.sqrt(8)
    assert cfg_b.attn_denominator == math.sqrt(4)
    model = randomized_model(cfg_a, seed=19)
    x = np.random.default_rng(19).normal(size=(7, 6))
    out_a = temporal_channel_forward(x, model.temporal, cfg_a).data
    out_b = temporal_channel_forward(x, model.temporal, cfg_b).data
    assert not np.array_equal(out_a, out_b)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_param_count_matches_hand_enumeration():
    cfg = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                      n_heads=2, n_layers=1, ffn_mult=4)
    d, ff, p, t = 8, 32, 6, 7
    expected = 0
    for in_dim, out_dim in ((p, p), (t, t)):
        expected += in_dim * d + d              # encoder
        expected += 2 * (d + d)                 # two layer norms, gain+bias
        expected += 4 * d * d                   # wq, wk, wv, wo
        expected += d * ff + ff + ff * d + d    # feed-forward
        expected += d * out_dim + out_dim       # decoder
    model = init_model(cfg, seed=20)
    assert param_count(model) == expected
    assert param_count_formula(cfg) == expected


def test_param_count_default_in_published_band():
    n = param_count_formula(ModelConfig())
    assert 2_100_000 <= n <= 3_100_000, n


def test_param_count_linear_in_layers():
    base = ModelConfig(n_layers=2)
    more = ModelConfig(n_layers=4)
    per_layer = (param_count_formula(more) - param_count_formula(base)) // 4
    d = base.embed_dim
    block = 4 * d * d + (2 * 4 * d * d + 4 * d + d) + 4 * d
    assert per_layer == block  # two channels, two extra layers each


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic():
    a = init_model(ModelConfig(), seed=21)
    b = init_model(ModelConfig(), seed=21)
    for (ka, pa), (kb, pb) in zip(named_params(a).items(), named_params(b).items()):
        assert ka == kb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_init_weight_scale():
    model = init_model(ModelConfig(), seed=22)
    params = named_params(model)
    for name in ("temporal.encoder.weight", "temporal.block0.attn.wq",
                 "spatial.block2.ffn.w1"):
        w = params[name].data
        want = 1.0 / math.sqrt(w.shape[0])
        assert abs(w.std() - want) / want < 0.2, name


def test_init_decoders_zero_and_gains_one():
    model = init_model(ModelConfig(), seed=23)
    params = named_params(model)
    assert np.all(params["temporal.decoder.weight"].data == 0.0)
    assert np.all(params["spatial.decoder.bias"].data == 0.0)
    assert np.all(params["temporal.block0.ln1.gain"].data == 1.0)


# ---------------------------------------------------------------------------
# flat-vector view
# ---------------------------------------------------------------------------

def test_model_from_flat_reproduces_forward():
    from motioncast.model import flatten_params
    model = randomized_model(TINY, seed=24)
    vec = Tensor(flatten_params(model))
    rebuilt = model_from_flat(TINY, vec)
    x = np.random.default_rng(24).normal(size=(7, 6))
    np.testing.assert_array_equal(model_forward(x, model).data,
                                  model_forward(x, rebuilt).data)


def test_model_from_flat_size_guard():
    with pytest.raises(ValueError):
        model_from_flat(TINY, Tensor(np.zeros(10)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = randomized_model(ModelConfig(n_params=6, n_prefix=4, horizon=3,
                                         embed_dim=8, n_heads=2, n_layers=2,
                                         dropout=0.25, per_head_scale=True),
                             seed=25)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    for (ka, pa), (kb, pb) in zip(named_params(model).items(),
                                  named_params(back).items()):
        assert ka == kb
        np.testing.assert_array_equal(pa.data, pb.data)
    x = np.random.default_rng(25).normal(size=(7, 6))
    np.testing.assert_array_equal(model_forward(x, model).data,
                                  model_forward(x, back).data)


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = init_model(TINY, seed=26)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["format_version"] = np.int64(99)
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_misshapen_weights(tmp_path):
    model = init_model(TINY, seed=27)
    path = tmp_path / "model.npz"

    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = dict(z)
    del arrays["temporal.encoder.weight"]
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        load_checkpoint(path)

    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["temporal.encoder.weight"] = np.zeros((2, 2))
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_missing_config_key_names_path(tmp_path):
    model = init_model(TINY, seed=31)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = dict(z)
    del arrays["config.n_layers"]
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="config.n_layers") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_npy_payload_names_path(tmp_path):
    path = tmp_path / "model.npz"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(ValueError, match="not a model checkpoint") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def _resaved(**changes):
    """A writer: save TINY, then re-save with ``changes`` to its arrays."""
    def write(path):
        save_checkpoint(init_model(TINY, seed=34), path)
        with np.load(path) as z:
            arrays = dict(z)
        arrays.update(changes)
        np.savez(path, **arrays)
    return write


def _truncated(path):
    save_checkpoint(init_model(TINY, seed=34), path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


MALFORMED_CHECKPOINTS = {
    "truncated": (_truncated, "not a model checkpoint"),
    "text": (lambda path: path.write_text("not an archive\n"), "not a model checkpoint"),
    "empty": (lambda path: path.write_bytes(b""), "not a model checkpoint"),
    "list_config": (_resaved(**{"config.n_layers": np.array([1, 2])}), "config.n_layers"),
    "list_version": (_resaved(format_version=np.array([1, 1])), "format_version"),
    "fractional_config": (_resaved(**{"config.n_layers": np.float64(1.7)}), "config.n_layers"),
    "text_config": (_resaved(**{"config.n_heads": np.str_("2")}), "config.n_heads"),
    "nan_config": (_resaved(**{"config.dropout": np.float64("nan")}), "config.dropout"),
    "two_valued_flag": (_resaved(**{"config.per_head_scale": np.int64(2)}),
                        "config.per_head_scale"),
    "zero_layers_config": (_resaved(**{"config.n_layers": np.int64(0)}),
                           "n_layers must be >= 1"),
    "zero_heads_config": (_resaved(**{"config.n_heads": np.int64(0)}),
                          "n_heads must be >= 1"),
    "object_config": (_resaved(**{"config.dropout": np.array(None, dtype=object)}),
                      "'config.dropout' cannot be loaded"),
    "object_weight": (_resaved(**{"temporal.encoder.weight":
                                  np.array([None], dtype=object)}),
                      "'temporal.encoder.weight' cannot be loaded"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_names_path_and_key(tmp_path, name):
    write, expected = MALFORMED_CHECKPOINTS[name]
    path = tmp_path / "model.npz"
    write(path)
    with pytest.raises(ValueError, match=expected) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


# The v1 config block: key order and dtype, written out by hand.
V1_CONFIG = [("config.n_params", "<i8"), ("config.n_prefix", "<i8"),
             ("config.horizon", "<i8"), ("config.embed_dim", "<i8"),
             ("config.n_heads", "<i8"), ("config.n_layers", "<i8"),
             ("config.ffn_mult", "<i8"), ("config.dropout", "<f8"),
             ("config.per_head_scale", "<i8")]


def test_save_checkpoint_writes_the_v1_config_block(tmp_path):
    model = init_model(TINY, seed=32)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        files = z.files
        head = [(k, z[k].dtype.str, z[k].shape) for k in files[:10]]
        assert files[10:] == list(named_params(model))
    assert head == ([("format_version", "<i8", ())]
                    + [(k, dt, ()) for k, dt in V1_CONFIG])


def test_hand_built_v1_checkpoint_loads(tmp_path):
    source = randomized_model(TINY, seed=33)
    arrays = {"format_version": np.array(1, dtype="<i8"),
              "config.n_params": np.array(6, dtype="<i8"),
              "config.n_prefix": np.array(4, dtype="<i8"),
              "config.horizon": np.array(3, dtype="<i8"),
              "config.embed_dim": np.array(8, dtype="<i8"),
              "config.n_heads": np.array(2, dtype="<i8"),
              "config.n_layers": np.array(1, dtype="<i8"),
              "config.ffn_mult": np.array(4, dtype="<i8"),
              "config.dropout": np.array(0.25, dtype="<f8"),
              "config.per_head_scale": np.array(1, dtype="<i8")}
    for name, p in named_params(source).items():
        arrays[name] = p.data.astype("<f8")
    path = tmp_path / "model.npz"
    np.savez(path, **arrays)
    back = load_checkpoint(path)
    assert back.config == ModelConfig(n_params=6, n_prefix=4, horizon=3,
                                      embed_dim=8, n_heads=2, n_layers=1,
                                      ffn_mult=4, dropout=0.25,
                                      per_head_scale=True)
    assert type(back.config.per_head_scale) is bool
    assert type(back.config.dropout) is float
    for name, p in named_params(back).items():
        np.testing.assert_array_equal(p.data, arrays[name])


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=10, n_heads=4)     # not divisible
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=9, n_heads=3)      # odd width
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(n_layers=0)


@pytest.mark.parametrize("field, value", [("n_heads", 0), ("n_heads", -2),
                                          ("embed_dim", 0), ("ffn_mult", 0),
                                          ("n_layers", 0)])
def test_config_rejects_non_positive_sizes(field, value):
    """Each size is checked before it is used: n_heads=0 must not reach
    ``embed_dim % n_heads``."""
    with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
        ModelConfig(**{field: value})


def test_padded_input_feeds_model_exactly():
    """predict() must build its input with the replicate-last-pose rule."""
    model = init_model(TINY, seed=28)
    prefix = np.random.default_rng(28).normal(size=(4, 6))
    out = model_forward(build_padded_input(prefix, 3), model)
    np.testing.assert_array_equal(out.data[4:], predict(model, prefix))


def test_predict_rejects_non_finite_prefix():
    model = init_model(TINY, seed=29)
    prefix = np.zeros((4, 6))
    for bad in (np.nan, np.inf):
        prefix[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, prefix)
    assert model.forward_count == 0


def test_checkpoint_rejects_non_finite_weight(tmp_path):
    model = init_model(TINY, seed=30)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["spatial.block0.ffn.b1"][1] = np.nan
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="spatial.block0.ffn.b1"):
        load_checkpoint(path)


def test_stray_forwards_leave_no_graph():
    """Forwards outside no_tape with grad-requiring weights own their
    graph, so dropping the output frees every node."""
    import gc
    model = init_model(TINY, seed=31)
    assert all(p.requires_grad for p in named_params(model).values())
    x = np.random.default_rng(31).normal(size=(7, 6))
    for _ in range(3):
        model_forward(x, model)
    gc.collect()
    assert not any(isinstance(o, tz.TapeNode) for o in gc.get_objects())


def _nodes(root):
    """Every node reachable from ``root``."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for inp in stack.pop().inputs:
            if isinstance(inp, tz.TapeNode) and id(inp) not in seen:
                seen[id(inp)] = inp
                stack.append(inp)
    return list(seen.values())


def test_recorded_graph_links_nodes_and_leaves_only():
    """A node's inputs are nodes, grad-requiring leaves or None, never an
    intermediate tensor, whose array would then outlive its readers."""
    model = init_model(dataclasses.replace(TINY, dropout=0.2), seed=33)
    x = np.random.default_rng(33).normal(size=(7, 6))
    out = model_forward(x, model, training=True, rng=np.random.default_rng(0))
    nodes = _nodes(out.node)
    leaves = [inp for n in nodes for inp in n.inputs
              if inp is not None and not isinstance(inp, tz.TapeNode)]
    assert all(isinstance(t, Tensor) and t.node is None and t.requires_grad for t in leaves)
    assert {id(t) for t in leaves} == {id(p) for p in named_params(model).values()}
    assert {"mul", "relu", "layer_norm", "matmul"} <= {n.op for n in nodes}


def _traced(fn):
    """(retained, peak) bytes that ``fn``'s allocations reach, and its result."""
    import gc
    import tracemalloc
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return now - base, peak - base, result


def test_recorded_default_forward_keeps_only_what_backward_reads():
    model = init_model(ModelConfig(), seed=34)
    x = np.random.default_rng(34).normal(size=(model.config.total, model.config.n_params))
    retained, _, out = _traced(
        lambda: model_forward(x, model, training=True, rng=np.random.default_rng(1)))
    assert out.node is not None
    assert retained < 16e6  # keeping every intermediate retained 32.9 MB


def test_save_checkpoint_does_not_copy_the_model(tmp_path):
    model = init_model(ModelConfig(), seed=35)
    _, peak, _ = _traced(lambda: save_checkpoint(model, tmp_path / "m.npz"))
    assert peak < 5e6  # a converted copy of every weight peaked at 21 MB
    loaded = load_checkpoint(tmp_path / "m.npz")
    for name, p in named_params(model).items():
        np.testing.assert_array_equal(named_params(loaded)[name].data, p.data)


def test_named_params_is_the_model_store():
    from motioncast.model import _layout
    model = init_model(ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8,
                                   n_heads=2, n_layers=2), seed=32)
    reached = []
    for ch in (model.temporal, model.spatial):
        reached += [ch.enc_w, ch.enc_b]
        for blk in ch.blocks:
            reached += [blk.ln1_gain, blk.ln1_bias, blk.attn.wq, blk.attn.wk,
                        blk.attn.wv, blk.attn.wo, blk.ln2_gain, blk.ln2_bias,
                        blk.ffn.w1, blk.ffn.b1, blk.ffn.w2, blk.ffn.b2]
        reached += [ch.dec_w, ch.dec_b]
    params = named_params(model)
    assert list(params) == [name for name, _, _ in _layout(model.config)]
    assert len(reached) == len(params)
    assert all(a is b for a, b in zip(params.values(), reached))

"""Tests for the conditioning blocks, on the weights `init_tts` builds."""

import numpy as np
import pytest

from emoforge.autodiff import ParamLayout, constant
from emoforge.conditioning import (
    attention_graph,
    coupling_block_shapes,
    coupling_graph,
    ewn_graph,
)
from emoforge.dsp import N_MELS
from emoforge.errors import DataError
from emoforge.numeric import rng_stream
from emoforge.tts import CHAR_DIM, COUPLING_GATE, _condition_graph, condition, init_tts
from gradcheck import finite_diff_check

EMBED, N_SPK = 8, 2
COND = EMBED + N_SPK
HALF = N_MELS // 2
EWN = ("ewn_wf", "ewn_bf", "ewn_wg", "ewn_bg", "ewn_wo", "ewn_bo")


def _init_blocks(shapes, prefix, seed):
    """(layout, flat vector) of blocks of any size, each drawn from the
    tts:<prefix><name> stream `init_tts` draws it from, so at the model's
    sizes the bits are the model's."""
    layout = ParamLayout(shapes)
    return layout, layout.init(lambda name: rng_stream(seed, "tts:" + prefix + name))


def _flow(prefix="flow_a_", seed=42, zero=(), **arrays):
    """One coupling block set of a vits model, as Tensor constants."""
    layout, theta = _init_blocks(coupling_block_shapes(N_MELS, COND, COUPLING_GATE), prefix, seed)
    blocks = {k: np.array(v) for k, v in layout.unpack(theta).items()}
    for name in zero:
        blocks[name] = np.zeros_like(blocks[name])
    blocks.update(arrays)
    return {k: constant(v) for k, v in blocks.items()}


def _att(seed=42):
    """The condition-bias block of a fastspeech model, as a Tensor constant."""
    layout, theta = _init_blocks({"att_w": (COND, CHAR_DIM)}, "", seed)
    return {k: constant(np.array(v)) for k, v in layout.unpack(theta).items()}


def _run(blocks, h, u, inverse=False):
    h1_out, log_s = coupling_graph(blocks, constant(h[:, :HALF]), constant(h[:, HALF:]),
                                   constant(np.asarray(u)[None, :]), inverse=inverse)
    return np.concatenate([h[:, :HALF], h1_out.data], axis=1), float(log_s.sum().data)


# -- coupling flow -------------------------------------------------------------

def test_zero_ewn_is_identity_flow():
    blocks = _flow(zero=EWN)
    h = rng_stream(7, "cplid").standard_normal((6, N_MELS))
    out, log_det = _run(blocks, h, np.ones(COND))
    assert np.array_equal(out, h)
    assert log_det == 0.0
    assert np.array_equal(_run(blocks, h, np.ones(COND), inverse=True)[0], h)


def test_coupling_hand_case():
    # constant conditioner output: log_s = ln 2, b = 1 on every channel
    bo = np.concatenate([np.full(HALF, np.log(2.0)), np.ones(HALF)])
    blocks = _flow(zero=EWN, ewn_bo=bo)
    h = np.concatenate([np.full(HALF, 3.0), np.full(HALF, 5.0)])[None, :]
    out, log_det = _run(blocks, h, np.zeros(COND))
    want = np.concatenate([np.full(HALF, 3.0), np.full(HALF, 11.0)])[None, :]
    assert np.allclose(out, want, atol=1e-12)
    assert abs(log_det - HALF * np.log(2.0)) < 1e-12
    back, _ = _run(blocks, want, np.zeros(COND), inverse=True)
    assert np.allclose(back, h, atol=1e-12)


def test_ewn_clamps_log_s():
    bo = np.concatenate([np.full(HALF, 40.0), np.zeros(HALF)])
    log_s, b = ewn_graph(_flow(zero=EWN, ewn_bo=bo), constant(np.zeros((3, HALF))))
    assert np.all(log_s.data == 5.0)
    assert np.all(b.data == 0.0)


def test_coupling_invertibility_random():
    rng = rng_stream(7, "cplinv")
    flows = [_flow("flow_a_", seed=3), _flow("flow_b_", seed=3)]
    worst = 0.0
    for i in range(200):
        blocks = flows[i % 2]
        h = rng.standard_normal((8, N_MELS))
        u = rng.standard_normal(COND)
        out, _ = _run(blocks, h, u)
        worst = max(worst, np.max(np.abs(_run(blocks, out, u, inverse=True)[0] - h)))
        # and the other direction: forward(inverse(h)) = h
        round2 = _run(blocks, _run(blocks, h, u, inverse=True)[0], u)[0]
        worst = max(worst, np.max(np.abs(round2 - h)))
    assert worst < 1e-9


def test_coupling_leaves_h0_untouched():
    blocks = _flow(seed=5)
    rng = rng_stream(7, "cplh0")
    h = rng.standard_normal((5, N_MELS))
    out1, _ = _run(blocks, h, rng.standard_normal(COND))
    out2, _ = _run(blocks, h, rng.standard_normal(COND))
    assert np.array_equal(out1[:, :HALF], h[:, :HALF])
    assert np.array_equal(out2[:, :HALF], h[:, :HALF])
    # the condition changes the transformed half only
    assert not np.allclose(out1[:, HALF:], out2[:, HALF:])


def test_coupling_log_det_equals_log_s_sum():
    blocks = _flow(seed=5)
    rng = rng_stream(7, "cplld")
    h = rng.standard_normal((5, N_MELS))
    u = rng.standard_normal(COND)
    _, log_det = _run(blocks, h, u)
    log_s, _ = ewn_graph(blocks, constant(h[:, :HALF] + u @ blocks["cond_proj"].data))
    assert abs(log_det - log_s.data.sum()) < 1e-12


def test_coupling_log_det_gradient():
    layout, theta = _init_blocks(coupling_block_shapes(N_MELS, 3 + 1, 4), "flow_a_", 9)
    rng = rng_stream(7, "cplgrad")
    h = rng.standard_normal((4, N_MELS))
    u = constant(rng.standard_normal((1, 4)))

    def loss(t):
        return coupling_graph(layout.unpack(t), constant(h[:, :HALF]), constant(h[:, HALF:]),
                              u)[1].sum()

    assert finite_diff_check(loss, theta) < 1e-4


# -- condition bias (fastspeech) -------------------------------------------------

def test_attention_adds_one_condition_row_to_every_character():
    blocks = _att(seed=3)
    rng = rng_stream(7, "attone")
    h = rng.standard_normal((4, CHAR_DIM))
    u = rng.standard_normal((1, COND))
    out = attention_graph(blocks, constant(h), constant(u)).data
    assert np.array_equal(out, h + u @ blocks["att_w"].data)


def test_attention_zero_w_is_residual_passthrough():
    blocks = {"att_w": constant(np.zeros((COND, CHAR_DIM)))}
    rng = rng_stream(7, "attres")
    h = rng.standard_normal((4, CHAR_DIM))
    out = attention_graph(blocks, constant(h), constant(rng.standard_normal((1, COND)))).data
    assert np.array_equal(out, h)


def test_attention_gradient():
    layout, theta = _init_blocks({"att_w": (3 + 2, 4)}, "", 13)
    rng = rng_stream(7, "attgrad")
    h = constant(rng.standard_normal((3, 4)))
    u = constant(rng.standard_normal((1, 3 + 2)))

    def loss(t):
        out = attention_graph(layout.unpack(t), h, u)
        return (out * out).sum()

    assert finite_diff_check(loss, theta) < 1e-4


# -- the condition row ---------------------------------------------------------------

def test_condition_is_emotion_then_one_hot_speaker():
    p = init_tts("fastspeech", embed=2, n_speakers=3, seed=42)
    for speaker in range(3):
        got = condition([0.6, 0.8], speaker, p)
        want = np.array([[0.6, 0.8, 0.0, 0.0, 0.0]])
        want[0, 2 + speaker] = 1.0
        assert got.dtype == np.float64 and np.array_equal(got, want)


def test_block_sets_are_the_models_own_at_its_sizes():
    for variant, prefix, blocks in (("vits", "flow_b_", _flow("flow_b_", seed=4)),
                                    ("fastspeech", "att_", _att(seed=4))):
        model = init_tts(variant, embed=EMBED, n_speakers=N_SPK, seed=4)
        want = [v for k, v in model.layout.unpack(model.theta).items() if k.startswith(prefix)]
        assert [b.data.tobytes() for b in blocks.values()] == [v.tobytes() for v in want]


def test_concat_condition():
    # tacotron's text-side conditioning appends the condition to every frame
    got = _condition_graph({}, constant(np.array([[2.0]])), np.array([[3.0, 4.0]]),
                           "tacotron").data
    assert np.array_equal(got, np.array([[2.0, 3.0, 4.0]]))

    h = rng_stream(7, "cc").standard_normal((4, 3))
    out = _condition_graph({}, constant(h), np.array([[1.0, 2.0]]), "tacotron").data
    assert out.shape == (4, 5)
    assert np.array_equal(out[:, :3], h)
    assert np.array_equal(out[:, 3:], np.tile([1.0, 2.0], (4, 1)))


def test_condition_vector_validates_norm():
    p = init_tts("tacotron", embed=2, n_speakers=2, seed=42)
    condition(np.array([0.6, 0.8]), 0, p)
    with pytest.raises(DataError, match="unit norm"):
        condition(np.array([1.0, 1.0]), 0, p)

"""Tests for contrastive emotion-prompt alignment."""

import dataclasses
import json

import numpy as np
import pytest

from emoforge import epalign
from emoforge.autodiff import constant, grad
from emoforge.datagen import CorpusConfig, gen_corpus
from emoforge.epalign import (
    MODALITIES,
    AlignTrainConfig,
    align_infer,
    anchored_prompts,
    classification_report,
    eval_alignment,
    init_epalign,
    load_epalign,
    modality_set,
    save_epalign,
    train_epalign,
    _batch_loss_graph,
    _implicit_t,
    _infer_batch,
    _l2rows_t,
    _prompts_t,
    _sym_ce_t,
)
from emoforge.errors import ConfigError, DataError, FormatError
from emoforge.numeric import rng_stream
from gradcheck import finite_diff_check

DIMS = {"d_vis": 64, "d_audio": 64, "d_tex": 64}  # the corpus's feature widths


def _tiny_params(d=4, hidden=4, embed=4, n_classes=3):
    """A model with narrowed input, encoder and embedding widths."""
    with pytest.MonkeyPatch.context() as narrow:
        narrow.setattr(epalign, "HIDDEN", hidden)
        narrow.setattr(epalign, "EMBED", embed)
        return init_epalign(dict.fromkeys(DIMS, d), n_classes, 7)


def _with_blocks(params, **overrides):
    arrays = params.layout.unpack(params.theta.copy())
    arrays = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
    arrays.update({k: np.asarray(v, dtype=np.float64) for k, v in overrides.items()})
    params.theta = params.layout.pack(arrays)
    return params


def _tex_model(d=4, n_classes=4, **overrides):
    """A model read through text alone: encoder f = tanh(x), identity
    projections, prompt rows e_0..e_{C-1}. Each similarity row inference
    returns for text features is then the implicit embedding u = f @ W_imp,
    normalized; `overrides` replace blocks."""
    p = _tiny_params(d, hidden=d, embed=d, n_classes=n_classes)
    eye = np.eye(d)
    blocks = dict(enc_tex_w1=eye, enc_tex_b1=np.zeros(d), enc_tex_w2=eye,
                  enc_tex_b2=np.zeros(d), w_imp_tex=eye, w_pro_tex=eye,
                  prompt_table=np.eye(n_classes, d))
    blocks.update(overrides)
    return _with_blocks(p, **blocks)


def _batch_sims(params, feats):
    """The (N x C) cosines whose row-wise argmax `_infer_batch` returns."""
    blocks = params.layout.unpack(constant(params.theta))
    return (_l2rows_t(_implicit_t(blocks, feats)) @ _prompts_t(blocks).T).data


def _sims(params, x):
    return _batch_sims(params, {"tex": np.atleast_2d(x)})


def _sample_sims(params, features):
    """One sample's cosine to each prompt, scored as `align_infer` scores it:
    a dict of modality -> feature vector in."""
    feats = {mu: np.asarray(x, dtype=np.float64)[None, :] for mu, x in features.items()}
    return _batch_sims(params, feats)[0]


def _loss(params, x, labels):
    """The loss the trainer differentiates, at the model's own parameters."""
    return _batch_loss_graph(constant(params.theta), params, {"tex": x}, labels).item()


def _sym_ce(logits):
    """Symmetric cross-entropy of a plain logit matrix, as the trainer computes it."""
    return _sym_ce_t(constant(np.asarray(logits, dtype=np.float64))).item()


def _sym_ce_oracle(logits):
    """Mean row NLL plus mean column NLL of the diagonal, in plain numpy."""
    def nll(m):
        m = m - m.max(axis=1, keepdims=True)
        return -np.mean(np.diag(m) - np.log(np.exp(m).sum(axis=1)))
    return nll(logits) + nll(logits.T)


@pytest.fixture(scope="module")
def corpus():
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        utts = gen_corpus(CorpusConfig(samples_per_class=40, seed=7), d)
    rng = rng_stream(7, "split")
    perm = rng.permutation(len(utts))
    return [utts[i] for i in perm[:160]], [utts[i] for i in perm[160:]]


# -- encoders and projections, through inference and the training loss ------------

def test_encode_zero_params_gives_zero():
    # zero encoder weights put every sample at the origin, which neither
    # inference nor the training loss will normalize
    p = _tiny_params()
    p = _with_blocks(p, **{k: np.zeros(shape) for k, shape in p.layout.shapes.items()
                           if k.startswith("enc_vis_")})
    with pytest.raises(DataError, match="zero or non-finite norm"):
        align_infer({"vis": np.ones(4)}, p)
    with pytest.raises(DataError, match="zero or non-finite norm"):
        _batch_loss_graph(constant(p.theta), p, {"vis": np.ones((3, 4))}, np.arange(3))


def test_encode_identity_config_is_tanh():
    # identity weights, zero biases: f = tanh(x @ I) @ I = tanh(x)
    p = _tex_model()
    x = np.array([0.5, -1.0, 2.0, 0.0])
    assert np.allclose(_sims(p, x)[0], np.tanh(x) / np.linalg.norm(np.tanh(x)), atol=1e-12)


def test_encode_batch_and_errors():
    p = _tiny_params()
    x = rng_stream(7, "enc").standard_normal((6, 4))
    preds, sims = _infer_batch({"audio": x}, p), _batch_sims(p, {"audio": x})
    assert sims.shape == (6, 3)
    assert np.array_equal(preds, np.argmax(sims, axis=1))
    # batched BLAS and single-row matmul may round differently in the last ulp
    single = _sample_sims(p, {"audio": x[2]})
    assert np.allclose(sims[2], single, atol=1e-12)
    assert align_infer({"audio": x[2]}, p) == preds[2] == np.argmax(single)
    with pytest.raises(DataError, match="features must be 1-D"):
        align_infer({"audio": np.ones(5)}, p)
    with pytest.raises(DataError, match="unknown modality 'video': want one of vis, audio, tex"):
        align_infer({"video": np.ones(4)}, p)


def test_project_implicit_identity_zero_and_hand_case():
    # a constant encoder (zero weights, output bias f) isolates u = f @ W_imp
    f = np.array([1.0, 2.0, 3.0, 4.0])
    const = dict(enc_tex_w2=np.zeros((4, 4)), enc_tex_b2=f)
    assert np.allclose(_sims(_tex_model(**const), np.ones(4))[0], f / np.linalg.norm(f),
                       atol=1e-12)
    with pytest.raises(DataError, match="zero or non-finite norm"):
        _sims(_tex_model(w_imp_tex=np.zeros((4, 4)), **const), np.ones(4))

    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = _tex_model(d=2, n_classes=2, enc_tex_w2=np.zeros((2, 2)),
                   enc_tex_b2=np.array([5.0, 6.0]), w_imp_tex=w)
    u = np.array([5 * 1 + 6 * 3, 5 * 2 + 6 * 4])
    assert np.allclose(_sims(p, np.ones(2))[0], u / np.linalg.norm(u), atol=1e-12)


def test_project_prompt_identity_and_errors(corpus):
    p = _with_blocks(_tiny_params(), w_pro_tex=np.eye(4))
    table = p.layout.unpack(p.theta)["prompt_table"]
    prompts = anchored_prompts(p)
    assert prompts.shape == (3, 4)
    assert np.allclose(prompts[1], table[1] / np.linalg.norm(table[1]))
    # training refuses a label no prompt row can hold
    bad = [dataclasses.replace(corpus[0][0], emotion=-1)] + corpus[0][1:]
    with pytest.raises(DataError, match="labels must be non-negative"):
        train_epalign(bad, AlignTrainConfig(batch=3, epochs=1))


def test_every_block_gets_gradient():
    # a block with an all-zero gradient can never learn
    p = _tiny_params()
    rng = rng_stream(5, "grad-blocks")
    feats = {mu: rng.standard_normal((3, 4)) for mu in MODALITIES}
    g = grad(lambda t: _batch_loss_graph(t, p, feats, np.arange(3)), p.theta)
    dead = [name for name, (a, b) in p.layout.slices.items() if not np.any(g[a:b])]
    assert dead == []


def test_parameter_counts():
    assert init_epalign(DIMS, 5, 42).theta.size == 22977


# -- logits and loss ---------------------------------------------------------------

def test_alignment_logits_orthonormal_identity():
    # text embeddings 0.5 e_i against prompt rows e_i: the cosines are the
    # identity, and so are the logits at log_t = 0
    p = _tex_model(n_classes=3)
    p.theta[p.layout.offset("log_t")] = 0.0
    x = np.arctanh(0.5 * np.eye(3, 4))
    assert np.allclose(_sims(p, x), np.eye(3), atol=1e-12)
    assert abs(_loss(p, x, np.arange(3)) - _sym_ce_oracle(np.eye(3))) < 1e-12


def test_alignment_logits_temperature_scale():
    # rows at cosine 0.99 give logits exp(log_t) * [[1, .99], [.99, 1]]; at
    # log_t = ln 100 that is [[100, 99], [99, 100]], and each side's
    # diagonal NLL is ln(1 + e^-1)
    c = 0.99
    rows = np.array([[1.0, 0.0], [c, np.sqrt(1.0 - c * c)]])
    p = _tex_model(d=2, n_classes=2, prompt_table=3.0 * rows)
    p.theta[p.layout.offset("log_t")] = np.log(100.0)
    loss = _loss(p, np.arctanh(0.5 * rows), np.arange(2))
    assert abs(loss - 2.0 * np.log1p(np.exp(-1.0))) < 1e-9


def test_alignment_logits_matches_cosine_oracle():
    rng = rng_stream(7, "logits")
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    t = 0.7
    # prompt rows a are u_exp; text embeddings b (scaled into tanh's range) are u_imp
    p = _tex_model(n_classes=3, prompt_table=a)
    p.theta[p.layout.offset("log_t")] = t
    x = np.arctanh(0.5 * b / np.abs(b).max())
    want = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            want[i, j] = np.exp(t) * (a[i] @ b[j]) / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    sims = _sims(p, x)
    assert np.all(np.abs(sims - want.T / np.exp(t)) < 1e-12)
    assert np.all(np.abs(sims) <= 1.0 + 1e-12)
    assert abs(_loss(p, x, np.arange(3)) - _sym_ce_oracle(want)) < 1e-12


def test_alignment_logits_rejects_zero_row():
    p = _tex_model(d=2, n_classes=2, prompt_table=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DataError, match="zero or non-finite norm"):
        _loss(p, np.ones((2, 2)), np.arange(2))
    with pytest.raises(DataError, match="zero or non-finite norm"):
        anchored_prompts(p)


def test_alignment_loss_closed_forms():
    assert _sym_ce(np.array([[123.0]])) == pytest.approx(0.0, abs=1e-12)
    for k in (2, 4, 16):
        assert abs(_sym_ce(np.full((k, k), 3.3)) - 2.0 * np.log(k)) < 1e-10
    big = np.full((8, 8), -50.0)
    np.fill_diagonal(big, 50.0)
    assert _sym_ce(big) < 1e-10


def test_alignment_loss_symmetry_and_permutation():
    rng = rng_stream(7, "loss")
    logits = rng.standard_normal((5, 5))
    assert abs(_sym_ce(logits) - _sym_ce(logits.T)) < 1e-12
    perm = rng.permutation(5)
    permuted = logits[np.ix_(perm, perm)]
    assert abs(_sym_ce(logits) - _sym_ce(permuted)) < 1e-12


def test_batch_loss_gradient_matches_finite_differences():
    p = _tiny_params()
    # check at temperature 1: the sharp warm-start temperature makes the
    # softmax curvature large enough to pollute the finite differences
    p.theta[p.layout.offset("log_t")] = 0.0
    rng = rng_stream(7, "fd")
    feats = {mu: rng.standard_normal((3, 4)) for mu in ("vis", "audio", "tex")}
    labels = np.array([0, 1, 2])
    err = finite_diff_check(
        lambda th: _batch_loss_graph(th, p, feats, labels), p.theta)
    assert err < 1e-4


# -- training ------------------------------------------------------------------------

def test_train_rejects_bad_config(corpus):
    train, _ = corpus
    with pytest.raises(ConfigError):
        train_epalign([], AlignTrainConfig())
    with pytest.raises(ConfigError):
        train_epalign(train, AlignTrainConfig(batch=10 ** 6))
    for bad in (dict(epochs=0), dict(batch=0), dict(lr=-1.0), dict(lr=float("nan")),
                dict(lr=float("inf"))):
        with pytest.raises(ConfigError):
            AlignTrainConfig(**bad)


def test_train_lr_zero_keeps_params(corpus):
    train, _ = corpus
    params, curve = train_epalign(train, AlignTrainConfig(batch=5, epochs=6, lr=0.0, seed=42))
    fresh = init_epalign(DIMS, 5, 42)
    assert np.array_equal(params.theta, fresh.theta)
    assert len(curve) == 6
    assert max(curve) - min(curve) < 0.5 * np.mean(curve)


def test_train_deterministic(corpus):
    train, _ = corpus
    cfg = AlignTrainConfig(batch=5, epochs=3, lr=1e-2, seed=11)
    p1, c1 = train_epalign(train, cfg)
    p2, c2 = train_epalign(train, cfg)
    assert c1 == c2
    assert np.array_equal(p1.theta, p2.theta)


@pytest.mark.parametrize("batch, epochs, lr", [(5, 40, 1e-2), (16, 30, 1e-3)])
def test_train_epoch_is_one_shuffled_pass_down_to_the_loss_floor(corpus, monkeypatch,
                                                                 batch, epochs, lr):
    # rows of one class share one prompt row, so no logit tells them apart:
    # the symmetric loss cannot fall below 2 x the mean over rows of
    # ln(rows of that row's class in the batch), and training reaches it
    train, _ = corpus
    seen = []

    def spy(theta_t, params, feats, labels, real=epalign._batch_loss_graph):
        seen.append((feats["vis"], labels))
        return real(theta_t, params, feats, labels)

    monkeypatch.setattr(epalign, "_batch_loss_graph", spy)
    _, curve = train_epalign(train, AlignTrainConfig(batch=batch, epochs=epochs, lr=lr, seed=42))
    per_epoch = len(train) // batch
    assert len(seen) == epochs * per_epoch
    for e in range(epochs):
        rows = np.concatenate([vis for vis, _ in seen[e * per_epoch:(e + 1) * per_epoch]])
        assert len(np.unique(rows, axis=0)) == len(rows)  # no utterance twice in an epoch
    floor = np.mean([2 * np.mean(np.log((labels[:, None] == labels).sum(axis=1)))
                     for _, labels in seen[-per_epoch:]])
    assert floor - 1e-9 <= curve[-1] < floor + 0.05


def test_train_end_to_end_accuracy_and_fusion_ordering(corpus):
    train, test = corpus
    params, _ = train_epalign(train, AlignTrainConfig(batch=16, epochs=30, lr=1e-3, seed=42))
    fused = eval_alignment(params, test, None)
    assert fused["accuracy"] >= 0.95
    for mu in ("vis", "audio", "tex"):
        single = eval_alignment(params, test, (mu,))
        assert fused["macro_f1"] >= single["macro_f1"] - 0.02


# -- inference -------------------------------------------------------------------------

def test_align_infer_exact_prompt_match():
    # constant encoders: every modality embeds to v; prompt row 1 is v too
    v = np.array([1.0, 2.0, -1.0, 0.5])
    p = _tiny_params()
    zero = np.zeros((4, 4))
    table = np.vstack([np.array([5.0, 0, 0, 0]), v, np.array([0, 0, 7.0, 0])])
    p = _with_blocks(
        p, enc_tex_w1=zero, enc_tex_b1=np.zeros(4), enc_tex_w2=zero, enc_tex_b2=v,
        w_imp_tex=np.eye(4), w_pro_tex=np.eye(4), prompt_table=table)
    c = align_infer({"tex": np.ones(4)}, p)
    assert type(c) is int and c == 1
    assert _sample_sims(p, {"tex": np.ones(4)})[1] == pytest.approx(1.0, abs=1e-12)
    u_emo = anchored_prompts(p)[c]
    assert np.allclose(u_emo, v / np.linalg.norm(v))
    assert abs(np.linalg.norm(u_emo) - 1.0) < 1e-12


def test_align_infer_fuses_as_the_training_loss_does():
    # audio's projection is ten times the text one, so audio dominates the
    # mean the loss trains on; inference must score that same mean, not a
    # mean of per-modality unit vectors
    p = _with_blocks(_tiny_params(), w_imp_audio=10 * np.eye(4))
    rng = rng_stream(3, "fusion")
    feats = {mu: rng.standard_normal(4) for mu in ("audio", "tex")}
    blocks = p.layout.unpack(p.theta)

    def implicit(mu):  # one modality's term of the training fusion, in plain numpy
        h = np.tanh(feats[mu] @ blocks["enc_%s_w1" % mu] + blocks["enc_%s_b1" % mu])
        return (h @ blocks["enc_%s_w2" % mu] + blocks["enc_%s_b2" % mu]) @ blocks["w_imp_" + mu]

    u = (implicit("audio") + implicit("tex")) / 2
    cosines = anchored_prompts(p) @ (u / np.linalg.norm(u))
    assert np.allclose(_sample_sims(p, feats), cosines, atol=1e-12)
    assert align_infer(feats, p) == np.argmax(cosines)


def test_modality_set_is_in_modalities_order():
    assert modality_set(("tex", "vis")) == ("vis", "tex")
    assert modality_set(("audio", "tex", "vis")) == MODALITIES
    for bad in ((), ("tex", "tex"), ("vis", "zzz")):
        with pytest.raises(ConfigError):
            modality_set(bad)


def test_align_infer_fuses_in_one_order_whatever_the_features_order():
    # summed in the dict's order, 3 of these 4 seeds moved a similarity's last bit
    p = _tiny_params()
    for seed in range(4):
        rng = rng_stream(seed, "fusion-order")
        feats = {mu: rng.standard_normal(4) for mu in MODALITIES}
        reordered = {mu: feats[mu] for mu in ("tex", "vis", "audio")}
        assert np.array_equal(_sample_sims(p, feats), _sample_sims(p, reordered)), seed
        assert align_infer(feats, p) == align_infer(reordered, p), seed


def test_align_infer_temperature_invariant(corpus):
    train, test = corpus
    params, _ = train_epalign(train, AlignTrainConfig(batch=5, epochs=5, lr=1e-2, seed=3))
    sample = test[0]
    feats = {"vis": sample.feat_vis, "audio": sample.feat_audio, "tex": sample.feat_text}
    before = align_infer(feats, params), _sample_sims(params, feats)
    params.theta[params.layout.offset("log_t")] = 0.123
    after = align_infer(feats, params), _sample_sims(params, feats)
    assert before[0] == after[0]
    assert np.allclose(before[1], after[1])


def test_align_infer_input_errors():
    p = _tiny_params()
    with pytest.raises(DataError, match="at least one modality"):
        align_infer({}, p)
    with pytest.raises(DataError, match="features must be 1-D"):
        align_infer({"vis": np.ones(9)}, p)
    with pytest.raises(DataError, match="unknown modality 'speech'"):
        align_infer({"speech": np.ones(4)}, p)


# -- evaluation ---------------------------------------------------------------------------

def test_classification_report_perfect_and_constant():
    y = np.array([0, 1, 2, 3] * 5)
    perfect = classification_report(y, y, 4)
    assert perfect["macro_f1"] == pytest.approx(1.0)
    assert np.array_equal(perfect["confusion"], np.diag([5, 5, 5, 5]))

    constant = classification_report(y, np.zeros_like(y), 4)
    # constant predictor on a balanced 4-class set: macro F1 = (2*0.25/1.25)/4
    assert constant["macro_f1"] == pytest.approx(0.1)
    assert np.sum(constant["confusion"], axis=1).tolist() == [5, 5, 5, 5]


# -- checkpoints -------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, corpus):
    train, test = corpus
    params, _ = train_epalign(train, AlignTrainConfig(batch=5, epochs=3, lr=1e-2, seed=9))
    path = tmp_path / "align.ckpt"
    save_epalign(params, path)
    back = load_epalign(path)
    assert np.array_equal(back.theta, params.theta)
    assert back.dims == params.dims and back.n_classes == params.n_classes
    sample = test[0]
    feats = {"tex": sample.feat_text}
    assert align_infer(feats, params) == align_infer(feats, back)
    assert np.array_equal(_sample_sims(params, feats), _sample_sims(back, feats))


def test_checkpoint_rejects_garbage(tmp_path):
    theta = np.zeros(4, "<f8").tobytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not json at all {\n" + theta)
    with pytest.raises(FormatError, match="bad.ckpt: Expecting value"):
        load_epalign(bad)
    wrong = tmp_path / "wrong.ckpt"
    wrong.write_bytes(json.dumps({"magic": "SOMETHING/9"}).encode() + b"\n" + theta)
    with pytest.raises(FormatError, match="format 'SOMETHING/9', want 'EPALIGN/5'"):
        load_epalign(wrong)

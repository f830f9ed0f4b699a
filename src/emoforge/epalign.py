"""Contrastive emotion-prompt alignment.

Per-modality encoders map vision / audio / text features into a shared
space; a learnable prompt table holds one embedding per emotion class.
Implicit (content) and explicit (prompt) embeddings are pulled together by
a symmetric cross-entropy over temperature-scaled cosine logits, and
inference picks the prompt with the highest cosine to the fused implicit
embedding. That winning prompt embedding, normalized, is the emotion
vector handed to the synthesis pipeline.

Every forward runs through the autodiff Tensor graph, training and
inference alike, so the two paths cannot drift apart.
"""

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, ParamLayout, adam_step, constant, grad, log_softmax_rows
from .errors import (
    ConfigError,
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    InvalidLabelError,
    ShapeError,
)
from .numeric import rng_stream

MODALITIES = ("vis", "audio", "tex")
MAX_TEMPERATURE = 100.0

_FEAT_ATTR = {"vis": "vision_feat", "audio": "audio_feat", "tex": "text_feat"}


@dataclass
class MultimodalSample:
    vision_feat: np.ndarray
    audio_feat: np.ndarray
    text_feat: np.ndarray
    emotion_label: int

    def __post_init__(self):
        self.vision_feat = np.asarray(self.vision_feat, dtype=np.float64)
        self.audio_feat = np.asarray(self.audio_feat, dtype=np.float64)
        self.text_feat = np.asarray(self.text_feat, dtype=np.float64)
        for f in (self.vision_feat, self.audio_feat, self.text_feat):
            if not np.all(np.isfinite(f)):
                raise InvalidInputError("sample features must be finite")


def samples_from_utterances(utts):
    return [
        MultimodalSample(vision_feat=u.feat_vis, audio_feat=u.feat_audio,
                         text_feat=u.feat_text, emotion_label=u.emotion)
        for u in utts
    ]


@dataclass
class EpAlignParams:
    theta: np.ndarray
    layout: ParamLayout
    dims: dict  # d_vis, d_audio, d_tex, hidden, embed
    n_classes: int
    anchor: str
    modalities: tuple
    seed: int


@dataclass
class AlignmentResult:
    predicted_class: int
    u_emo: np.ndarray  # unit norm, dim embed
    per_class_similarity: np.ndarray


def _block_shapes(dims, n_classes):
    shapes = {}
    for mu in MODALITIES:
        d = dims["d_" + mu]
        shapes["enc_%s_w1" % mu] = (d, dims["hidden"])
        shapes["enc_%s_b1" % mu] = (dims["hidden"],)
        shapes["enc_%s_w2" % mu] = (dims["hidden"], dims["embed"])
        shapes["enc_%s_b2" % mu] = (dims["embed"],)
        shapes["w_imp_" + mu] = (dims["embed"], dims["embed"])
        shapes["w_pro_" + mu] = (dims["embed"], dims["embed"])
    shapes["prompt_table"] = (n_classes, dims["embed"])
    shapes["log_t"] = ()
    return shapes


def init_epalign(d_vis=64, d_audio=64, d_tex=64, hidden=64, embed=32,
                 n_classes=5, seed=42, anchor="tex", modalities=MODALITIES):
    if anchor not in MODALITIES:
        raise ConfigError("anchor must be one of %s, got %r" % (MODALITIES, anchor))
    for mu in modalities:
        if mu not in MODALITIES:
            raise ConfigError("unknown modality %r" % mu)
    if not modalities:
        raise ConfigError("need at least one implicit modality")
    dims = {"d_vis": d_vis, "d_audio": d_audio, "d_tex": d_tex,
            "hidden": hidden, "embed": embed}
    layout = ParamLayout(_block_shapes(dims, n_classes))
    scales = {}
    for name, shape in layout.shapes.items():
        if name == "prompt_table":
            scales[name] = 1.0
        elif name.endswith(("b1", "b2")) or name == "log_t":
            scales[name] = 0.0
        else:
            scales[name] = 1.0 / np.sqrt(shape[0])
    theta = layout.init(lambda name: rng_stream(seed, "epalign:" + name), scales)
    theta[layout.offset("log_t")] = np.log(1.0 / 0.07)  # CLIP-style warm start
    return EpAlignParams(theta=theta, layout=layout, dims=dims, n_classes=n_classes,
                         anchor=anchor, modalities=tuple(modalities), seed=seed)


# ---------------------------------------------------------------------------
# Forward graph pieces (Tensor in, Tensor out)
# ---------------------------------------------------------------------------

def _blocks_of(params, theta_t=None):
    src = params.theta if theta_t is None else theta_t
    if isinstance(src, np.ndarray):
        src = constant(src)
    return params.layout.unpack(src)


def _encode_t(blocks, x_t, mu):
    h = (x_t @ blocks["enc_%s_w1" % mu] + blocks["enc_%s_b1" % mu]).tanh()
    return h @ blocks["enc_%s_w2" % mu] + blocks["enc_%s_b2" % mu]


def _l2rows_t(t):
    n2 = (t * t).sum(axis=1, keepdims=True)
    if np.any(n2.data <= 0.0):
        raise DegenerateInputError("cannot normalize a zero-norm embedding row")
    return t * n2 ** -0.5


def _logits_t(u_exp, u_imp, log_t):
    return log_t.exp() * (_l2rows_t(u_exp) @ _l2rows_t(u_imp).T)


def _sym_ce_t(logits):
    k = logits.data.shape[0]
    idx = np.arange(k)
    row = log_softmax_rows(logits)[idx, idx]
    col = log_softmax_rows(logits.T)[idx, idx]
    return -(row.mean()) - (col.mean())


# ---------------------------------------------------------------------------
# Public single-step operations
# ---------------------------------------------------------------------------

def _check_modality(modality):
    if modality not in MODALITIES:
        raise InvalidInputError("unknown modality %r (known: %s)" % (modality, ", ".join(MODALITIES)))


def encode_modality(x, modality, params):
    """Run one modality encoder: f_mu = MLP(x), tanh hidden. Accepts a single
    vector or a batch of rows."""
    _check_modality(modality)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    want = params.dims["d_" + modality]
    if x2.ndim != 2 or x2.shape[1] != want:
        raise ShapeError("expected %s features of dim %d, got shape %s" % (modality, want, x.shape))
    out = _encode_t(_blocks_of(params), constant(x2), modality).data
    return out[0] if single else out


def project_implicit(f_mu, modality, params):
    """u_mu = f_mu @ W(mu->shared)."""
    _check_modality(modality)
    f = np.asarray(f_mu, dtype=np.float64)
    single = f.ndim == 1
    f2 = f[None, :] if single else f
    if f2.shape[1] != params.dims["embed"]:
        raise ShapeError("expected embed dim %d, got %s" % (params.dims["embed"], f.shape))
    out = (constant(f2) @ _blocks_of(params)["w_imp_" + modality]).data
    return out[0] if single else out


def project_prompt(class_id, anchor, params):
    """u_prop = prompt_table[class] @ W(prompt->anchor modality)."""
    _check_modality(anchor)
    if not 0 <= class_id < params.n_classes:
        raise InvalidLabelError("class %r out of range [0, %d)" % (class_id, params.n_classes))
    blocks = _blocks_of(params)
    row = blocks["prompt_table"][np.array([class_id])]
    return (row @ blocks["w_pro_" + anchor]).data[0]


def alignment_logits(u_exp, u_imp, t):
    """Temperature-scaled cosine logits: exp(t) * cos(u_exp_i, u_imp_j)."""
    a = np.asarray(u_exp, dtype=np.float64)
    b = np.asarray(u_imp, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape or a.shape[0] < 1:
        raise ShapeError("expected matching K x E matrices, got %s and %s" % (a.shape, b.shape))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("embeddings must be finite")
    return _logits_t(constant(a), constant(b), constant(np.float64(t))).data


def alignment_loss(logits):
    """Symmetric cross-entropy with positives on the diagonal: mean row NLL
    of the diagonal plus mean column NLL of the diagonal."""
    m = np.asarray(logits, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ShapeError("logits must be square, got %s" % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("logits must be finite")
    return _sym_ce_t(constant(m)).item()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class AlignTrainConfig:
    batch: int = 16
    epochs: int = 30
    lr: float = 1e-3
    seed: int = 42
    modalities: tuple = MODALITIES
    anchor: str = "tex"
    hidden: int = 64
    embed: int = 32
    n_classes: int = 0  # 0 = infer from labels


def _feat(sample, mu):
    return getattr(sample, _FEAT_ATTR[mu])


def _batch_loss_graph(theta_t, params, feats, labels):
    blocks = params.layout.unpack(theta_t)
    u_sum = None
    for mu in params.modalities:
        u = _encode_t(blocks, constant(feats[mu]), mu) @ blocks["w_imp_" + mu]
        u_sum = u if u_sum is None else u_sum + u
    u_imp = u_sum * (1.0 / len(params.modalities))
    u_exp = blocks["prompt_table"][labels] @ blocks["w_pro_" + params.anchor]
    return _sym_ce_t(_logits_t(u_exp, u_imp, blocks["log_t"]))


def train_epalign(dataset, config=None):
    """Train alignment on multimodal samples; returns (params, loss curve).

    Batches hold distinct emotion classes whenever batch size <= n_classes
    (stratified draw), which keeps the diagonal-positive contrastive target
    coherent; larger batches fall back to plain shuffled chunks where
    same-class pairs act as ordinary in-batch negatives.
    """
    config = config or AlignTrainConfig()
    if not dataset:
        raise ConfigError("cannot train on an empty dataset")
    if config.batch < 1 or config.batch > len(dataset):
        raise ConfigError("batch size %d out of range for %d samples" % (config.batch, len(dataset)))
    if config.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    labels = np.array([s.emotion_label for s in dataset])
    n_classes = config.n_classes or int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InvalidLabelError("labels must lie in [0, %d)" % n_classes)

    params = init_epalign(
        d_vis=dataset[0].vision_feat.size, d_audio=dataset[0].audio_feat.size,
        d_tex=dataset[0].text_feat.size, hidden=config.hidden, embed=config.embed,
        n_classes=n_classes, seed=config.seed, anchor=config.anchor,
        modalities=tuple(config.modalities))
    theta = params.theta
    state = AdamState.zeros(theta.size)
    rng = rng_stream(config.seed, "epalign:batches")
    by_class = [np.flatnonzero(labels == c) for c in range(n_classes)]
    log_t_at = params.layout.offset("log_t")

    n = len(dataset)
    steps_per_epoch = max(1, n // config.batch)
    curve = []
    for _ in range(config.epochs):
        epoch_losses = []
        if config.batch <= n_classes:
            batches = []
            for _ in range(steps_per_epoch):
                classes = rng.choice(n_classes, size=config.batch, replace=False)
                batches.append([by_class[c][rng.integers(len(by_class[c]))] for c in classes])
        else:
            perm = rng.permutation(n)
            batches = [perm[i:i + config.batch] for i in range(0, n - config.batch + 1, config.batch)]
        for idx in batches:
            idx = np.asarray(idx)
            feats = {mu: np.stack([_feat(dataset[i], mu) for i in idx])
                     for mu in params.modalities}
            blab = labels[idx]
            loss_fn = lambda th: _batch_loss_graph(th, params, feats, blab)
            g, loss = grad(loss_fn, theta, return_loss=True)
            theta, state = adam_step(theta, g, state, lr=config.lr)
            theta[log_t_at] = min(theta[log_t_at], np.log(MAX_TEMPERATURE))
            epoch_losses.append(loss)
        curve.append(float(np.mean(epoch_losses)))
    params.theta = theta
    return params, curve


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------

def anchored_prompts(params):
    """All C prompt embeddings, anchored and L2-normalized (C x embed)."""
    blocks = _blocks_of(params)
    return _l2rows_t(blocks["prompt_table"] @ blocks["w_pro_" + params.anchor]).data


def _infer_batch(feats, params):
    """Shared inference core: dict of (N x D_mu) feature matrices in, predicted
    classes, similarity matrix and the normalized prompt table out."""
    blocks = _blocks_of(params)
    fused = None
    for mu, x in feats.items():
        u = _l2rows_t(_encode_t(blocks, constant(x), mu) @ blocks["w_imp_" + mu])
        fused = u if fused is None else fused + u
    fused = _l2rows_t(fused * (1.0 / len(feats)))
    prompts = _l2rows_t(blocks["prompt_table"] @ blocks["w_pro_" + params.anchor])
    sims = (fused @ prompts.T).data
    return np.argmax(sims, axis=1), sims, prompts.data


def align_infer(features, params):
    """Classify one sample from whichever modalities are present.

    features: dict mapping modality name -> feature vector. Returns the
    argmax class, its unit-norm prompt embedding (u_emo) and the per-class
    cosine similarities.
    """
    if not features:
        raise InvalidInputError("align_infer needs at least one modality")
    feats = {}
    for mu, x in features.items():
        _check_modality(mu)
        x = np.asarray(x, dtype=np.float64)
        want = params.dims["d_" + mu]
        if x.ndim != 1 or x.size != want:
            raise ShapeError("%s features must be 1-D of dim %d, got %s" % (mu, want, x.shape))
        feats[mu] = x[None, :]
    preds, sims, prompts = _infer_batch(feats, params)
    c = int(preds[0])
    return AlignmentResult(predicted_class=c, u_emo=prompts[c], per_class_similarity=sims[0])


def classification_report(y_true, y_pred, n_classes):
    """Confusion matrix (rows = true), per-class precision/recall, macro F1."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(confusion, (y_true, y_pred), 1)
    tp = np.diag(confusion).astype(float)
    pred_tot = confusion.sum(axis=0).astype(float)
    true_tot = confusion.sum(axis=1).astype(float)
    precision = np.divide(tp, pred_tot, out=np.zeros(n_classes), where=pred_tot > 0)
    recall = np.divide(tp, true_tot, out=np.zeros(n_classes), where=true_tot > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(n_classes), where=denom > 0)
    return {
        "accuracy": float(tp.sum() / max(1, len(y_true))),
        "macro_f1": float(f1.mean()),
        "precision": [float(p) for p in precision],
        "recall": [float(r) for r in recall],
        "confusion": [[int(n) for n in row] for row in confusion],
    }


def eval_alignment(params, dataset, modalities=None):
    """Evaluate alignment over a labeled dataset with the given modality
    subset (default: the modalities the model was trained with)."""
    if not dataset:
        raise ConfigError("cannot evaluate on an empty dataset")
    mods = tuple(modalities) if modalities else params.modalities
    for mu in mods:
        _check_modality(mu)
    feats = {mu: np.stack([_feat(s, mu) for s in dataset]) for mu in mods}
    preds, _, _ = _infer_batch(feats, params)
    y = np.array([s.emotion_label for s in dataset])
    return classification_report(y, preds, params.n_classes)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

_MAGIC = "EPALIGN/1"


def save_epalign(params, path):
    payload = {
        "magic": _MAGIC,
        "dims": params.dims,
        "n_classes": params.n_classes,
        "anchor": params.anchor,
        "modalities": list(params.modalities),
        "seed": params.seed,
        "theta": params.theta.tolist(),
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_epalign(path):
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as e:
        raise FormatError("not a valid checkpoint: %s (%s)" % (path, e))
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise FormatError("bad checkpoint magic in %s (want %s)" % (path, _MAGIC))
    try:
        dims = payload["dims"]
        n_classes = int(payload["n_classes"])
        layout = ParamLayout(_block_shapes(dims, n_classes))
        theta = np.asarray(payload["theta"], dtype=np.float64)
        anchor, modalities = payload["anchor"], tuple(payload["modalities"])
        seed = int(payload["seed"])
    except KeyError as e:
        raise FormatError("checkpoint %s missing field %s" % (path, e))
    except (TypeError, ValueError) as e:
        raise FormatError("checkpoint %s has a malformed field: %s" % (path, e))
    if theta.shape != (layout.size,):
        raise FormatError("checkpoint theta has %d values, layout wants %d"
                          % (theta.size, layout.size))
    if not np.isfinite(theta).all():
        raise FormatError("checkpoint %s has non-finite parameters" % path)
    for mu in (anchor, *modalities):
        if mu not in MODALITIES:
            raise FormatError("checkpoint %s names unknown modality %r" % (path, mu))
    return EpAlignParams(theta=theta, layout=layout, dims=dims, n_classes=n_classes,
                         anchor=anchor, modalities=modalities, seed=seed)

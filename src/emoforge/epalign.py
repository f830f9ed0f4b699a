"""Contrastive emotion-prompt alignment.

Per-modality encoders map vision / audio / text features into a shared
space; a learnable prompt table holds one embedding per emotion class.
Every model holds an encoder for each of the three modalities, as every
corpus carries all three; inference fuses whichever subset a caller has.
Implicit (content) and explicit (prompt) embeddings are pulled together by
a symmetric cross-entropy over temperature-scaled cosine logits, and
inference picks the prompt with the highest cosine to the fused implicit
embedding. That winning prompt embedding, normalized, is the emotion
vector handed to the synthesis pipeline.

Every forward runs through the autodiff Tensor graph, training and
inference alike, so the two paths cannot drift apart.
"""

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autodiff import AdamState, ParamLayout, adam_step, constant, grad, log_softmax_rows
from .errors import ConfigError, DataError
from .numeric import rng_stream

MODALITIES = ("vis", "audio", "tex")
MAX_TEMPERATURE = 100.0
HIDDEN = 64  # encoder hidden width
EMBED = 32  # width of the shared space: the emotion vector synthesis reads

_FEAT_ATTR = {"vis": "feat_vis", "audio": "feat_audio", "tex": "feat_text"}


@dataclass
class EpAlignParams:
    theta: np.ndarray
    layout: ParamLayout
    dims: dict  # d_<mu> for each modality: the input widths; the rest are constants
    n_classes: int
    seed: int


def _block_shapes(dims, n_classes):
    """An encoder per modality and one prompt projection into the text space:
    the blocks the loss reads, and no others."""
    shapes = {}
    for mu in MODALITIES:
        shapes["enc_%s_w1" % mu] = (dims["d_" + mu], HIDDEN)
        shapes["enc_%s_b1" % mu] = (HIDDEN,)
        shapes["enc_%s_w2" % mu] = (HIDDEN, EMBED)
        shapes["enc_%s_b2" % mu] = (EMBED,)
        shapes["w_imp_" + mu] = (EMBED, EMBED)
    shapes["w_pro_tex"] = (EMBED, EMBED)
    shapes["prompt_table"] = (n_classes, EMBED)
    shapes["log_t"] = ()
    return shapes


def modality_set(names):
    """`names` in MODALITIES order, whatever order they came in, so that one
    set of prompts fuses one way."""
    ordered = tuple(mu for mu in MODALITIES if mu in names)
    if not names or len(ordered) != len(names):
        raise ConfigError("want one or more distinct modalities among %s, got %s"
                          % ("/".join(MODALITIES), list(names)))
    return ordered


def init_epalign(dims, n_classes, seed):
    """A fresh model; dims maps d_<mu> to the input width of each modality."""
    layout = ParamLayout(_block_shapes(dims, n_classes))
    theta = layout.init(lambda name: rng_stream(seed, "epalign:" + name), unit=("prompt_table",))
    theta[layout.offset("log_t")] = np.log(1.0 / 0.07)  # CLIP-style warm start
    return EpAlignParams(theta=theta, layout=layout, dims=dims, n_classes=n_classes, seed=seed)


# ---------------------------------------------------------------------------
# Forward graph pieces (Tensor in, Tensor out)
# ---------------------------------------------------------------------------

def _encode_t(blocks, x_t, mu):
    h = (x_t @ blocks["enc_%s_w1" % mu] + blocks["enc_%s_b1" % mu]).tanh()
    return h @ blocks["enc_%s_w2" % mu] + blocks["enc_%s_b2" % mu]


def _l2rows_t(t):
    n2 = (t * t).sum(axis=1, keepdims=True)
    if not np.isfinite(n2.data).all() or (n2.data <= 0.0).any():
        raise DataError("cannot normalize an embedding row of zero or non-finite norm")
    return t * n2 ** -0.5


def _logits_t(u_exp, u_imp, log_t):
    return log_t.exp() * (_l2rows_t(u_exp) @ _l2rows_t(u_imp).T)


def _sym_ce_t(logits):
    k = logits.data.shape[0]
    idx = np.arange(k)
    row = log_softmax_rows(logits)[idx, idx]
    col = log_softmax_rows(logits.T)[idx, idx]
    return -(row.mean()) - (col.mean())


def _implicit_t(blocks, feats):
    """Mean of each modality's projected encoding over a dict of (N x D_mu)
    features, summed in MODALITIES order whatever the dict's; the training
    loss and inference both fuse through it."""
    u_sum = None
    for mu in modality_set(feats):
        u = _encode_t(blocks, constant(feats[mu]), mu) @ blocks["w_imp_" + mu]
        u_sum = u if u_sum is None else u_sum + u
    return u_sum * (1.0 / len(feats))


def _prompts_t(blocks):
    """All C prompt embeddings, projected into the text space and L2-normalized."""
    return _l2rows_t(blocks["prompt_table"] @ blocks["w_pro_tex"])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class AlignTrainConfig:
    batch: int = 16
    epochs: int = 30
    lr: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError("lr must be finite and non-negative")


def _batch_loss_graph(theta_t, params, feats, labels):
    blocks = params.layout.unpack(theta_t)
    u_exp = blocks["prompt_table"][labels] @ blocks["w_pro_tex"]
    return _sym_ce_t(_logits_t(u_exp, _implicit_t(blocks, feats), blocks["log_t"]))


def train_epalign(dataset, config):
    """Train alignment on corpus utterances (rows with `feat_vis`,
    `feat_audio`, `feat_text` and `emotion`); returns (params, loss curve).

    Each epoch is one shuffled pass cut into whole batches; the shuffle's
    last `len(dataset) % batch` rows sit that epoch out. Same-class rows in a
    batch share one prompt row, so the loss cannot fall below 2 x the mean
    over rows of ln(rows of that row's class in the batch).
    """
    if config.batch > len(dataset):
        raise ConfigError("batch size %d out of range for %d samples" % (config.batch, len(dataset)))
    labels = np.array([u.emotion for u in dataset])
    if labels.min() < 0:
        raise DataError("labels must be non-negative")
    n_classes, n = int(labels.max()) + 1, len(dataset)
    if n_classes > n:  # θ is sized by it: bound it before init_epalign allocates
        raise DataError("emotion id %d is not below %d utterances" % (n_classes - 1, n))

    dims = {"d_" + mu: getattr(dataset[0], _FEAT_ATTR[mu]).size for mu in MODALITIES}
    params = init_epalign(dims, n_classes, config.seed)
    theta = params.theta
    state = AdamState.zeros(theta.size)
    rng = rng_stream(config.seed, "epalign:batches")
    log_t_at = params.layout.offset("log_t")

    curve = []
    for _ in range(config.epochs):
        epoch_losses = []
        for idx in rng.permutation(n)[:n - n % config.batch].reshape(-1, config.batch):
            feats = {mu: np.stack([getattr(dataset[i], _FEAT_ATTR[mu]) for i in idx])
                     for mu in MODALITIES}
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
    """All C prompt embeddings in the text space, L2-normalized (C x EMBED)."""
    return _prompts_t(params.layout.unpack(constant(params.theta))).data


def _infer_batch(feats, params):
    """Shared inference core: dict of (N x D_mu) feature matrices in, the N
    classes whose prompts have the highest cosine to the fused rows out."""
    blocks = params.layout.unpack(constant(params.theta))
    return np.argmax((_l2rows_t(_implicit_t(blocks, feats)) @ _prompts_t(blocks).T).data, axis=1)


def _checked_features(mu, x, params):
    """One sample's `mu` feature vector as float64, checked against the model."""
    if mu not in MODALITIES:
        raise DataError("unknown modality %r: want one of %s" % (mu, ", ".join(MODALITIES)))
    x = np.asarray(x, dtype=np.float64)
    want = params.dims["d_" + mu]
    if x.ndim != 1 or x.size != want:
        raise DataError("%s features must be 1-D of dim %d, got %s" % (mu, want, x.shape))
    return x


def align_infer(features, params):
    """Classify one sample from whichever modalities are present.

    features: dict mapping modality name -> feature vector. Returns the
    class whose prompt has the highest cosine to the fused embedding; that
    class's emotion vector is its row of `anchored_prompts(params)`.
    """
    if not features:
        raise DataError("align_infer needs at least one modality")
    feats = {mu: _checked_features(mu, x, params)[None, :] for mu, x in features.items()}
    return int(_infer_batch(feats, params)[0])


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


def eval_alignment(params, dataset, modalities):
    """Evaluate alignment over a labeled dataset with the given modality
    subset (None: all of MODALITIES)."""
    mods = MODALITIES if modalities is None else modality_set(modalities)
    y = np.array([u.emotion for u in dataset])
    if y.min() < 0 or y.max() >= params.n_classes:
        raise DataError("labels must lie in [0, %d), got %d..%d"
                        % (params.n_classes, y.min(), y.max()))
    feats = {mu: np.stack([_checked_features(mu, getattr(u, _FEAT_ATTR[mu]), params)
                           for u in dataset]) for mu in mods}
    return classification_report(y, _infer_batch(feats, params), params.n_classes)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

_MAGIC = "EPALIGN/5"
_SCHEMA = {"dims": tuple("d_" + mu for mu in MODALITIES), "n_classes": "pos", "seed": "int"}


def save_epalign(params, path):
    checkpoint.save(path, _MAGIC, _SCHEMA, params)


def load_epalign(path):
    fields, layout, theta = checkpoint.load(
        path, _MAGIC, _SCHEMA, lambda f: ParamLayout(_block_shapes(f["dims"], f["n_classes"])))
    return EpAlignParams(theta=theta, layout=layout, **fields)

"""Toy text-to-speech pipeline with pluggable emotion conditioning.

The synthesis path is: character encoder -> conditioning (one of three
variants) -> mel decoder, run once per character -> duration expansion ->
Griffin-Lim vocoder.  Expanding last relies on no decoder step reading a
frame's position; a per-frame input (a positional encoding, say) would need
the old order, expansion first.  The three variants differ only in where
the emotion/speaker condition enters:

  "vits"        affine coupling flow applied to the decoded mel rows
  "fastspeech"  learned condition bias on the text features, h + W_v c
  "tacotron"    plain concatenation of condition onto the text features

All variants share the same base weights for a given seed (each block is
initialized from its own named stream), so with neutralized conditioning
parameters "vits" and "fastspeech" are frame-for-frame interchangeable.
"""

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .autodiff import ParamLayout, AdamState, adam_step, constant, concat, grad, repeat_rows
from .conditioning import (
    attention_block_shapes,
    attention_graph,
    build_condition_graph,
    coupling_block_shapes,
    coupling_graph,
)
from .dsp import HOP, N_FFT, N_MELS, MelSpectrogram, griffin_lim, mel_spectrogram, wav_read
from .errors import ConfigError, InvalidInputError, InvalidLabelError
from .numeric import rng_stream

VOCAB = "abcdefghijklmnopqrstuvwxyz ."
VARIANTS = ("vits", "fastspeech", "tacotron")
CHAR_DIM = 32
DEC_HIDDEN = 64
COUPLING_GATE = 16
MAX_FRAMES_PER_CHAR = 20
# Griffin-Lim's centered STFT needs more than N_FFT/2 samples, and T frames
# give (T - 1) * HOP of them, so T must be at least N_FFT // (2 * HOP) + 2.
MIN_FRAMES = N_FFT // (2 * HOP) + 2
CKPT_MAGIC = "EMITTS/3"


@dataclass
class TtsConfig:
    steps: int = 2000
    lr: float = 0.05
    batch: int = 8
    seed: int = 42

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError("lr must be finite and non-negative")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")


@dataclass
class TtsParams:
    theta: np.ndarray
    layout: ParamLayout
    variant: str
    dims: dict  # embed, n_speakers: the widths a model is built for; the rest are constants
    seed: int


def _char_ids(text):
    ids = [VOCAB.index(ch) for ch in text.lower() if ch in VOCAB]
    if not ids:
        raise InvalidInputError("text is empty after normalization: %r" % (text,))
    return np.asarray(ids, dtype=np.intp)


def _posenc(t_len):
    pos = np.arange(t_len, dtype=np.float64)[:, None]
    k = np.arange(CHAR_DIM, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (k // 2) / CHAR_DIM)
    return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))


def tts_block_shapes(variant, embed, n_speakers):
    if variant not in VARIANTS:
        raise ConfigError("unknown variant %r (want one of %s)" % (variant, "/".join(VARIANTS)))
    d_u = embed + n_speakers  # the condition [u_emo; u_spk]
    d_cond = CHAR_DIM + d_u if variant == "tacotron" else CHAR_DIM
    shapes = {
        "char_emb": (len(VOCAB), CHAR_DIM),
        "enc_w1": (CHAR_DIM, CHAR_DIM),
        "enc_b1": (CHAR_DIM,),
        "enc_w2": (CHAR_DIM, CHAR_DIM),
        "enc_b2": (CHAR_DIM,),
        "dur_w": (d_cond, 1),
        "dur_b": (1,),
        "dec_w1": (d_cond, DEC_HIDDEN),
        "dec_b1": (DEC_HIDDEN,),
        "dec_w2": (DEC_HIDDEN, N_MELS),
        "dec_b2": (N_MELS,),
    }
    if variant == "vits":
        # two coupling blocks with a half-swap between them, so both halves
        # of the mel frame are transformable (a single block pins the first)
        for prefix in ("flow_a_", "flow_b_"):
            for name, shape in coupling_block_shapes(N_MELS, d_u, COUPLING_GATE).items():
                shapes[prefix + name] = shape
    else:
        # condition-to-output linear bias so per-emotion spectral offsets
        # don't have to route through the shared tanh layer
        shapes["dec_wc"] = (d_u, N_MELS)
        if variant == "fastspeech":
            shapes.update(attention_block_shapes(CHAR_DIM, d_u))
    return shapes


def init_tts(variant, embed, n_speakers, seed):
    layout = ParamLayout(tts_block_shapes(variant, embed, n_speakers))
    theta = layout.init(lambda name: rng_stream(seed, "tts:" + name), unit=("char_emb",))
    dims = dict(embed=embed, n_speakers=n_speakers)
    return TtsParams(theta=theta, layout=layout, variant=variant, dims=dims, seed=seed)


def speaker_one_hot(speaker, n_speakers):
    if not 0 <= speaker < n_speakers:
        raise InvalidLabelError("speaker %d out of range [0, %d)" % (speaker, n_speakers))
    u = np.zeros(n_speakers)
    u[speaker] = 1.0
    return u


# -- graph construction -------------------------------------------------------

def _text_graph(blocks, ids, posenc):
    e = blocks["char_emb"][ids] + constant(posenc)
    hidden = (e @ blocks["enc_w1"] + blocks["enc_b1"]).tanh()
    return hidden @ blocks["enc_w2"] + blocks["enc_b2"]


def _condition_graph(blocks, h_t, u_emo, u_spk, variant):
    if variant == "tacotron":
        t_len = h_t.shape[0]
        pads = [constant(np.tile(u_emo, (t_len, 1))), constant(np.tile(u_spk, (t_len, 1)))]
        return concat([h_t] + pads)
    if variant == "fastspeech":
        c_t = build_condition_graph(blocks, constant(u_emo[None, :]), constant(u_spk[None, :]))
        return attention_graph(blocks, h_t, c_t)
    return h_t  # vits conditions the decoder output instead


def _duration_graph(blocks, h_cond_t):
    return (h_cond_t @ blocks["dur_w"] + blocks["dur_b"]).softplus()


def _swap_halves(t):
    half = t.shape[1] // 2
    return concat([t[:, half:], t[:, :half]])


def _decoder_graph(blocks, h_cond_t, u_emo, u_spk, variant, durations):
    # a lone character runs as two rows, its copy given no frames: one-row gemv rounds unlike gemm
    rows, counts = ((h_cond_t, durations) if h_cond_t.shape[0] > 1
                    else (h_cond_t[[0, 0]], [durations[0], 0]))
    hidden = (rows @ blocks["dec_w1"] + blocks["dec_b1"]).tanh()
    mel = hidden @ blocks["dec_w2"] + blocks["dec_b2"]
    u = constant(np.concatenate([u_emo, u_spk])[None, :])
    if variant == "vits":
        flow_a = {k[len("flow_a_"):]: v for k, v in blocks.items() if k.startswith("flow_a_")}
        flow_b = {k[len("flow_b_"):]: v for k, v in blocks.items() if k.startswith("flow_b_")}
        mel, _ = coupling_graph(flow_a, mel, u)
        mel, _ = coupling_graph(flow_b, _swap_halves(mel), u)
        mel = _swap_halves(mel)
    else:
        mel = mel + u @ blocks["dec_wc"]
    return repeat_rows(mel, counts)


def _check_condition(u_emo, u_spk, params):
    if abs(np.linalg.norm(u_emo) - 1.0) > 1e-6:
        raise InvalidInputError("u_emo must be unit norm")
    if len(u_emo) != params.dims["embed"]:
        raise InvalidInputError("emotion embedding has dim %d, model expects %d"
                                % (len(u_emo), params.dims["embed"]))
    if len(u_spk) != params.dims["n_speakers"]:
        raise InvalidInputError("speaker vector has dim %d, model expects %d"
                                % (len(u_spk), params.dims["n_speakers"]))


# -- public operations -------------------------------------------------------

def synthesize(text, u_emo, u_spk, params):
    """Full path from text to waveform; deterministic given params and inputs."""
    u_emo = np.asarray(u_emo, dtype=np.float64)
    u_spk = np.asarray(u_spk, dtype=np.float64)
    _check_condition(u_emo, u_spk, params)
    ids = _char_ids(text)
    blocks = {k: constant(v) for k, v in params.layout.unpack(params.theta).items()}
    h_lg = _text_graph(blocks, ids, _posenc(len(ids)))
    h_cond = _condition_graph(blocks, h_lg, u_emo, u_spk, params.variant)
    raw = _duration_graph(blocks, h_cond).data
    durations = np.clip(np.rint(raw[:, 0]), 1, MAX_FRAMES_PER_CHAR).astype(int)
    # a short text holds its last character until the vocoder has enough frames
    durations[-1] += max(0, MIN_FRAMES - int(durations.sum()))
    mel_t = _decoder_graph(blocks, h_cond, u_emo, u_spk, params.variant, durations)
    mel = MelSpectrogram(frames=mel_t.data)
    wav = griffin_lim(mel)
    return wav, mel


# -- training -----------------------------------------------------------------

def _utterance_batch(utt, prompts, n_speakers):
    ids = _char_ids(utt.text)
    if len(ids) != len(utt.durations):
        raise InvalidInputError("utterance %s: %d durations for %d characters"
                                % (utt.id, len(utt.durations), len(ids)))
    if not 0 <= utt.emotion < len(prompts):
        raise InvalidLabelError("utterance %s: emotion %d out of range" % (utt.id, utt.emotion))
    ref = mel_spectrogram(wav_read(utt.wav_path)).frames
    # center-padded STFT yields one frame beyond the teacher total; trim it.
    # Summed as Python ints, before a duration past int64 reaches numpy.
    if len(ref) != sum(utt.durations) + 1:
        raise InvalidInputError("utterance %s: durations sum to %d frames, %s has %d"
                                % (utt.id, sum(utt.durations), utt.wav_path, len(ref) - 1))
    durations = np.asarray(utt.durations, dtype=int)
    return {
        "ids": ids,
        "durations": durations,
        "u_emo": prompts[utt.emotion],
        "u_spk": speaker_one_hot(utt.speaker, n_speakers),
        "target": ref[:-1],
        "posenc": _posenc(len(ids)),
    }


def _loss_graph(theta_t, params, batch):
    blocks = params.layout.unpack(theta_t)
    h_lg = _text_graph(blocks, batch["ids"], batch["posenc"])
    h_cond = _condition_graph(blocks, h_lg, batch["u_emo"], batch["u_spk"], params.variant)
    dur_soft = _duration_graph(blocks, h_cond)
    mel = _decoder_graph(blocks, h_cond, batch["u_emo"], batch["u_spk"],
                         params.variant, batch["durations"])
    mel_err = mel - constant(batch["target"])
    dur_err = dur_soft - constant(batch["durations"].astype(np.float64)[:, None])
    return (mel_err * mel_err).mean() + (dur_err * dur_err).mean()


def train_tts(dataset, prompts, variant, config):
    """Teacher-forced trainer: L2 on mel frames plus L2 on soft durations.

    Targets are the mel frames of each utterance's 16 kHz WAV (`wav_path`);
    `prompts` holds one unit-norm alignment prompt per emotion class (as
    `epalign.anchored_prompts` returns them). Returns (params, curve), the
    mean probe-set loss before the first update and after the last.
    """
    if not dataset:
        raise ConfigError("empty training set")
    prompts = np.asarray(prompts, dtype=np.float64)
    if prompts.ndim != 2:
        raise ConfigError("prompt table must be a C x E matrix")
    n_speakers = max(u.speaker for u in dataset) + 1
    if n_speakers > len(dataset):  # θ is sized by it: bound it before init_tts allocates
        raise InvalidLabelError("speaker id %d is not below %d, the number of utterances"
                                % (n_speakers - 1, len(dataset)))
    params = init_tts(variant, prompts.shape[1], n_speakers, config.seed)

    batches = [_utterance_batch(u, prompts, n_speakers) for u in dataset]
    probe = batches[: min(8, len(batches))]

    def probe_loss(theta):
        vals = [_loss_graph(constant(theta), params, b).item() for b in probe]
        return float(np.mean(vals))

    order_rng = rng_stream(config.seed, "tts:order")
    state = AdamState.zeros(params.theta.size)
    before = probe_loss(params.theta)
    queue = []
    for _ in range(config.steps):
        while len(queue) < config.batch:
            queue.extend(order_rng.permutation(len(batches)))
        take, queue = queue[: config.batch], queue[config.batch:]
        g = np.zeros_like(params.theta)
        for i in take:
            g += grad(lambda t: _loss_graph(t, params, batches[i]), params.theta)
        params.theta, state = adam_step(params.theta, g / config.batch, state, config.lr)
    return params, [before, probe_loss(params.theta)]


# -- checkpointing ------------------------------------------------------------

_SCHEMA = {"variant": "str", "dims": ("embed", "n_speakers"), "seed": "int"}


def save_tts(params, path):
    checkpoint.save(path, CKPT_MAGIC, _SCHEMA, params)


def _checkpoint_layout(fields):
    if fields["variant"] not in VARIANTS:
        raise FormatError("unknown variant %r in checkpoint" % (fields["variant"],))
    return ParamLayout(tts_block_shapes(fields["variant"], **fields["dims"]))


def load_tts(path):
    fields, layout, theta = checkpoint.load(path, CKPT_MAGIC, _SCHEMA, _checkpoint_layout)
    return TtsParams(theta=theta, layout=layout, **fields)

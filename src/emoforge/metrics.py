"""Objective evaluation suite: WER/CER over edit distance, mel-cepstral
distortion with DTW alignment, speaker-embedding cosine similarity, and
MOS aggregation with Student-t 95% confidence intervals.

Per-utterance metrics are pure functions of the two waveforms / transcripts;
corpus aggregation pools WER/CER (total edits over total reference tokens)
and reports MCD/SECS as medians.
"""

import json
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .dsp import mel_cepstra, mel_spectrogram
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
    UndefinedMetricError,
)


# ---------------------------------------------------------------------------
# Edit distance and text normalization
# ---------------------------------------------------------------------------

def edit_distance(ref, hyp):
    """Levenshtein distance between two token sequences (unit costs).

    The DP runs row by row. Each cell takes the diagonal (match or
    substitution) first; the cell above, then the cell to the left, replace
    it only when strictly smaller.
    """
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        left = i
        cur = [left]
        for j, h in enumerate(hyp):
            best = prev[j] if r == h else prev[j] + 1
            if prev[j + 1] + 1 < best:
                best = prev[j + 1] + 1
            if left + 1 < best:
                best = left + 1
            cur.append(best)
            left = best
        prev = cur
    return prev[-1]


_KEEP = re.compile(r"[^a-z0-9' ]+")
_SPACES = re.compile(r"\s+")


def normalize_text(s):
    """Lowercase, strip punctuation to [a-z0-9' ], collapse whitespace."""
    s = _KEEP.sub(" ", s.lower().replace("\t", " ").replace("\n", " "))
    return _SPACES.sub(" ", s).strip()


# ---------------------------------------------------------------------------
# DTW and MCD
# ---------------------------------------------------------------------------

def dtw_align(a, b):
    """Dynamic time warping between two feature sequences.

    Returns the monotone path of (i, j) index pairs from (0, 0) to
    (T_a-1, T_b-1) minimizing the summed per-pair Euclidean cost, with
    steps {(1,0), (0,1), (1,1)}. Features must be finite.

    The accumulated cost acc[i, j] = cost[i, j] + min(acc[i-1, j-1],
    acc[i-1, j], acc[i, j-1]) is filled one anti-diagonal (i + j = d) at a
    time: the cells of a diagonal depend only on the two before it, so each
    is one vectorized step over strided views of a (T_a+1)x(T_b+1) buffer
    whose +inf border stands in for the missing neighbours of row and
    column 0. Every cell is the same single add of an exact minimum as in a
    cell-by-cell loop, so acc and the path do not depend on the fill order.
    The backtrack prefers the diagonal, then up, then left on ties, which
    fixes the path shape (the cost is the same for every tied path).
    """
    from scipy.spatial.distance import cdist  # 0.4 s to import: only commands that align pay it
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] < 1 or b.shape[0] < 1:
        raise ShapeError("dtw_align needs two non-empty 2-D sequences")
    if a.shape[1] != b.shape[1]:
        raise ShapeError("feature dims differ: %d vs %d" % (a.shape[1], b.shape[1]))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("dtw_align needs finite features")
    ta, tb = a.shape[0], b.shape[0]
    # acc[i + 1, j + 1] holds cell (i, j); acc[0, 0] = 0 starts the path
    cols = tb + 1
    acc = np.empty((ta + 1, cols))
    acc[0, :] = np.inf
    acc[1:, 0] = np.inf
    acc[0, 0] = 0.0
    for r in range(0, ta, _DTW_ROWS):
        acc[1 + r:1 + r + _DTW_ROWS, 1:] = cdist(a[r:r + _DTW_ROWS], b)
    flat = acc.reshape(-1)
    # consecutive cells of an anti-diagonal lie cols - 1 apart in flat;
    # their diagonal, up and left neighbours lie cols + 1, cols and 1 before
    step = cols - 1
    for d in range(ta + tb - 1):
        i0, i1 = max(0, d - tb + 1), min(d, ta - 1)
        start = cols + d + 1 + i0 * step
        stop = start + (i1 - i0) * step + 1
        best = np.minimum(flat[start - cols - 1:stop - cols - 1:step],
                          flat[start - cols:stop - cols:step])
        np.minimum(best, flat[start - 1:stop - 1:step], out=best)
        flat[start:stop:step] += best
    path = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            # cells (i-1, j-1), (i-1, j), (i, j-1) in padded coordinates
            diag, up, left = acc[i, j], acc[i, j + 1], acc[i + 1, j]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return path


_DTW_ROWS = 256  # cost rows per cdist call in dtw_align: no T_a x T_b temporary
_MCD_COEFFS = 14  # c0..c13; c0 is dropped before alignment


def mcd(ref, syn):
    """Mel-cepstral distortion in dB between two waveforms.

    Cepstra (c1..c13, c0 excluded for gain invariance) are DTW-aligned and
    the per-pair distortion (10/ln 10)*sqrt(2*sum(dc_k^2)) is averaged over
    the path. Arguments are ordered canonically first, so the result is
    exactly symmetric even when several warping paths tie.
    """
    ca = mel_cepstra(mel_spectrogram(ref))[:, 1:_MCD_COEFFS]
    cb = mel_cepstra(mel_spectrogram(syn))[:, 1:_MCD_COEFFS]
    if ca.tobytes() > cb.tobytes():
        ca, cb = cb, ca
    ii, jj = np.array(dtw_align(ca, cb)).T
    diffs = ca[ii] - cb[jj]
    per_pair = (10.0 / np.log(10.0)) * np.sqrt(2.0 * np.sum(diffs ** 2, axis=1))
    return float(np.mean(per_pair))


# ---------------------------------------------------------------------------
# Speaker similarity
# ---------------------------------------------------------------------------

def speaker_embedding(w):
    """Unit-norm speaker embedding: per-band mean and std of the log-mel
    spectrogram, concatenated (dim 2*N_mel). Sign-invariant by construction
    since only magnitude spectra enter."""
    m = mel_spectrogram(w)
    if m.frames.shape[0] < 5:
        raise InvalidInputError(
            "need >= 5 mel frames for a speaker embedding, got %d" % m.frames.shape[0])
    emb = np.concatenate([m.frames.mean(axis=0), m.frames.std(axis=0)])
    return emb / np.sqrt((emb * emb).sum())


def secs(ref, syn):
    """Speaker-embedding cosine similarity, in [-1, 1]."""
    a, b = speaker_embedding(ref), speaker_embedding(syn)
    # Clip: rounding can push |cos| a few ulp past 1.
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


# ---------------------------------------------------------------------------
# MOS aggregation
# ---------------------------------------------------------------------------

@dataclass
class MosSummary:
    mean: float
    half_width_95: float
    n: int

    def formatted(self):
        return "%.2f(±%.2f)" % (self.mean, self.half_width_95)


def mos_aggregate(scores):
    """Aggregate opinion scores on the 1.0..5.0 half-point grid.

    Returns the sample mean with a two-sided 95% Student-t half-width
    (sample std, n-1 degrees of freedom).
    """
    scores = [float(s) for s in scores]
    if len(scores) < 2:
        raise InsufficientDataError("need >= 2 ratings, got %d" % len(scores))
    for s in scores:
        if not (1.0 <= s <= 5.0) or abs(s * 2.0 - round(s * 2.0)) > 1e-9:
            raise InvalidInputError("rating %r is not on the 1.0..5.0 half-point grid" % s)
    arr = np.asarray(scores)
    n = arr.size
    sd = float(arr.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975) * sd / np.sqrt(n))
    return MosSummary(mean=float(arr.mean()), half_width_95=half, n=n)


# ---------------------------------------------------------------------------
# Corpus-level report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    utterances: list  # dicts with id, wer, cer, mcd, secs and pooled counts
    wer: float
    cer: float
    mcd_median: float
    secs_median: float
    n_utts: int

    def to_json(self):
        payload = {
            "wer": self.wer,
            "cer": self.cer,
            "mcd_median": self.mcd_median,
            "secs_median": self.secs_median,
            "mos": None,  # opinion scores are aggregated by `emoforge mos`
            "n_utts": self.n_utts,
            "utterances": [
                {k: u[k] for k in ("id", "wer", "cer", "mcd", "secs")} for u in self.utterances
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def utterance_metrics(utt_id, ref_wav, syn_wav, ref_text, hyp_text):
    """All per-utterance metrics plus the raw counts needed for pooling."""
    ref_norm, hyp_norm = normalize_text(ref_text), normalize_text(hyp_text)
    ref_words = ref_norm.split()
    if not ref_words:
        raise UndefinedMetricError("empty reference transcript for %r" % utt_id)
    word_edits = edit_distance(ref_words, hyp_norm.split())
    char_edits = edit_distance(ref_norm, hyp_norm)
    return {
        "id": utt_id,
        "wer": word_edits / len(ref_words),
        "cer": char_edits / len(ref_norm),
        "mcd": mcd(ref_wav, syn_wav),
        "secs": secs(ref_wav, syn_wav),
        "word_edits": word_edits,
        "word_count": len(ref_words),
        "char_edits": char_edits,
        "char_count": len(ref_norm),
    }


def aggregate_report(per_utt):
    """Fold per-utterance metric dicts into an EvalReport.

    WER/CER are pooled (total edits / total reference tokens); MCD and SECS
    are reported as medians.
    """
    if not per_utt:
        raise InsufficientDataError("no utterances to aggregate")
    return EvalReport(
        utterances=list(per_utt),
        wer=sum(u["word_edits"] for u in per_utt) / sum(u["word_count"] for u in per_utt),
        cer=sum(u["char_edits"] for u in per_utt) / sum(u["char_count"] for u in per_utt),
        mcd_median=float(np.median([u["mcd"] for u in per_utt])),
        secs_median=float(np.median([u["secs"] for u in per_utt])),
        n_utts=len(per_utt),
    )

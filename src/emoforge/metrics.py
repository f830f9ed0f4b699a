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

from .dsp import mel_cepstra, mel_spectrogram
from .errors import DataError


# ---------------------------------------------------------------------------
# Edit distance and text normalization
# ---------------------------------------------------------------------------

def edit_distance(ref, hyp):
    """Levenshtein distance between two token sequences (unit costs).

    Tokens must be hashable (they are dict keys). Myers' bit-vector algorithm
    (J. ACM 46(3), 1999) in Hyyrö's (2001) form: bit i of Python ints with no
    length cap holds the DP column's vertical delta D[i+1][j] - D[i][j] over
    ref, and each hyp token advances the whole column in a few int operations.
    """
    m = len(ref)
    if not m:
        return len(hyp)
    peq = {}
    for i, r in enumerate(ref):
        peq[r] = peq.get(r, 0) | 1 << i
    mask, top = (1 << m) - 1, 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for h in hyp:
        eq = peq.get(h, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = ph << 1 | 1  # row 0 of the DP rises by one per hyp token
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


_KEEP = re.compile(r"[^a-z0-9' ]+")
_SPACES = re.compile(r"\s+")


def normalize_text(s):
    """Lowercase, strip punctuation to [a-z0-9' ], collapse whitespace."""
    s = _KEEP.sub(" ", s.lower())
    return _SPACES.sub(" ", s).strip()


# ---------------------------------------------------------------------------
# DTW and MCD
# ---------------------------------------------------------------------------

def dtw_align(a, b):
    """Dynamic time warping between two feature sequences.

    Returns the monotone path of (i, j) index pairs from (0, 0) to
    (T_a-1, T_b-1) minimizing the summed per-pair Euclidean cost, with
    steps {(1,0), (0,1), (1,1)}. Its one caller, `mcd`, passes two finite
    float64 arrays of 13-column cepstra, 3 or more frames each.

    The accumulated cost acc[i, j] = cost[i, j] + min(acc[i-1, j-1],
    acc[i-1, j], acc[i, j-1]) overwrites the T_a x T_b costs that `cdist`
    returns. Row 0 and column 0 have one neighbour each, so they are running
    sums (`np.add.accumulate` adds in order). The interior fills one
    anti-diagonal (i + j = d) at a time: its cells depend only on the two
    diagonals before it, so each is one vectorized step over strided views
    of the flat buffer. Every cell is the same single add of an exact
    minimum as in a cell-by-cell loop, so acc and the path do not depend on
    the fill order. The backtrack reads acc through a memoryview, as Python
    floats, and prefers the diagonal, then up, then left on ties, which fixes
    the path shape (the cost is the same for every tied path); once it meets
    row 0 or column 0 it walks straight home to (0, 0).
    """
    from scipy.spatial.distance import cdist  # 0.4 s to import: only commands that align pay it
    ta, tb = a.shape[0], b.shape[0]
    flat = cdist(a, b).reshape(-1)  # cell (i, j) at i * tb + j
    np.add.accumulate(flat[:tb], out=flat[:tb])
    np.add.accumulate(flat[::tb], out=flat[::tb])
    # consecutive cells of an anti-diagonal lie tb - 1 apart in flat;
    # their diagonal, up and left neighbours lie tb + 1, tb and 1 before
    step = tb - 1
    d = np.arange(2, ta + tb - 1 if min(ta, tb) > 1 else 2)  # diagonals with i, j >= 1
    i0 = np.maximum(1, d - step)
    sizes = np.minimum(d - 1, ta - 1) - i0 + 1
    starts = d + i0 * step
    buf = np.empty(min(ta, tb) - 1)
    for start, stop, n in zip(starts.tolist(), (starts + (sizes - 1) * step + 1).tolist(),
                              sizes.tolist()):
        best = buf[:n]
        np.minimum(flat[start - tb - 1:stop - tb - 1:step],
                   flat[start - tb:stop - tb:step], out=best)
        np.minimum(best, flat[start - 1:stop - 1:step], out=best)
        flat[start:stop:step] += best
    cell = memoryview(flat)  # Python floats: cheaper to read one at a time
    path = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while i and j:
        # cells (i-1, j-1), (i-1, j), (i, j-1)
        k = (i - 1) * tb + j - 1
        diag, up, left = cell[k], cell[k + 1], cell[k + tb]
        if diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif up <= left:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.extend((0, c) for c in range(j - 1, -1, -1))  # home along row 0 ...
    path.extend((r, 0) for r in range(i - 1, -1, -1))  # ... or column 0
    path.reverse()
    return path


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
        raise DataError(
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

    def formatted(self):
        return "%.2f(±%.2f)" % (self.mean, self.half_width_95)


def mos_aggregate(scores):
    """Aggregate opinion scores on the 1.0..5.0 half-point grid.

    Returns the sample mean with a two-sided 95% Student-t half-width
    (sample std, n-1 degrees of freedom).
    """
    from scipy.special import stdtrit  # loads on first use: only `emoforge mos` needs it
    scores = [float(s) for s in scores]
    if len(scores) < 2:
        raise DataError("need >= 2 ratings, got %d" % len(scores))
    for s in scores:
        if not (1.0 <= s <= 5.0) or abs(s * 2.0 - round(s * 2.0)) > 1e-9:
            raise DataError("rating %r is not on the 1.0..5.0 half-point grid" % s)
    arr = np.asarray(scores)
    n = arr.size
    sd = float(arr.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975) * sd / np.sqrt(n))
    return MosSummary(mean=float(arr.mean()), half_width_95=half)


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

    def to_json(self):
        payload = {
            "wer": self.wer,
            "cer": self.cer,
            "mcd_median": self.mcd_median,
            "secs_median": self.secs_median,
            "mos": None,  # opinion scores are aggregated by `emoforge mos`
            "n_utts": len(self.utterances),
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
        raise DataError("empty reference transcript for %r" % utt_id)
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
    return EvalReport(
        utterances=list(per_utt),
        wer=sum(u["word_edits"] for u in per_utt) / sum(u["word_count"] for u in per_utt),
        cer=sum(u["char_edits"] for u in per_utt) / sum(u["char_count"] for u in per_utt),
        mcd_median=float(np.median([u["mcd"] for u in per_utt])),
        secs_median=float(np.median([u["secs"] for u in per_utt])),
    )

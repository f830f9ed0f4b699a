"""Tests for the evaluation metrics.

Edit distance and DTW are checked against brute-force oracles written
independently in this file (plain recursion over all alignments / paths),
and against cell-by-cell reference DPs (the DTW one also pins the
path-shape tie-break). MOS arithmetic is checked against hand-derived
t-interval values, and its t quantile against scipy.stats.
"""

import hashlib
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from emoforge.datagen import render_reference
from emoforge.dsp import Waveform
from emoforge.errors import DataError
from emoforge.metrics import (
    EvalReport,
    aggregate_report,
    dtw_align,
    edit_distance,
    mcd,
    mos_aggregate,
    normalize_text,
    secs,
    speaker_embedding,
    utterance_metrics,
)
from emoforge.numeric import rng_stream


# -- independent oracles -----------------------------------------------------

def brute_edit_distance(ref, hyp):
    ref, hyp = tuple(ref), tuple(hyp)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(
            go(i + 1, j + 1) + (ref[i] != hyp[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


def brute_dtw_cost(cost):
    # enumerate every monotone path, no memoization
    ta, tb = cost.shape

    def go(i, j):
        if (i, j) == (ta - 1, tb - 1):
            return cost[i, j]
        best = math.inf
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < ta and nj < tb:
                best = min(best, go(ni, nj))
        return cost[i, j] + best

    return go(0, 0)


def path_cost(path, a, b):
    return sum(np.linalg.norm(a[i] - b[j]) for i, j in path)


def reference_edit_counts(ref, hyp):
    # cell-by-cell DP over (distance, S, D, I); candidate order is the tie-break
    n, m = len(ref), len(hyp)
    dp = [[None] * (m + 1) for _ in range(n + 1)]
    dp[0][0] = (0, 0, 0, 0)
    for i in range(1, n + 1):
        d = dp[i - 1][0]
        dp[i][0] = (d[0] + 1, d[1], d[2] + 1, d[3])
    for j in range(1, m + 1):
        d = dp[0][j - 1]
        dp[0][j] = (d[0] + 1, d[1], d[2], d[3] + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag, up, left = dp[i - 1][j - 1], dp[i - 1][j], dp[i][j - 1]
            hit = ref[i - 1] == hyp[j - 1]
            cands = [
                (diag[0] + (0 if hit else 1), diag[1] + (0 if hit else 1), diag[2], diag[3]),
                (up[0] + 1, up[1], up[2] + 1, up[3]),
                (left[0] + 1, left[1], left[2], left[3] + 1),
            ]
            best = min(c[0] for c in cands)
            dp[i][j] = next(c for c in cands if c[0] == best)
    return dp[n][m][1:]


def reference_dtw_path(a, b):
    # cell-by-cell accumulated cost, then a diagonal-first backtrack
    cost = cdist(a, b)
    ta, tb = cost.shape
    acc = np.empty((ta, tb))
    acc[0, 0] = cost[0, 0]
    for i in range(1, ta):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
    for j in range(1, tb):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, ta):
        for j in range(1, tb):
            acc[i, j] = cost[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    path = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            moves = [(acc[i - 1, j - 1], i - 1, j - 1), (acc[i - 1, j], i - 1, j),
                     (acc[i, j - 1], i, j - 1)]
            best = min(m[0] for m in moves)
            _, i, j = next(m for m in moves if m[0] == best)
        path.append((i, j))
    path.reverse()
    return path


# -- edit distance -----------------------------------------------------------

def test_edit_distance_identical():
    assert edit_distance("abc", "abc") == 0
    # "ab" -> "ba": two substitutions, or a deletion and an insertion
    assert edit_distance("ab", "ba") == 2


def test_edit_distance_known_deletion():
    assert edit_distance("the cat sat".split(), "the cat".split()) == 1


def test_edit_distance_empty_boundaries():
    assert edit_distance([], list("abcd")) == 4
    assert edit_distance(list("abcd"), []) == 4
    assert edit_distance([], []) == 0


def test_edit_distance_matches_brute_force():
    rng = rng_stream(7, "edit")
    alphabet = list("abcd")
    for _ in range(150):
        ref = [alphabet[k] for k in rng.integers(0, 4, rng.integers(0, 9))]
        hyp = [alphabet[k] for k in rng.integers(0, 4, rng.integers(0, 9))]
        assert edit_distance(ref, hyp) == brute_edit_distance(ref, hyp)


def test_edit_distance_counts_match_reference_dp():
    # small alphabets make many tied alignments
    rng = rng_stream(7, "editcounts")
    cases = [([], []), ([], list("ab")), (list("ab"), []), (list("aab"), list("abb"))]
    for k in range(400):
        size = 3 if k % 2 else 2
        cases.append(([int(t) for t in rng.integers(0, size, rng.integers(0, 16))],
                      [int(t) for t in rng.integers(0, size, rng.integers(0, 16))]))
    cases.append((list("the quick brown fox jumps"), list("a quick brown fax jumped over")))
    for ref, hyp in cases:
        assert edit_distance(ref, hyp) == sum(reference_edit_counts(ref, hyp)), (ref, hyp)


def test_edit_distance_is_a_metric():
    rng = rng_stream(7, "editmetric")
    alphabet = list("abc")
    for _ in range(60):
        seqs = [
            [alphabet[k] for k in rng.integers(0, 3, rng.integers(0, 9))]
            for _ in range(3)
        ]
        a, b, c = seqs
        dab = edit_distance(a, b)
        assert dab == edit_distance(b, a)
        assert dab <= edit_distance(a, c) + edit_distance(c, b)
        assert edit_distance(a, a) == 0


def row_dp_edit_distance(ref, hyp):
    # the row-by-row DP edit_distance ran before the bit-vector algorithm
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


def test_edit_distance_long_inputs_match_row_dp():
    # 60-400 tokens cross several 64-bit words of the bit vectors
    rng = rng_stream(7, "editlong")
    cases = []
    for k in range(200):
        size = int(rng.integers(2, 31))
        ref, hyp = (rng.integers(0, size, rng.integers(60, 401)) for _ in range(2))
        if k % 2:
            cases.append(("".join(chr(97 + int(t)) for t in ref),
                          "".join(chr(97 + int(t)) for t in hyp)))
        else:
            cases.append((["w%d" % t for t in ref], ["w%d" % t for t in hyp]))
    ref = "".join(chr(97 + int(t)) for t in rng.integers(0, 27, 1100))
    cases.append((ref, ref[:400] + ref[420:900] + "xyz" + ref[900:]))
    for ref, hyp in cases:
        assert edit_distance(ref, hyp) == row_dp_edit_distance(ref, hyp), (ref, hyp)


# -- text normalization, WER, CER ---------------------------------------------

def test_normalize_text():
    assert normalize_text("Hello,  World!!") == "hello world"
    assert normalize_text("Don't    stop.") == "don't stop"
    assert normalize_text(normalize_text("A  B\tC")) == normalize_text("A  B\tC")
    assert normalize_text("one\ntwo,\nthree") == "one two three"
    assert normalize_text("CR\r\nLF\r") == "cr lf"


@lru_cache(maxsize=None)
def _rendered_pair():
    return render_reference("abc", 0, 0), render_reference("abc", 1, 1)


def _wer_cer(ref_text, hyp_text):
    """WER and CER as the eval report computes them; the audio is one fixed
    pair, since neither rate depends on it."""
    m = utterance_metrics("u", *_rendered_pair(), ref_text, hyp_text)
    return m["wer"], m["cer"]


def test_wer_known_values():
    assert _wer_cer("the cat sat", "the cat sat")[0] == 0.0
    assert abs(_wer_cer("the cat sat", "the cat")[0] - 1.0 / 3.0) < 1e-12


def test_wer_normalization_invariance():
    ref, hyp = "The CAT sat!", "the cat, sit"
    assert _wer_cer(normalize_text(ref), hyp) == _wer_cer(ref, hyp)


def test_wer_empty_reference_raises():
    with pytest.raises(DataError, match="empty reference transcript"):
        _wer_cer("!!!", "anything")
    with pytest.raises(DataError, match="empty reference transcript"):
        _wer_cer("", "x")


def test_cer_counts_internal_spaces():
    # "ab c" -> 4 reference characters, one substitution at the space
    assert abs(_wer_cer("ab c", "ab-c")[1] - 0.0) < 1e-12  # '-' normalizes to space
    assert abs(_wer_cer("abc", "abd")[1] - 1.0 / 3.0) < 1e-12


# -- DTW -----------------------------------------------------------------------

def test_dtw_identical_is_diagonal():
    rng = rng_stream(7, "dtwdiag")
    a = rng.standard_normal((5, 3))
    path = dtw_align(a, a)
    assert path == [(i, i) for i in range(5)]
    assert path_cost(path, a, a) == 0.0


def test_dtw_duplicated_frame():
    rng = rng_stream(7, "dtwdup")
    a = rng.standard_normal((4, 3))
    b = np.vstack([a[:3], a[2:]])  # frame 2 duplicated
    path = dtw_align(a, b)
    assert len(path) == 5
    assert path_cost(path, a, b) < 1e-12


def test_dtw_matches_exhaustive_search():
    rng = rng_stream(7, "dtwbrute")
    for _ in range(50):
        ta, tb = rng.integers(1, 7), rng.integers(1, 7)
        a = rng.standard_normal((ta, 2))
        b = rng.standard_normal((tb, 2))
        path = dtw_align(a, b)
        assert path[0] == (0, 0) and path[-1] == (ta - 1, tb - 1)
        steps = {(i2 - i1, j2 - j1) for (i1, j1), (i2, j2) in zip(path, path[1:])}
        assert steps <= {(1, 0), (0, 1), (1, 1)}
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        assert abs(path_cost(path, a, b) - brute_dtw_cost(cost)) < 1e-9


def test_dtw_path_matches_reference_dp():
    # integer-valued features tie often, which pins the diagonal-first path shape
    rng = rng_stream(7, "dtwpath")
    shapes = [(1, 1), (1, 9), (9, 1), (2, 17), (17, 2), (40, 40), (40, 33)]
    shapes += [tuple(int(t) for t in rng.integers(1, 41, 2)) for _ in range(60)]
    for k, (ta, tb) in enumerate(shapes):
        dim = 1 + k % 3
        if k % 3 == 2:
            a, b = rng.standard_normal((ta, dim)), rng.standard_normal((tb, dim))
        else:
            a = rng.integers(0, 3, (ta, dim)).astype(np.float64)
            b = rng.integers(0, 3, (tb, dim)).astype(np.float64)
        assert dtw_align(a, b) == reference_dtw_path(a, b), (ta, tb, dim)
    # a[0] matches b[0..2]: the backtrack meets row 0 at (0, 2) and walks home along it;
    # swapped, it meets column 0 at (2, 0)
    a = np.array([[0.0], [5.0], [5.0]])
    b = np.array([[0.0], [0.0], [0.0], [5.0]])
    assert dtw_align(a, b) == [(0, 0), (0, 1), (0, 2), (1, 3), (2, 3)] == reference_dtw_path(a, b)
    assert dtw_align(b, a) == [(0, 0), (1, 0), (2, 0), (3, 1), (3, 2)] == reference_dtw_path(b, a)


def test_dtw_skewed_shapes_match_reference_dp():
    # one-cell diagonals, and diagonals as long as the shorter side
    rng = rng_stream(7, "dtwskew")
    for ta, tb in [(1, 300), (300, 1), (2, 257), (257, 3), (3, 700)]:
        a = rng.integers(0, 3, (ta, 2)).astype(np.float64)
        b = rng.integers(0, 3, (tb, 2)).astype(np.float64)
        assert dtw_align(a, b) == reference_dtw_path(a, b), (ta, tb)


def test_dtw_diagonal_upper_bound():
    rng = rng_stream(7, "dtwbound")
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    path = dtw_align(a, b)
    diagonal = sum(np.linalg.norm(a[i] - b[i]) for i in range(6))
    assert path_cost(path, a, b) <= diagonal + 1e-12


# -- MCD -------------------------------------------------------------------------

def _noise_wave(name, n=8000):
    rng = rng_stream(7, name)
    return Waveform(samples=0.15 * rng.standard_normal(n))


def test_mcd_identical_is_zero():
    w = _noise_wave("mcdself")
    assert mcd(w, w) == 0.0


def test_mcd_gain_invariance():
    w = _noise_wave("mcdgain")
    for g in (0.25, 0.5, 2.0):
        scaled = Waveform(samples=g * w.samples)
        assert mcd(w, scaled) < 1e-6


def test_mcd_symmetric():
    a = _noise_wave("mcdsyma")
    b = _noise_wave("mcdsymb")
    assert abs(mcd(a, b) - mcd(b, a)) < 1e-12
    assert mcd(a, b) > 0.0


# (ref text, hyp text, (emotion, speaker) of the reference, of the synthesis)
_GOLDEN_PAIRS = (
    ("the quick brown fox jumps over the lazy dog.",
     "the quick brown fox jumps over a lazy dog.", (0, 0), (2, 1)),
    ("pack my box with five dozen jugs.", "pack my box with dozen jugs.", (1, 2), (3, 0)),
    ("how vexingly quick daft zebras jump.",
     "how vexingly quick daft zebras jump high.", (4, 3), (1, 3)),
)


def test_eval_report_bits_are_pinned():
    # recorded with the cell-by-cell DTW and tuple-DP Levenshtein kernels;
    # any change to the kernels' arithmetic or tie-breaks moves these bits.
    # Re-pinned when the mel analysis moved to float32 (MCD 0x1.366d145c58061p+7,
    # 0x1.38cf0e547d5f8p+8, 0x1.596d71785a2a6p+6 and report 917cb84d... before)
    rows = [utterance_metrics("pair_%d" % k, render_reference(ref, *r), render_reference(hyp, *h),
                              ref, hyp)
            for k, (ref, hyp, r, h) in enumerate(_GOLDEN_PAIRS)]
    assert [m["mcd"].hex() for m in rows] == [
        "0x1.366d71b047637p+7", "0x1.38cf0ff2c2b76p+8", "0x1.596d7562ef5a5p+6"]
    blob = aggregate_report(rows).to_json().encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "204fa7f1d2840cd3562a283bb6589b5c445f2a8f20acc238445c3822e22de8bb"


# -- speaker embedding and SECS ----------------------------------------------------

def test_speaker_embedding_unit_norm_and_deterministic():
    w = _noise_wave("spk")
    e1 = speaker_embedding(w)
    e2 = speaker_embedding(w)
    assert e1.shape == (80,)
    assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
    assert np.array_equal(e1, e2)


def test_speaker_embedding_too_short():
    w = Waveform(samples=0.1 * np.ones(300))
    with pytest.raises(DataError, match="need >= 5 mel frames"):
        speaker_embedding(w)


def test_secs_self_and_sign_invariance():
    w = _noise_wave("secs")
    assert abs(secs(w, w) - 1.0) < 1e-12
    flipped = Waveform(samples=-w.samples)
    assert abs(secs(w, flipped) - 1.0) < 1e-12


def test_secs_in_range():
    a = _noise_wave("secsa")
    b = _noise_wave("secsb")
    assert -1.0 <= secs(a, b) <= 1.0


# -- MOS ---------------------------------------------------------------------------

def test_mos_two_scores_hand_derived():
    # mean 4.5; s = sqrt(0.5); t(0.975, df=1) = 12.706; half = 12.706*s/sqrt(2)
    summary = mos_aggregate([4.0, 5.0])
    assert abs(summary.mean - 4.5) < 1e-12
    assert abs(summary.half_width_95 - 12.706 * math.sqrt(0.5) / math.sqrt(2)) < 5e-3
    assert summary.formatted() == "4.50(±6.35)"


def test_mos_half_width_bits_match_scipy_stats_t_ppf():
    # the package takes the quantile from scipy.special: scipy.stats costs every
    # command about 1 s to import, so it serves here as the oracle only
    from scipy import stats

    for n in range(2, 5000):
        scores = [4.0, 5.0] * (n // 2) + [4.5] * (n % 2)
        sd = float(np.asarray(scores).std(ddof=1))
        half = float(stats.t.ppf(0.975, n - 1) * sd / np.sqrt(n))
        assert mos_aggregate(scores).half_width_95 == half, n


def test_mos_constant_scores():
    summary = mos_aggregate([4.0] * 10)
    assert summary.formatted() == "4.00(±0.00)"
    assert summary.half_width_95 == 0.0


def test_mos_format_pattern():
    s = mos_aggregate([3.0, 3.5, 4.0, 4.5])
    assert re.fullmatch(r"\d+\.\d\d\(±\d+\.\d\d\)", s.formatted())


def test_mos_rejects_bad_input():
    with pytest.raises(DataError, match="need >= 2 ratings"):
        mos_aggregate([4.0])
    with pytest.raises(DataError, match="half-point grid"):
        mos_aggregate([4.0, 4.2])
    with pytest.raises(DataError, match="half-point grid"):
        mos_aggregate([4.0, 5.5])


def test_mos_interval_coverage_smoke():
    # t-interval should cover the population mean about 95% of the time
    rng = rng_stream(7, "mos-cov")

    def draw(n):
        return np.clip(np.round(rng.normal(3.5, 0.6, n) * 2.0) / 2.0, 1.0, 5.0)

    pop_mean = draw(200000).mean()
    hits = 0
    for _ in range(1000):
        s = mos_aggregate(draw(25))
        hits += abs(s.mean - pop_mean) <= s.half_width_95
    assert 930 <= hits <= 970


# -- report aggregation --------------------------------------------------------------

def test_report_pools_and_serializes(tmp_path):
    ref = _noise_wave("repref")
    syn = _noise_wave("repsyn")
    rows = [
        utterance_metrics("u1", ref, syn, "the cat sat", "the cat"),
        utterance_metrics("u2", ref, ref, "a big dog", "a big dog"),
    ]
    report = aggregate_report(rows)
    # pooled WER: (1 + 0) edits over (3 + 3) reference words
    assert abs(report.wer - 1.0 / 6.0) < 1e-12
    assert len(report.utterances) == 2
    assert report.mcd_median == pytest.approx(np.median([rows[0]["mcd"], rows[1]["mcd"]]))

    blob = report.to_json()
    import json
    payload = json.loads(blob)
    for key in ("wer", "cer", "mcd_median", "secs_median", "mos", "n_utts"):
        assert key in payload
    assert payload["mos"] is None  # opinion scores go through `emoforge mos`
    assert payload["n_utts"] == len(payload["utterances"]) == 2

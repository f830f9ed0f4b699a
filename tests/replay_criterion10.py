"""Replay acceptance criterion 10 for each synthesizer variant, pinned and perturbed.

Criterion 10 trains fastspeech for 250 steps on the default corpus and counts
how often synthesis sits closer (by MCD) to the reference of the emotion it
was asked for than to another emotion's. This script rebuilds the criterion's
corpus, split, alignment model and training, then scores every variant:

  * the pinned run, exactly as the criterion trains it;
  * K perturbed runs, each adding 1e-9 * N(0, 1) to the log-mel training
    targets from its own `rng_stream`, to show how far the count moves on
    rounding-sized noise.

For each run it prints the wins, the final probe loss, the emotion and speaker
effects (`mel_spread`: how far text 0's synthesized log-mel moves across the
five emotions at speaker 0, and across the speakers at emotion 0) and the 10
per-pair margins MCD(other) - MCD(match) in dB (positive is a win). The perturbation is
patched in from here; nothing in `emoforge` changes. pytest does not collect
this file (its name does not start with `test_`). Run it from the repo root:

    PYTHONPATH=src python tests/replay_criterion10.py [--replays K] [--variants vits,fastspeech]

One set of replays (3 variants, K = 8) takes about 1.5 minutes on 2 cores.
"""

import argparse
import contextlib
import sys
import tempfile
import time
from unittest import mock

import numpy as np

from emoforge import tts
from emoforge.datagen import CorpusConfig, _TEXT_POOL, gen_corpus, render_reference
from emoforge.epalign import AlignTrainConfig, anchored_prompts, train_epalign
from emoforge.metrics import mcd
from emoforge.numeric import rng_stream

NOISE_STD = 1e-9


def _prompts(corpus):
    """The alignment prompts criterion 10 trains against (its split and config)."""
    perm = rng_stream(42, "acceptance:split").permutation(len(corpus))
    train = [corpus[i] for i in perm[int(0.2 * len(corpus)):]]
    params, _ = train_epalign(train, AlignTrainConfig())
    return anchored_prompts(params)


def _noisy_targets(replay):
    """`tts._utterance_batch` with 1e-9 * N(0, 1) added to each target mel."""
    rng = rng_stream(replay, "replay:criterion10:targets")
    batch_of = tts._utterance_batch

    def batch(utt, prompts, params):
        b = batch_of(utt, prompts, params)
        b["target"] = b["target"] + NOISE_STD * rng.standard_normal(b["target"].shape)
        return b

    return mock.patch.object(tts, "_utterance_batch", batch)


def _margins(params, prompts):
    """Criterion 10's ten pairs, as MCD(other) - MCD(match) in dB."""
    out = []
    for i in range(10):
        text, emo, other, spk = _TEXT_POOL[i % 8], i % 5, (i + 1) % 5, i % 4
        wav, _ = tts.synthesize(text, prompts[emo], spk, params)
        out.append(mcd(render_reference(text, other, spk), wav)
                   - mcd(render_reference(text, emo, spk), wav))
    return out


def mel_spread(params, prompts, speakers):
    """Max |delta log-mel| over (prompt, speaker) pairs for text 0, on the
    frames every synthesis has (durations may differ with the condition)."""
    mels = [tts.synthesize(_TEXT_POOL[0], p, spk, params)[1].frames
            for p in prompts for spk in speakers]
    n = min(len(m) for m in mels)
    return float(np.ptp([m[:n] for m in mels], axis=0).max())


def _run(corpus, prompts, variant, replay):
    with _noisy_targets(replay) if replay else contextlib.nullcontext():
        params, curve = tts.train_tts(corpus, prompts, variant,
                                      tts.TtsConfig(steps=250, lr=0.05, batch=8, seed=42))
    margins = _margins(params, prompts)
    effects = (mel_spread(params, prompts, [0]),
               mel_spread(params, prompts[:1], range(params.dims["n_speakers"])))
    return sum(m > 0 for m in margins), curve[-1], effects, margins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replays", type=int, default=8, help="perturbed runs per variant")
    ap.add_argument("--variants", default=",".join(tts.VARIANTS),
                    help="comma-separated variants to replay")
    args = ap.parse_args(argv)
    variants = [v for v in args.variants.split(",") if v]

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        corpus = gen_corpus(CorpusConfig(), out)
        prompts = _prompts(corpus)
        summary = {}
        for variant in variants:
            for replay in range(args.replays + 1):
                wins, loss, (emo, spk), margins = _run(corpus, prompts, variant, replay)
                summary.setdefault(variant, []).append(wins)
                label = "pinned" if replay == 0 else "replay %d" % replay
                print("%-10s %-9s wins %2d/10  loss %6.2f  effect emo %.3g spk %.3g  margins %s"
                      % (variant, label, wins, loss, emo, spk,
                         " ".join("%+6.1f" % m for m in margins)), flush=True)
    for variant, wins in summary.items():
        print("%-10s pinned %d/10; perturbed %s" % (variant, wins[0], wins[1:] or "-"))
    print("%.0f s" % (time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for the full workflow.

Exit codes: 0 success, 1 usage error (bad flags or option values: a
ConfigError), 2 data error (malformed or missing input: a DataError or
OSError; or a float overflow, 0-division or NaN).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import datagen, epalign, metrics, tts
from .checkpoint import field, read
from .dsp import SAMPLE_RATE, wav_read, wav_write
from .errors import ConfigError, DataError, FormatError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _refuse_out_over_input(args, wavs=()):
    """An --out naming a file the command reads would destroy it: a DataError before any write."""
    reads = [getattr(args, k, None) for k in ("ckpt", "align_ckpt", "ref_features", "pairs")]
    reads += [os.path.join(args.data, "manifest.jsonl")] if hasattr(args, "data") else []
    for path in filter(None, [*reads, *wavs]):
        if os.path.exists(args.out) and os.path.exists(path) and os.path.samefile(path, args.out):
            raise DataError("--out %s names the input %s" % (args.out, path))


def _load_dataset(args):
    """The manifest under --data, once --out is known to name none of the WAVs it lists."""
    manifest = os.path.join(args.data, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise FormatError("no manifest.jsonl under %s" % args.data)
    dataset = datagen.load_manifest(manifest)
    _refuse_out_over_input(args, [u.wav_path for u in dataset])
    return dataset


def _config(cls, args):
    """cls built from the flags given; a flag left out takes the field's default."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names})


@functools.cache  # one parser per process, however often main runs in it
def _build_parser():
    p = _Parser(prog="emoforge", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    # each flag of these three is a field of the stage's config, which owns its default
    no_default = dict(argument_default=argparse.SUPPRESS)
    names = lambda raw: tuple(m.strip() for m in raw.split(",") if m.strip())

    g = sub.add_parser("gen-data", help="render a synthetic multimodal corpus", **no_default)
    g.add_argument("--out", required=True, metavar="DIR")
    g.add_argument("--classes", type=int, dest="n_classes")
    g.add_argument("--speakers", type=int, dest="n_speakers")
    g.add_argument("--per-class", type=int, dest="samples_per_class")
    g.add_argument("--seed", type=int)

    t = sub.add_parser("train-align", help="train the emotion-prompt alignment model",
                       **no_default)
    t.add_argument("--data", required=True, metavar="DIR")
    t.add_argument("--out", required=True, metavar="CKPT")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)

    e = sub.add_parser("eval-align", help="classification report for an alignment checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True, metavar="DIR")
    e.add_argument("--modalities", type=names)
    e.add_argument("--out", required=True, metavar="JSON")

    tt = sub.add_parser("train-tts", help="train the toy synthesizer", **no_default)
    tt.add_argument("--data", required=True, metavar="DIR")
    tt.add_argument("--variant", required=True, choices=tts.VARIANTS)
    tt.add_argument("--align-ckpt", required=True)
    tt.add_argument("--out", required=True, metavar="CKPT")
    tt.add_argument("--steps", type=int)
    tt.add_argument("--batch", type=int)
    tt.add_argument("--lr", type=float)
    tt.add_argument("--seed", type=int)

    s = sub.add_parser("synth", help="synthesize a waveform from text")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--align-ckpt", required=True)
    s.add_argument("--text", required=True)
    emo = s.add_mutually_exclusive_group(required=True)
    emo.add_argument("--emotion", metavar="NAME")
    emo.add_argument("--ref-features", metavar="FILE")
    s.add_argument("--speaker", type=int, default=0)
    s.add_argument("--out", required=True, metavar="WAV")

    v = sub.add_parser("eval", help="objective metrics over a pairing manifest")
    v.add_argument("--ref-dir", required=True)
    v.add_argument("--syn-dir", required=True)
    v.add_argument("--pairs", required=True, metavar="FILE")
    v.add_argument("--out", required=True, metavar="JSON")

    m = sub.add_parser("mos", help="aggregate opinion scores (one rating per line)")
    m.add_argument("--scores", required=True, metavar="FILE")
    return p


# -- subcommand bodies ---------------------------------------------------------

def _cmd_gen_data(args):
    utts = datagen.gen_corpus(_config(datagen.CorpusConfig, args), args.out)
    print("wrote %d utterances to %s" % (len(utts), args.out))
    return 0


def _cmd_train_align(args):
    dataset = _load_dataset(args)
    params, curve = epalign.train_epalign(dataset, _config(epalign.AlignTrainConfig, args))
    epalign.save_epalign(params, args.out)
    print("trained %d epochs, loss %.4f -> %.4f, checkpoint %s"
          % (len(curve), curve[0], curve[-1], args.out))
    return 0


def _cmd_eval_align(args):
    params = epalign.load_epalign(args.ckpt)
    dataset = _load_dataset(args)
    report = epalign.eval_alignment(params, dataset, args.modalities)
    print("macro F1: %.4f  accuracy: %.4f" % (report["macro_f1"], report["accuracy"]))
    print("confusion (rows = true class):")
    for row in report["confusion"]:
        print("  " + " ".join("%5d" % n for n in row))
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print("report written to %s" % args.out)
    return 0


def _cmd_train_tts(args):
    dataset = _load_dataset(args)
    align = epalign.load_epalign(args.align_ckpt)
    prompts = epalign.anchored_prompts(align)
    config = _config(tts.TtsConfig, args)
    params, curve = tts.train_tts(dataset, prompts, args.variant, config)
    tts.save_tts(params, args.out)
    print("trained %s for %d steps, loss %.2f -> %.2f, checkpoint %s"
          % (args.variant, config.steps, curve[0], curve[-1], args.out))
    return 0


def _emotion_class(args, align):
    """The class `--emotion` names, or the one alignment infers from `--ref-features`."""
    if args.emotion is not None:
        class_id = datagen.emotion_id(args.emotion)
        if class_id >= align.n_classes:
            raise DataError("emotion %r is class %d but the checkpoint has %d classes"
                            % (args.emotion, class_id, align.n_classes))
        return class_id
    raw, where = read(args.ref_features), "feature file %s" % args.ref_features
    if type(raw) is not dict:
        raise FormatError("%s is not a JSON object of modality -> vector" % where)
    features = {k: np.asarray(field(raw, k, "nums", where), np.float64) for k in raw}
    return epalign.align_infer(features, align)


def _cmd_synth(args):
    params = tts.load_tts(args.ckpt)
    align = epalign.load_epalign(args.align_ckpt)
    class_id = _emotion_class(args, align)
    u_emo = epalign.anchored_prompts(align)[class_id]
    wav, _ = tts.synthesize(args.text, u_emo, args.speaker, params)
    wav_write(args.out, wav)
    print("wrote %s (%d samples, %.2f s)"
          % (args.out, len(wav.samples), len(wav.samples) / SAMPLE_RATE))
    return 0


def _read_pairs(path):
    keys = ("id", "ref", "syn", "ref_text", "hyp_text")
    pairs = read(path, lambda row, where: {k: field(row, k, "str", where) for k in keys})
    if not pairs:
        raise FormatError("empty pairs file %s" % path)
    return pairs


def _cmd_eval(args):
    pairs = _read_pairs(args.pairs)
    wavs = [(os.path.join(args.ref_dir, p["ref"]), os.path.join(args.syn_dir, p["syn"]))
            for p in pairs]
    _refuse_out_over_input(args, [path for pair in wavs for path in pair])  # before any read
    per_utt = [metrics.utterance_metrics(p["id"], wav_read(ref), wav_read(syn),
                                         p["ref_text"], p["hyp_text"])
               for p, (ref, syn) in zip(pairs, wavs)]
    report = metrics.aggregate_report(per_utt)
    with open(args.out, "w") as f:
        f.write(report.to_json())
    print("n_utts %d  WER %.4f  CER %.4f  MCD %.3f  SECS %.4f"
          % (len(report.utterances), report.wer, report.cer, report.mcd_median, report.secs_median))
    print("report written to %s" % args.out)
    return 0


def _cmd_mos(args):
    scores = read(args.scores, lambda score, where: score, parse=float)
    print(metrics.mos_aggregate(scores).formatted())
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-align": _cmd_train_align,
    "eval-align": _cmd_eval_align,
    "train-tts": _cmd_train_tts,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "mos": _cmd_mos,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow passes
            _refuse_out_over_input(args)
            return _COMMANDS[args.cmd](args)
    except ConfigError as e:
        code, msg = 1, e
    except (DataError, OSError) as e:
        code, msg = 2, e
    except FloatingPointError as e:
        code, msg = 2, "%s stopped on a floating-point error: %s" % (args.cmd, e)
    sys.stderr.write("error: %s\n" % msg)
    return code

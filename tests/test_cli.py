"""End-to-end tests for the command-line interface."""

import base64
import dataclasses
import filecmp
import hashlib
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from emoforge import cli, datagen, epalign, errors, metrics, tts
from emoforge.cli import _build_parser, main
from emoforge.datagen import CorpusConfig, render_reference
from emoforge.dsp import HOP, Waveform, wav_read, wav_write
from emoforge.epalign import EMBED, HIDDEN, AlignTrainConfig, load_epalign
from emoforge.errors import DataError
from emoforge.autodiff import ParamLayout
from emoforge.tts import CHAR_DIM, VARIANTS, TtsConfig, load_tts, save_tts, tts_block_shapes
from theta_codec import decode_checkpoint, encode_checkpoint
from wav_header import set_sample_rate


def _gen(out, seed=None, classes=3, speakers=2, per_class=6):
    argv = ["gen-data", "--out", str(out), "--classes", str(classes),
            "--speakers", str(speakers), "--per-class", str(per_class)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny corpus + alignment checkpoint shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert _gen(data, seed=9) == 0
    ckpt = root / "align.json"
    assert main(["train-align", "--data", str(data), "--out", str(ckpt),
                 "--epochs", "6", "--batch", "3", "--seed", "9"]) == 0
    return {"root": root, "data": data, "align": ckpt}


def test_gen_data_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert _gen(out, seed=3) == 0
    assert (out / "manifest.jsonl").exists()
    wavs = list((out / "wav").glob("*.wav"))
    assert len(wavs) == 3 * 6
    assert "wrote 18 utterances" in capsys.readouterr().out


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _gen(a, seed=5) == 0
    assert _gen(b, seed=5) == 0
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    names = sorted(os.listdir(a / "wav"))
    match, mismatch, errors = filecmp.cmpfiles(a / "wav", b / "wav", names, shallow=False)
    assert mismatch == [] and errors == []


class _Called(Exception):
    pass


def _config_passed(monkeypatch, module, name, argv, at):
    """The argument `at` that `main(argv)` passes to module.name, which
    stops the command there."""
    def spy(*args):
        raise _Called(args[at])
    monkeypatch.setattr(module, name, spy)
    with pytest.raises(_Called) as called:
        main(argv)
    return called.value.args[0]


# command -> (the stage main calls, the config's position, its class,
#             flag -> (its field, a value, that value parsed))
CONFIG_FLAGS = {
    "gen-data": (datagen, "gen_corpus", 0, CorpusConfig, {
        "--classes": ("n_classes", "3", 3), "--speakers": ("n_speakers", "2", 2),
        "--per-class": ("samples_per_class", "3", 3), "--seed": ("seed", "7", 7)}),
    "train-align": (epalign, "train_epalign", 1, AlignTrainConfig, {
        "--epochs": ("epochs", "3", 3), "--batch": ("batch", "4", 4),
        "--lr": ("lr", "0.01", 0.01), "--seed": ("seed", "7", 7)}),
    "train-tts": (tts, "train_tts", 3, TtsConfig, {
        "--steps": ("steps", "3", 3), "--batch": ("batch", "4", 4),
        "--lr": ("lr", "0.01", 0.01), "--seed": ("seed", "7", 7)}),
}


@pytest.mark.parametrize("cmd", sorted(CONFIG_FLAGS))
def test_each_flag_sets_only_its_config_field(cmd, workdir, tmp_path, monkeypatch):
    module, name, at, cls, flags = CONFIG_FLAGS[cmd]
    argv = {"gen-data": ["gen-data"],
            "train-align": ["train-align", "--data", str(workdir["data"])],
            "train-tts": ["train-tts", "--data", str(workdir["data"]), "--variant", "vits",
                          "--align-ckpt", str(workdir["align"])]}[cmd]
    argv += ["--out", str(tmp_path / "x")]
    # the required flags alone: every field keeps the dataclass default
    assert _config_passed(monkeypatch, module, name, argv, at) == cls()
    for flag, (field, value, parsed) in flags.items():
        assert getattr(cls(), field) != parsed, flag
        config = _config_passed(monkeypatch, module, name, argv + [flag, value], at)
        assert config == dataclasses.replace(cls(), **{field: parsed}), flag


def test_usage_errors(workdir, tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    # bad option values: a config rejects each one before any file is written
    out = str(tmp_path / "y")
    align = ["train-align", "--data", str(workdir["data"]), "--out", out]
    train_tts = ["train-tts", "--data", str(workdir["data"]), "--variant", "vits",
                 "--align-ckpt", str(workdir["align"]), "--out", out]
    for argv in (["gen-data", "--out", out, "--classes", "1"],
                 ["gen-data", "--out", out, "--classes", "6"],
                 ["gen-data", "--out", out, "--speakers", "0"],
                 ["gen-data", "--out", out, "--per-class", "0"],
                 align + ["--lr", "nan"], align + ["--epochs", "0"], align + ["--batch", "0"],
                 ["eval-align", "--ckpt", str(workdir["align"]), "--data", str(workdir["data"]),
                  "--modalities", "tex,tex", "--out", out],
                 ["eval-align", "--ckpt", str(workdir["align"]), "--data", str(workdir["data"])],
                 train_tts + ["--lr", "nan"], train_tts + ["--lr", "-1"],
                 train_tts + ["--batch", "0"], train_tts + ["--batch", "100000000"],
                 # argparse's choices own the variant names; nothing past the parser checks them
                 [a if a != "vits" else "wavenet" for a in train_tts]):
        assert main(argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
        assert not os.path.exists(out), argv
    # the workdir corpus holds 18 utterances
    for argv, reason in ((train_tts + ["--steps", "0"], "error: steps must be >= 1"),
                         (align + ["--batch", "1000"],
                          "error: batch size 1000 out of range for 18 samples")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err, err
        assert not os.path.exists(out), argv


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cli._build_parser.cache_clear()
    assert main(["mos", "--frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("usage: emoforge")
    first = len(built)
    assert first > 0
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out
    assert len(built) == first


# an --out that names an input: (the input, argv); each once exited 0 and destroyed it
OUT_OVER_INPUT = {
    # a spelling of the same path that only os.path.samefile sees through
    "synth-over-its-checkpoint": lambda w: (w["tts"], [
        "synth", "--ckpt", w["tts"], "--align-ckpt", w["align"], "--text", "hi.",
        "--emotion", "sad", "--out", w["data"] / ".." / "tts.json"]),
    "train-tts-over-its-alignment": lambda w: (w["align"], [
        "train-tts", "--data", w["data"], "--variant", "vits", "--align-ckpt", w["align"],
        "--out", w["align"], "--steps", "1", "--batch", "1"]),
    "train-align-over-its-manifest": lambda w: (w["data"] / "manifest.jsonl", [
        "train-align", "--data", w["data"], "--out", w["data"] / "manifest.jsonl",
        "--epochs", "1", "--batch", "3"]),
    # a WAV the manifest lists, which no flag names
    "train-tts-over-a-listed-wav": lambda w: (w["data"] / "wav" / "utt_00000.wav", [
        "train-tts", "--data", w["data"], "--variant", "vits", "--align-ckpt", w["align"],
        "--out", w["data"] / "wav" / "utt_00000.wav", "--steps", "1", "--batch", "1"]),
    "train-align-over-a-listed-wav": lambda w: (w["data"] / "wav" / "utt_00001.wav", [
        "train-align", "--data", w["data"], "--out", w["data"] / "wav" / "utt_00001.wav",
        "--epochs", "1", "--batch", "3"]),
    "eval-align-over-a-listed-wav": lambda w: (w["data"] / "wav" / "utt_00002.wav", [
        "eval-align", "--ckpt", w["align"], "--data", w["data"],
        "--out", w["data"] / "wav" / "utt_00002.wav"]),
    # a WAV the pairs file lists, on either side of its pair
    "eval-over-a-reference-wav": lambda w: _eval_one_pair(w, "utt_00003.wav"),
    "eval-over-a-synthesis-wav": lambda w: _eval_one_pair(w, "utt_00004.wav"),
}


def _eval_one_pair(w, victim):
    """eval of the pair utt_00003 (reference) / utt_00004 (synthesis), --out naming `victim`."""
    wav = w["data"] / "wav"
    pair = dict(id="u", ref="utt_00003.wav", syn="utt_00004.wav", ref_text="a", hyp_text="a")
    pairs = w["data"].parent / "pairs.jsonl"
    pairs.write_text(json.dumps(pair) + "\n")
    return wav / victim, ["eval", "--ref-dir", wav, "--syn-dir", wav, "--pairs", pairs,
                          "--out", wav / victim]


@pytest.mark.parametrize("case", sorted(OUT_OVER_INPUT))
def test_out_naming_an_input_exits_2_and_keeps_it(case, workdir, tts_ckpt, tmp_path, capsys):
    w = {"data": tmp_path / "data", "align": tmp_path / "align.json", "tts": tmp_path / "tts.json"}
    shutil.copytree(workdir["data"], w["data"])
    shutil.copy(workdir["align"], w["align"])
    shutil.copy(tts_ckpt, w["tts"])
    victim, argv = OUT_OVER_INPUT[case](w)
    before = victim.read_bytes()
    assert main([str(a) for a in argv]) == 2
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    out = argv[argv.index("--out") + 1]
    assert err == ["error: --out %s names the input %s" % (out, victim)], err
    assert victim.read_bytes() == before


def test_gen_data_refuses_a_speaker_without_a_voice(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["gen-data", "--out", str(out), "--speakers", "5"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: need 1 to 4 speakers, got 5"], err
    assert not out.exists()


def test_data_errors(tmp_path, capsys):
    assert main(["train-align", "--data", str(tmp_path), "--out", str(tmp_path / "c")]) == 2
    assert "manifest" in capsys.readouterr().err
    bad = tmp_path / "manifest.jsonl"
    bad.write_text("this is not json\n")
    assert main(["train-align", "--data", str(tmp_path), "--out", str(tmp_path / "c")]) == 2


def test_every_input_error_is_a_data_error():
    # cli.main turns a DataError into exit 2, so a new error type cannot end in a traceback
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    not_data = {c.__name__ for c in classes if not issubclass(c, errors.DataError)}
    assert not_data == {"ConfigError"}


def test_train_and_eval_align(workdir, tmp_path, capsys):
    report_path = tmp_path / "align_report.json"
    assert main(["eval-align", "--ckpt", str(workdir["align"]),
                 "--data", str(workdir["data"]), "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "macro F1" in out and "confusion" in out
    report = json.loads(report_path.read_text())
    assert set(report) >= {"accuracy", "macro_f1", "confusion"}
    assert len(report["confusion"]) == 3
    # a modality subset of the full model is the single-modality ablation
    for mu in ("vis", "tex"):
        assert main(["eval-align", "--ckpt", str(workdir["align"]), "--data", str(workdir["data"]),
                     "--modalities", mu, "--out", str(tmp_path / "r2.json")]) == 0, mu


def test_train_align_deterministic(workdir, tmp_path):
    again = tmp_path / "align2.json"
    assert main(["train-align", "--data", str(workdir["data"]), "--out", str(again),
                 "--epochs", "6", "--batch", "3", "--seed", "9"]) == 0
    assert again.read_bytes() == workdir["align"].read_bytes()


@pytest.fixture(scope="module")
def tts_ckpt(workdir):
    ckpt = workdir["root"] / "tts.json"
    assert main(["train-tts", "--data", str(workdir["data"]), "--variant", "fastspeech",
                 "--align-ckpt", str(workdir["align"]), "--out", str(ckpt),
                 "--steps", "8", "--batch", "2", "--seed", "9"]) == 0
    return ckpt


def test_synth_by_name_and_features(workdir, tts_ckpt, tmp_path, capsys):
    wav_path = tmp_path / "happy.wav"
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "a calm cat.", "--emotion", "happy",
                 "--speaker", "1", "--out", str(wav_path)]) == 0
    w = wav_read(wav_path)
    assert len(w.samples) > 1000
    # reference-feature path routes through alignment inference
    manifest = [json.loads(l) for l in
                (workdir["data"] / "manifest.jsonl").read_text().splitlines()]
    feats = tmp_path / "feats.json"
    feats.write_text(json.dumps({"vis": manifest[0]["feat_vis"],
                                 "tex": manifest[0]["feat_text"]}))
    wav2 = tmp_path / "ref.wav"
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "a calm cat.", "--ref-features", str(feats),
                 "--out", str(wav2)]) == 0
    assert len(wav_read(wav2).samples) > 1000
    # both sources take the same row of the prompt table for the same class
    c = epalign.align_infer({"vis": np.array(manifest[0]["feat_vis"]),
                             "tex": np.array(manifest[0]["feat_text"])},
                            load_epalign(workdir["align"]))
    by_name = tmp_path / "by_name.wav"
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "a calm cat.", "--emotion", datagen.EMOTIONS[c],
                 "--out", str(by_name)]) == 0
    assert by_name.read_bytes() == wav2.read_bytes()

    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "hi.", "--emotion", "joyous", "--out", str(tmp_path / "x.wav")]) == 2
    # a known emotion past the checkpoint's 3 prompt classes
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "hi.", "--emotion", "angry", "--out", str(tmp_path / "x.wav")]) == 2
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "hi.", "--emotion", "happy", "--ref-features", str(feats),
                 "--out", str(tmp_path / "x.wav")]) == 1  # mutually exclusive


def test_synth_deterministic(workdir, tts_ckpt, tmp_path):
    outs = []
    for name in ("s1.wav", "s2.wav"):
        path = tmp_path / name
        assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                     "--text", "pack my box.", "--emotion", "sad", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def _synth_exit(tts_path, align_path, out):
    return main(["synth", "--ckpt", str(tts_path), "--align-ckpt", str(align_path),
                 "--text", "pack my box.", "--emotion", "sad", "--out", str(out)])


def _edited(src, dst, edit):
    payload = decode_checkpoint(src.read_bytes())
    edit(payload)
    dst.write_bytes(encode_checkpoint(payload))
    return dst


def test_synth_rejects_tts_checkpoint_missing_fields(workdir, tts_ckpt, tmp_path, capsys):
    edits = [lambda p, k=k: p.pop(k) for k in ("dims", "seed")]
    edits += [lambda p, k=k: p["dims"].pop(k) for k in ("embed", "n_speakers")]
    for edit in edits:
        bad = _edited(tts_ckpt, tmp_path / "tts.json", edit)
        assert _synth_exit(bad, workdir["align"], tmp_path / "x.wav") == 2
        assert "missing field" in capsys.readouterr().err
    # the header line alone: no θ bytes after it
    bad = _edited(tts_ckpt, tmp_path / "tts.json", lambda p: p.pop("theta"))
    assert _synth_exit(bad, workdir["align"], tmp_path / "x.wav") == 2
    assert "has 0 parameters, layout wants 10201" in capsys.readouterr().err


def test_synth_rejects_wrongly_typed_checkpoint_fields(workdir, tts_ckpt, tmp_path, capsys):
    bad_tts = _edited(tts_ckpt, tmp_path / "tts.json", lambda p: p["dims"].update(embed="8"))
    bad_align = _edited(workdir["align"], tmp_path / "align.json",
                        lambda p: p["dims"].update(d_tex="64"))
    for tts_path, align_path in ((bad_tts, workdir["align"]), (tts_ckpt, bad_align)):
        assert _synth_exit(tts_path, align_path, tmp_path / "x.wav") == 2
        assert "malformed field" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_synth_short_texts(workdir, tts_ckpt, tmp_path):
    # zeroed duration weights predict one frame per character
    params = load_tts(tts_ckpt)
    for name in ("dur_w", "dur_b"):
        a, b = params.layout.slices[name]
        params.theta[a:b] = 0.0
    ckpt = tmp_path / "tts.json"
    save_tts(params, ckpt)
    for text in ("a", "ab", "abc", "abcd"):
        out = tmp_path / (text + ".wav")
        assert main(["synth", "--ckpt", str(ckpt), "--align-ckpt", str(workdir["align"]),
                     "--text", text, "--emotion", "sad", "--out", str(out)]) == 0
        assert len(wav_read(out).samples) == 384


def test_synth_rejects_nonfinite_checkpoints(workdir, tts_ckpt, tmp_path, capsys):
    def poison(p):
        p["theta"][0] = float("nan")

    bad_tts = _edited(tts_ckpt, tmp_path / "tts.json", poison)
    bad_align = _edited(workdir["align"], tmp_path / "align.json", poison)
    for tts_path, align_path in ((bad_tts, workdir["align"]), (tts_ckpt, bad_align)):
        assert _synth_exit(tts_path, align_path, tmp_path / "x.wav") == 2
        assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_synth_rejects_unknown_alignment_anchor(workdir, tts_ckpt, tmp_path, capsys):
    feats = tmp_path / "feats.json"
    feats.write_text(json.dumps({"vis": [0.5] * 64, "zzz": [0.5] * 64}))
    assert main(["synth", "--ckpt", str(tts_ckpt), "--align-ckpt", str(workdir["align"]),
                 "--text", "hi.", "--ref-features", str(feats),
                 "--out", str(tmp_path / "x.wav")]) == 2
    assert "error: unknown modality 'zzz': want one of vis, audio, tex" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


# -- malformed inputs: exit 2 with an error line, never a traceback -----------------

def _file(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return str(path)


def _synth_features(content):
    return lambda w, tmp: ["synth", "--ckpt", str(w["tts"]), "--align-ckpt", str(w["align"]),
                           "--text", "pack my box.", "--out", str(tmp / "x.wav"),
                           "--ref-features", _file(tmp / "feats.json", content)]


def _eval_pairs(content):
    return lambda w, tmp: ["eval", "--ref-dir", str(w["data"]), "--syn-dir", str(w["data"]),
                           "--pairs", _file(tmp / "pairs.jsonl", content),
                           "--out", str(tmp / "r.json")]


def _eval_wav(edit, **pair):
    """eval on one pair, `_PAIR` updated by `pair`, whose WAV a.wav is a copy
    of the corpus's first that `edit` rewrites in place."""
    def argv(w, tmp):
        shutil.copy(w["data"] / "wav" / "utt_00000.wav", tmp / "a.wav")
        edit(tmp / "a.wav")
        return ["eval", "--ref-dir", str(tmp), "--syn-dir", str(tmp),
                "--pairs", _file(tmp / "pairs.jsonl", json.dumps(dict(_PAIR, **pair)) + "\n"),
                "--out", str(tmp / "r.json")]
    return argv


def _first_samples(n):
    """WAV edit: keep the first `n` samples."""
    return lambda path: wav_write(path, Waveform(wav_read(path).samples[:n]))


def _edited_data(w, tmp, edit):
    """A copy of the corpus, WAVs included, with its manifest lines mapped by `edit`."""
    shutil.copytree(w["data"] / "wav", tmp / "data" / "wav")
    lines = (w["data"] / "manifest.jsonl").read_bytes().splitlines(keepends=True)
    _file(tmp / "data" / "manifest.jsonl", b"".join(edit(lines)))
    return str(tmp / "data")


def _train_align_manifest(edit):
    return lambda w, tmp: ["train-align", "--data", _edited_data(w, tmp, edit),
                           "--out", str(tmp / "a.json"), "--epochs", "1", "--batch", "3"]


def _train_tts_manifest(edit):
    return lambda w, tmp: ["train-tts", "--data", _edited_data(w, tmp, edit),
                           "--variant", "tacotron", "--align-ckpt", str(w["align"]),
                           "--out", str(tmp / "t.json"), "--steps", "1", "--batch", "1"]


def _train_tts_wav(edit):
    """train-tts on a corpus copy whose first WAV `edit` rewrites in place."""
    def argv(w, tmp):
        args = _train_tts_manifest(lambda lines: lines)(w, tmp)
        edit(tmp / "data" / "wav" / "utt_00000.wav")
        return args
    return argv


def _header_field(at, fmt, new, keep=None):
    """WAV edit: set the `fmt` field at byte `at` of wav_write's 44-byte header to
    `new` (a callable maps the old value), then keep the first `keep` bytes."""
    def edit(path):
        blob = bytearray(path.read_bytes())
        (old,) = struct.unpack_from(fmt, blob, at)
        struct.pack_into(fmt, blob, at, new(old) if callable(new) else new)
        path.write_bytes(bytes(blob[:keep]))
    return edit


def _first_row(**change):
    """Manifest edit: set fields of the first line; a callable maps the old row."""
    def edit(lines):
        row = json.loads(lines[0])
        row.update({k: v(row) if callable(v) else v for k, v in change.items()})
        return [(json.dumps(row) + "\n").encode()] + lines[1:]
    return edit


def _vis_features(change, first=1):
    """Manifest edit: replace feat_vis on every line from `first` on."""
    def edit(lines):
        rows = [json.loads(line) for line in lines]
        for row in rows[first:]:
            row["feat_vis"] = change(row["feat_vis"])
        return [(json.dumps(row) + "\n").encode() for row in rows]
    return edit


def _one_class_as_true(payload, params):
    # n_classes true, with theta cut to a one-class prompt table so the size fits
    a, b = params.layout.slices["prompt_table"]
    payload["n_classes"] = True
    theta = payload["theta"]
    payload["theta"] = np.concatenate([theta[:a + EMBED], theta[b:]])


def _no_classes(payload, params):
    # n_classes 0, with theta cut to an empty prompt table so the size fits
    a, b = params.layout.slices["prompt_table"]
    payload["n_classes"] = 0
    theta = payload["theta"]
    payload["theta"] = np.concatenate([theta[:a], theta[b:]])


def _parent_format(payload, params):
    # the layout before untrained blocks were dropped: all three prompt
    # projections, and an anchor naming the one the loss read
    blocks = params.layout.unpack(params.theta)
    e = EMBED
    names = [n % mu for mu in ("vis", "audio", "tex")
             for n in ("enc_%s_w1", "enc_%s_b1", "enc_%s_w2", "enc_%s_b2", "w_imp_%s", "w_pro_%s")]
    payload["anchor"] = "tex"
    payload["theta"] = np.concatenate([blocks.get(n, np.zeros((e, e))).ravel()
                                       for n in names + ["prompt_table", "log_t"]])


def _format_1(payload, params):
    # the version-1 file of the same model: θ as a list of floats, and dims
    # that still hold the encoder widths
    payload["magic"] = "EPALIGN/1"
    payload["dims"].update(hidden=HIDDEN, embed=EMBED)
    payload["theta"] = params.theta.tolist()


def _format_3(payload, params):
    # the format-3 file of the same model, which named its trained modalities
    payload["magic"] = "EPALIGN/3"
    payload["modalities"] = list(epalign.MODALITIES)


def _tts_format_2(payload):
    # the format-2 file of the same model: dims that still hold the three
    # widths format 3 made constants
    payload["magic"] = "EMITTS/2"
    payload["dims"] = dict(char_dim=32, **payload["dims"], dec_hidden=64, gate=16)


def _tts_layout(payload):
    return ParamLayout(tts_block_shapes(payload["variant"], **payload["dims"]))


def _no_speakers(payload):
    # dims.n_speakers 0, with theta cut to the size of that layout so the size fits
    payload["dims"]["n_speakers"] = 0
    payload["theta"] = payload["theta"][:_tts_layout(payload).size]


def _embed_16(payload):
    # dims.embed 16, with theta cut to the size of that layout so the size fits
    payload["dims"]["embed"] = 16
    payload["theta"] = payload["theta"][:_tts_layout(payload).size]


def _two_matrix_bias(payload):
    # the layout before fastspeech's condition bias became one matrix: a
    # CHAR_DIM x CHAR_DIM block (here I, so the model is the same) ahead of it
    a = _tts_layout(payload).offset("att_w")
    theta = payload["theta"]
    payload["theta"] = np.concatenate([theta[:a], np.eye(CHAR_DIM).ravel(), theta[a:]])


def _ragged_bytes(payload, params):
    # θ's bytes less the last 3: whole bytes, but not whole float64s
    payload["theta"] = payload["theta"].astype("<f8").tobytes()[:-3]


def _scaled_prompt_table(factor):
    def edit(payload, params):
        a, b = params.layout.slices["prompt_table"]
        payload["theta"][a:b] *= factor
    return edit


def _huge_weight(payload, params):
    # finite, so the checkpoint loads; its square overflows in the row norm,
    # which zeroed every fused row and scored every utterance as class 0
    payload["theta"][params.layout.offset("w_imp_vis")] = 1.94e307


def _one_json_line(ckpt, magic):
    """The checkpoint file `ckpt` as the one JSON line of format `magic`: θ as base64."""
    payload = decode_checkpoint(ckpt.read_bytes())
    theta = base64.b64encode(payload["theta"].astype("<f8").tobytes()).decode()
    return json.dumps(dict(payload, magic=magic, theta=theta)).encode()


def _eval_align_on(blob, w, tmp):
    """eval-align with the alignment checkpoint file `blob`."""
    return ["eval-align", "--ckpt", _file(tmp / "align.json", blob),
            "--data", str(w["data"]), "--out", str(tmp / "r.json")]


def _synth_tts_on(blob, w, tmp):
    """synth with the TTS checkpoint file `blob`."""
    return ["synth", "--ckpt", _file(tmp / "tts.json", blob), "--align-ckpt", str(w["align"]),
            "--text", "pack my box.", "--emotion", "sad", "--out", str(tmp / "x.wav")]


def _eval_align_checkpoint(edit):
    def argv(w, tmp):
        payload = decode_checkpoint(w["align"].read_bytes())
        edit(payload, load_epalign(w["align"]))
        return _eval_align_on(encode_checkpoint(payload), w, tmp)
    return argv


def _synth_tts_checkpoint(edit):
    def argv(w, tmp):
        payload = decode_checkpoint(w["tts"].read_bytes())
        edit(payload)
        return _synth_tts_on(encode_checkpoint(payload), w, tmp)
    return argv


def _synth_align_checkpoint(edit):
    """synth by emotion name with the corpus's alignment checkpoint edited by `edit`."""
    def argv(w, tmp):
        payload = decode_checkpoint(w["align"].read_bytes())
        edit(payload, load_epalign(w["align"]))
        return ["synth", "--ckpt", str(w["tts"]),
                "--align-ckpt", _file(tmp / "align.json", encode_checkpoint(payload)),
                "--text", "pack my box.", "--emotion", "sad", "--out", str(tmp / "x.wav")]
    return argv


def _synth_by_name(text="pack my box.", speaker="0"):
    return lambda w, tmp: ["synth", "--ckpt", str(w["tts"]), "--align-ckpt", str(w["align"]),
                           "--text", text, "--emotion", "sad", "--speaker", speaker,
                           "--out", str(tmp / "x.wav")]


def _eval_align_data(edit):
    """eval-align with the corpus's checkpoint on a corpus copy edited by `edit`."""
    return lambda w, tmp: ["eval-align", "--ckpt", str(w["align"]),
                           "--data", _edited_data(w, tmp, edit), "--out", str(tmp / "r.json")]


_PAIR = {"id": "u", "ref": "a.wav", "syn": "a.wav", "ref_text": "a", "hyp_text": "a"}

MALFORMED = {
    "features-not-numbers": _synth_features('{"vis": "abc"}'),
    "features-dict": _synth_features('{"vis": {"a": 1.0}}'),
    "features-ragged": _synth_features('{"vis": [[1.0, 2.0], [3.0]]}'),
    "features-wrong-length": _synth_features('{"vis": [1.0, 2.0]}'),
    "features-null": _synth_features(json.dumps({"vis": [None] * 64})),
    "features-not-utf8": _synth_features(b'{"vis": "\xff"}'),
    "features-deeply-nested": _synth_features("[" * 100000),
    "features-int-past-float": _synth_features('{"vis": [1%s]}' % ("0" * 400)),
    "features-array": _synth_features("[0.5, 0.5]"),
    "pairs-number": _eval_pairs("5\n"),
    "pairs-empty": _eval_pairs(""),
    # a string holding every key name passed the old `key in row` test
    "pairs-string": _eval_pairs('"id ref syn ref_text hyp_text"\n'),
    "pairs-ref-not-string": _eval_pairs(json.dumps(dict(_PAIR, ref=5)) + "\n"),
    "pairs-not-utf8": _eval_pairs(b'{"id": "\xff"}\n'),
    "pairs-deeply-nested": _eval_pairs("[" * 100000 + "\n"),
    "pairs-ref-nul": _eval_pairs(json.dumps(dict(_PAIR, ref="a\0.wav")) + "\n"),
    "pairs-wav-0hz": _eval_wav(lambda path: set_sample_rate(path, 0)),
    # a 22.05 kHz WAV was once scored by the 16 kHz front end as if it were 16 kHz
    "pairs-wav-22khz": _eval_wav(lambda path: set_sample_rate(path, 22050)),
    # 3 mel frames: enough for MCD, too few for SECS's speaker embedding
    "pairs-wav-300-samples": _eval_wav(_first_samples(300)),
    # too short for the centered STFT's reflect padding
    "pairs-wav-100-samples": _eval_wav(_first_samples(100)),
    "pairs-ref-text-no-letters": _eval_wav(lambda path: None, ref_text="!!!"),
    "manifest-not-utf8": _train_align_manifest(lambda lines: [b"\xff" + lines[0]] + lines[1:]),
    "manifest-deeply-nested": _train_align_manifest(lambda lines: [b"[" * 100000 + b"\n"] + lines),
    "manifest-unequal-features": _train_align_manifest(_vis_features(lambda v: v[:-1])),
    "manifest-empty-features": _train_align_manifest(_vis_features(lambda v: [], first=0)),
    "manifest-matrix-features": _train_align_manifest(
        _vis_features(lambda v: [v[:32], v[32:]], first=0)),
    "manifest-int-past-float": _train_align_manifest(_vis_features(lambda v: [10 ** 400] + v[1:])),
    # the reader owns these facts alone: nothing past it re-checks them
    "manifest-empty": _train_align_manifest(lambda lines: []),
    "manifest-nan-feature": _train_align_manifest(
        _vis_features(lambda v: [float("nan")] + v[1:], first=0)),
    "features-nan": _synth_features('{"vis": [NaN%s]}' % (", 0.5" * 63)),
    "scores-not-utf8": lambda w, tmp: ["mos", "--scores", _file(tmp / "s.txt", b"4.0\n\xff\n")],
    "align-float-dims": _eval_align_checkpoint(lambda p, _: p["dims"].update(d_vis=64.0)),
    "align-bool-classes": _eval_align_checkpoint(_one_class_as_true),
    "align-zero-classes": _eval_align_checkpoint(_no_classes),
    "align-parent-format": _eval_align_checkpoint(_parent_format),
    "align-format-1": _eval_align_checkpoint(_format_1),
    "align-format-3": _eval_align_checkpoint(_format_3),
    # the files of the format before this one: one JSON line, θ as base64
    "align-format-4": lambda w, tmp: _eval_align_on(_one_json_line(w["align"], "EPALIGN/4"),
                                                    w, tmp),
    "tts-format-3": lambda w, tmp: _synth_tts_on(_one_json_line(w["tts"], "EMITTS/3"), w, tmp),
    "align-theta-ragged-bytes": _eval_align_checkpoint(_ragged_bytes),
    "align-untrained-dims": _eval_align_checkpoint(lambda p, _: p["dims"].update(d_video=64)),
    "align-dims-stale-hidden": _eval_align_checkpoint(lambda p, _: p["dims"].update(hidden=64)),
    "align-dims-no-tex": _eval_align_checkpoint(lambda p, _: p["dims"].pop("d_tex")),
    "align-weight-huge": _eval_align_checkpoint(_huge_weight),
    "tts-header-not-utf8-json": lambda w, tmp: _synth_tts_on(b"\xff" + w["tts"].read_bytes(),
                                                             w, tmp),
    # θ's bytes alone
    "tts-no-header-line": lambda w, tmp: _synth_tts_on(
        w["tts"].read_bytes().partition(b"\n")[2], w, tmp),
    "tts-dims-unknown-key": _synth_tts_checkpoint(lambda p: p["dims"].update(n_mels=40)),
    "tts-unknown-field": _synth_tts_checkpoint(lambda p: p.update(extra=[1])),
    "tts-format-2": _synth_tts_checkpoint(_tts_format_2),
    "tts-unknown-variant": _synth_tts_checkpoint(lambda p: p.update(variant="wavenet")),
    "tts-theta-wrong-size": _synth_tts_checkpoint(
        lambda p: p.update(theta=p["theta"][:-1])),
    "tts-zero-speakers": _synth_tts_checkpoint(_no_speakers),
    "tts-two-matrix-bias": _synth_tts_checkpoint(_two_matrix_bias),
    # both sized θ by an int64 product that wrapped back to the file's θ size,
    # and failed only after the size check: a traceback, and a reshape error
    "tts-speakers-past-int64": _synth_tts_checkpoint(
        lambda p: p["dims"].update(n_speakers=2 + 2 ** 61)),
    "align-classes-past-int64": _eval_align_checkpoint(
        lambda p, _: p.update(n_classes=3 + 2 ** 59)),
    # the synthesizer checkpoint is trained on speakers 0 and 1
    "synth-speaker-past-count": _synth_by_name(speaker="2"),
    "synth-speaker-negative": _synth_by_name(speaker="-1"),
    "synth-text-no-letters": _synth_by_name(text="123"),
    "features-empty-object": _synth_features("{}"),
    # the checkpoint knows classes 0..2 and 64-dim features
    "align-label-past-classes": _eval_align_data(_first_row(emotion=4)),
    "align-label-negative": _eval_align_data(_first_row(emotion=-1)),
    "align-features-short": _eval_align_data(_vis_features(lambda v: v[:8], first=0)),
    "manifest-text-number": _train_align_manifest(_first_row(text=5)),
    "manifest-id-null": _train_align_manifest(_first_row(id=None)),
    "manifest-emotion-float": _train_align_manifest(_first_row(emotion=1.7)),
    "manifest-emotion-bool": _train_align_manifest(_first_row(emotion=True)),
    "manifest-speaker-string": _train_align_manifest(_first_row(speaker="1")),
    "manifest-duration-float": _train_align_manifest(
        _first_row(durations=lambda row: [float(d) for d in row["durations"]])),
    "durations-zero": _train_tts_manifest(
        _first_row(durations=lambda row: [0] + row["durations"][1:])),
    "durations-one-short": _train_tts_manifest(
        _first_row(durations=lambda row: row["durations"][:-1])),
    "durations-off-reference": _train_tts_manifest(
        _first_row(durations=lambda row: [9] * len(row["durations"]))),
    "durations-huge": _train_tts_manifest(
        _first_row(durations=lambda row: [10 ** 9] * len(row["durations"]))),
    "durations-past-int64": _train_tts_manifest(
        _first_row(durations=lambda row: [10 ** 19] * len(row["durations"]))),
    # θ is sized by the largest emotion id: 3.2e10 values at this one
    "manifest-emotion-huge": _train_align_manifest(_first_row(emotion=999999999)),
    # θ is sized by the largest speaker id: 1.05e11 values at this one
    "manifest-speaker-huge": _train_tts_manifest(_first_row(speaker=999999999)),
    "wav-path-nul": _train_tts_manifest(_first_row(wav="wav/\0.wav")),
    "wav-missing": _train_tts_wav(lambda path: path.unlink()),
    "wav-not-riff": _train_tts_wav(lambda path: path.write_bytes(b"not a wav file")),
    "wav-22khz": _train_tts_wav(lambda path: set_sample_rate(path, 22050)),
    "wav-one-hop-short": _train_tts_wav(
        lambda path: wav_write(path, Waveform(wav_read(path).samples[:-HOP]))),
    # the header refusals of wav_read, each at the field it names
    "wav-ieee-float": _train_tts_wav(_header_field(20, "<H", 3)),
    "wav-stereo": _train_tts_wav(_header_field(22, "<H", 2)),
    "wav-8-bit": _train_tts_wav(_header_field(34, "<H", 8)),
    "wav-odd-data-size": _train_tts_wav(_header_field(40, "<I", lambda n: n - 1)),
    "wav-empty-data": _train_tts_wav(_header_field(40, "<I", 0, keep=44)),
    "manifest-emotion-negative": _train_align_manifest(_first_row(emotion=-1)),
    # the corpus has 3 classes, as has the alignment checkpoint
    "tts-emotion-past-classes": _train_tts_manifest(_first_row(emotion=3)),
    "tts-emotion-negative": _train_tts_manifest(_first_row(emotion=-1)),
    # the alignment checkpoint's prompts are 32-dim
    "tts-embed-16": _synth_tts_checkpoint(_embed_16),
    # rows of norm ~1e-160 square to subnormals, so their normalized rows miss norm 1
    "align-prompts-1e-160": _synth_align_checkpoint(_scaled_prompt_table(1e-160)),
    "align-prompts-zero": _eval_align_checkpoint(_scaled_prompt_table(0.0)),
    "wav-fmt-under-16-bytes": _train_tts_wav(_header_field(16, "<I", 14)),
    "wav-no-fmt-chunk": _train_tts_wav(_header_field(12, "4s", b"junk")),
    "wav-no-data-chunk": _train_tts_wav(_header_field(36, "4s", b"junk")),
    "wav-no-wave-tag": _train_tts_wav(_header_field(8, "4s", b"WAVX")),
    "wav-truncated-chunk": _train_tts_wav(_header_field(40, "<I", lambda n: n + 2)),
}

# text each case's error must hold, so that it fails for the reason its name gives
REASON = {
    "features-int-past-float": "malformed field 'vis'",
    "features-array": "is not a JSON object of modality -> vector",
    "manifest-int-past-float": "malformed field 'feat_vis'",
    "manifest-empty": "empty manifest",
    "manifest-nan-feature": "malformed field 'feat_vis'",
    "features-nan": "malformed field 'vis'",
    "align-float-dims": "malformed field 'dims.d_vis'",
    "align-bool-classes": "malformed field 'n_classes'",
    "align-zero-classes": "malformed field 'n_classes'",
    "align-parent-format": "fields its format does not name: anchor",
    "align-format-1": "is format 'EPALIGN/1', want 'EPALIGN/5'",
    "align-format-3": "is format 'EPALIGN/3', want 'EPALIGN/5'",
    "align-format-4": "is format 'EPALIGN/4', want 'EPALIGN/5'",
    "align-theta-ragged-bytes": "bytes of parameters, not whole float64s",
    "align-untrained-dims": "malformed field 'dims'",
    "align-dims-stale-hidden": "malformed field 'dims'",
    "align-dims-no-tex": "missing field 'dims.d_tex'",
    "align-weight-huge": "eval-align stopped on a floating-point error: overflow",
    "tts-header-not-utf8-json": "can't decode byte 0xff in position 0",
    "tts-no-header-line": "tts.json: ",
    "tts-dims-unknown-key": "malformed field 'dims'",
    "tts-unknown-field": "fields its format does not name: extra",
    "tts-format-2": "is format 'EMITTS/2', want 'EMITTS/4'",
    "tts-format-3": "is format 'EMITTS/3', want 'EMITTS/4'",
    "tts-unknown-variant": "unknown variant 'wavenet'",
    "tts-theta-wrong-size": "10200 parameters, layout wants 10201",
    "tts-zero-speakers": "malformed field 'dims.n_speakers'",
    "tts-two-matrix-bias": "11225 parameters, layout wants 10201",
    "tts-speakers-past-int64": "10201 parameters, layout wants 166020696663385974745",
    "align-classes-past-int64": "22913 parameters, layout wants 18446744073709574529",
    "synth-speaker-past-count": "speaker 2 out of range [0, 2)",
    "synth-speaker-negative": "speaker -1 out of range [0, 2)",
    "synth-text-no-letters": "text is empty after normalization: '123'",
    "features-empty-object": "align_infer needs at least one modality",
    "align-label-past-classes": "labels must lie in [0, 3)",
    "align-label-negative": "labels must lie in [0, 3)",
    "align-features-short": "dim 64",
    "pairs-ref-nul": "null byte",
    "pairs-empty": "empty pairs file",
    "pairs-wav-0hz": "0 Hz",
    "pairs-wav-22khz": "22050 Hz",
    "pairs-wav-300-samples": "need >= 5 mel frames for a speaker embedding, got 3",
    "pairs-wav-100-samples": "signal too short: 100 samples < 257",
    "pairs-ref-text-no-letters": "empty reference transcript for 'u'",
    "durations-zero": "character durations must be >= 1 frame",
    "durations-one-short": "43 durations for 44 characters",
    "durations-off-reference": "durations sum to",
    "durations-huge": "durations sum to",
    "durations-past-int64": "durations sum to",
    "manifest-emotion-huge": "emotion id 999999999 is not below",
    "manifest-speaker-huge": "speaker id 999999999 is not below",
    "wav-path-nul": "null byte",
    "wav-missing": "No such file",
    "wav-not-riff": "RIFF",
    "wav-22khz": "22050 Hz",
    "wav-one-hop-short": "durations sum to",
    "wav-ieee-float": "unsupported encoding 3 (PCM only) (byte offset 20)",
    "wav-stereo": "2 channels unsupported (mono only) (byte offset 22)",
    "wav-8-bit": "8-bit samples unsupported (16-bit only) (byte offset 34)",
    "wav-odd-data-size": "odd data chunk length (byte offset 40)",
    "wav-empty-data": "empty data chunk (byte offset 40)",
    "manifest-emotion-negative": "labels must be non-negative",
    "tts-emotion-past-classes": "utterance utt_00000: emotion 3 out of range",
    "tts-emotion-negative": "utterance utt_00000: emotion -1 out of range",
    "tts-embed-16": "emotion embedding has dim 32, model expects 16",
    "align-prompts-1e-160": "u_emo must be unit norm",
    "align-prompts-zero": "cannot normalize an embedding row of zero or non-finite norm",
    "wav-fmt-under-16-bytes": "fmt chunk too small (byte offset 16)",
    "wav-no-fmt-chunk": "no fmt chunk found",
    "wav-no-data-chunk": "no data chunk found",
    "wav-no-wave-tag": "missing WAVE tag (byte offset 8)",
    "wav-truncated-chunk": "truncated file while reading chunk b'data' (byte offset 44)",
}

# the WAV file each case's error must name, as a bad file among hundreds would not be found
WAV_NAMED = {
    "pairs-wav-0hz": "a.wav",
    "pairs-wav-22khz": "a.wav",
    "wav-path-nul": "\\x00.wav",
    "wav-missing": "utt_00000.wav",
    "wav-not-riff": "utt_00000.wav",
    "wav-22khz": "utt_00000.wav",
    "wav-one-hop-short": "utt_00000.wav",
    "wav-ieee-float": "utt_00000.wav",
    "wav-stereo": "utt_00000.wav",
    "wav-8-bit": "utt_00000.wav",
    "wav-odd-data-size": "utt_00000.wav",
    "wav-empty-data": "utt_00000.wav",
    "wav-fmt-under-16-bytes": "utt_00000.wav",
    "wav-no-fmt-chunk": "utt_00000.wav",
    "wav-no-data-chunk": "utt_00000.wav",
    "wav-no-wave-tag": "utt_00000.wav",
    "wav-truncated-chunk": "utt_00000.wav",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, workdir, tts_ckpt, tmp_path, capsys):
    argv = MALFORMED[case](dict(workdir, tts=tts_ckpt), tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Traceback" not in err
    assert REASON.get(case, "") in err
    assert WAV_NAMED.get(case, "") in err


def _src_env(**extra):
    """The environment of a fresh Python process that imports this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_only_what_every_command_runs():
    # each command is its own process: scipy.stats (about 1 s to import), scipy.spatial
    # (DTW's cdist, 0.4 s), scipy.fft (the STFT's and the cepstra's), scipy.special
    # (the MOS quantile) and the filterbank's SVD (Griffin-Lim's) wait for a caller, so
    # gen-data and the alignment commands load no scipy at all
    probe = ("import json, sys, emoforge.cli\n"
             "from emoforge import dsp\n"
             "print(json.dumps([sorted(m for m in sys.modules if m.startswith(p))\n"
             "                  for p in ('scipy.stats', 'scipy.spatial', 'scipy.fft',\n"
             "                            'scipy.special')]\n"
             "                 + [dsp._mel_pinv_t.cache_info().currsize]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    stats, spatial, fft, special, pinv_entries = json.loads(done.stdout)
    assert stats == []
    assert spatial == []
    assert fft == []
    assert special == []
    assert pinv_entries == 0


def test_text_inputs_are_utf8_whatever_the_locale(workdir, tmp_path):
    # under the C locale with UTF-8 mode off, text-mode open() decodes ASCII
    env = _src_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "emoforge", *map(str, argv)], env=env,
                              capture_output=True, text=True, errors="replace")
        assert done.returncode == 0, done.stderr

    def raw_utf8(row):
        return (json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8")

    pairs = _file(tmp_path / "pairs.jsonl", raw_utf8(dict(_PAIR, ref="utt_00000.wav",
                                                          syn="utt_00000.wav", ref_text="café")))
    run("eval", "--ref-dir", workdir["data"] / "wav", "--syn-dir", workdir["data"] / "wav",
        "--pairs", pairs, "--out", tmp_path / "r.json")
    data = _edited_data(workdir, tmp_path, lambda lines: [
        raw_utf8(dict(json.loads(lines[0]), text="un café.")), *lines[1:]])
    run("eval-align", "--ckpt", workdir["align"], "--data", data, "--out", tmp_path / "a.json")


def _mutants(blob, rng, n):
    """n seeded mutants of blob: in turn bit flips, a truncation, inserted
    bytes, and 100,000 `[` inserted at one place."""
    for i in range(n):
        b, at = bytearray(blob), int(rng.integers(len(blob) + 1))
        if i % 4 == 0:
            for pos in rng.integers(len(b), size=int(rng.integers(1, 4))):
                b[pos] ^= 1 << int(rng.integers(8))
        elif i % 4 == 1:
            del b[at:]
        elif i % 4 == 2:
            b[at:at] = rng.integers(256, size=int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
        else:
            b[at:at] = b"[" * 100000
        yield bytes(b)


def _fuzz_inputs(w, tmp):
    """(name, original bytes, argv of the command reading it from a path)
    for every text input the CLI reads."""
    wavs, out = w["data"] / "wav", tmp / "out"
    row = json.loads((w["data"] / "manifest.jsonl").read_text().splitlines()[0])
    pairs = "".join(json.dumps(dict(_PAIR, id=i, ref=r, syn=s, hyp_text="a b")) + "\n"
                    for i, r, s in (("x", "utt_00000.wav", "utt_00001.wav"),
                                    ("y", "utt_00002.wav", "utt_00002.wav")))
    synth = ["synth", "--text", "ab.", "--out", out.with_suffix(".wav")]
    return [
        ("manifest", (w["data"] / "manifest.jsonl").read_bytes(), lambda path: [
            "eval-align", "--ckpt", w["align"], "--data", path.parent,
            "--out", out.with_suffix(".json")]),
        ("pairs", pairs.encode(), lambda path: [
            "eval", "--ref-dir", wavs, "--syn-dir", wavs, "--pairs", path,
            "--out", out.with_suffix(".json")]),
        ("features", json.dumps({"vis": row["feat_vis"], "tex": row["feat_text"]}).encode(),
         lambda path: synth + ["--ckpt", w["tts"], "--align-ckpt", w["align"],
                               "--ref-features", path]),
        ("tts", w["tts"].read_bytes(), lambda path: synth + [
            "--ckpt", path, "--align-ckpt", w["align"], "--emotion", "sad"]),
        ("align", w["align"].read_bytes(), lambda path: [
            "eval-align", "--ckpt", path, "--data", w["data"], "--out", out.with_suffix(".json")]),
        ("scores", b"4.0\n3.5\n4.5\n5.0\n", lambda path: ["mos", "--scores", path]),
    ]


def _exits_0_or_2_cleanly(argv, tmp, capsys, label):
    """Run argv, whose outputs are tmp/out.*: it must exit 0 or 2, with no
    traceback and no numpy warning, and an exit 0 must write no nan or inf.
    Returns the exit code and stderr."""
    for old in tmp.glob("out.*"):
        old.unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 2) and "Traceback" not in err, (label, err)
    # an overflow is a hole too, though it may end in a plausible exit 0
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, (label, numeric)
    if code == 2:
        assert "error:" in err, label
        return code, err
    written = out + "".join(p.read_text() for p in tmp.glob("out.json"))
    assert not re.search(r"\b(nan|inf|infinity)\b", written, re.I), label
    return code, err


def test_mutated_inputs_exit_0_or_2_without_traceback(workdir, tts_ckpt, tmp_path, capsys):
    rng = np.random.default_rng(13)
    (tmp_path / "data").mkdir()
    for name, blob, argv in _fuzz_inputs(dict(workdir, tts=tts_ckpt), tmp_path):
        path = tmp_path / "data" / ("manifest.jsonl" if name == "manifest" else name)
        for mutant in _mutants(blob, rng, 40):
            path.write_bytes(mutant)
            _exits_0_or_2_cleanly(argv(path), tmp_path, capsys, (name, mutant[:200]))


def test_huge_theta_values_exit_0_or_2_without_traceback(workdir, tts_ckpt, tmp_path, capsys):
    # finite, so every checkpoint check passes: only the numeric policy stands
    # between these weights and a silent overflow
    rng = np.random.default_rng(17)
    (tmp_path / "data").mkdir()
    inputs = [(name, blob, argv) for name, blob, argv
              in _fuzz_inputs(dict(workdir, tts=tts_ckpt), tmp_path) if name in ("tts", "align")]
    for name, blob, argv in inputs:
        payload, path = decode_checkpoint(blob), tmp_path / "data" / name
        theta = payload["theta"]
        for _ in range(12):
            at = rng.integers(theta.size, size=int(rng.integers(1, 4)))
            mutant = theta.copy()
            mutant[at] = rng.choice([-1.94e307, 1.94e307], size=at.size)
            path.write_bytes(encode_checkpoint(dict(payload, theta=mutant)))
            _exits_0_or_2_cleanly(argv(path), tmp_path, capsys, (name, at.tolist()))


def test_theta_byte_flips_exit_0_or_2_without_traceback(workdir, tts_ckpt, tmp_path, capsys):
    # θ is raw float64 bytes, so one flipped byte can reach any sign, exponent or
    # mantissa bit: huge, tiny and harmless values alike
    rng = np.random.default_rng(19)
    (tmp_path / "data").mkdir()
    inputs = [(name, blob, argv) for name, blob, argv
              in _fuzz_inputs(dict(workdir, tts=tts_ckpt), tmp_path) if name in ("tts", "align")]
    for name, blob, argv in inputs:
        path, start = tmp_path / "data" / name, blob.index(b"\n") + 1
        for at, flip in zip(rng.integers(start, len(blob), size=200),
                            rng.integers(1, 256, size=200)):
            mutant = bytearray(blob)
            mutant[at] ^= flip
            path.write_bytes(mutant)
            code, err = _exits_0_or_2_cleanly(argv(path), tmp_path, capsys, (name, at, flip))
            assert code == 0 or len([l for l in err.splitlines() if l.startswith("error:")]) == 1


# finite, so every feature file below is accepted; the encoder's tanh saturates
# at any size, so each still synthesizes a WAV
EXTREME_FEATURES = {"huge": [1.94e307] * 64, "huge-negative": [-1.94e307] * 64,
                    "huge-mixed-signs": [1.94e307, -1.94e307] * 32, "zeros": [0.0] * 64}


@pytest.mark.parametrize("modalities", [("vis",), ("vis", "audio", "tex")])
@pytest.mark.parametrize("values", sorted(EXTREME_FEATURES))
def test_extreme_feature_values_synthesize_cleanly(values, modalities, workdir, tts_ckpt,
                                                   tmp_path, capsys):
    feats = json.dumps(dict.fromkeys(modalities, EXTREME_FEATURES[values]))
    argv = _synth_features(feats)(dict(workdir, tts=tts_ckpt), tmp_path)
    argv[argv.index("--out") + 1] = str(tmp_path / "out.wav")
    code, _ = _exits_0_or_2_cleanly(argv, tmp_path, capsys, values)
    assert code == 0
    assert wav_read(tmp_path / "out.wav").samples.size > 0


@pytest.mark.parametrize("score, shown", [("1e309", "inf"), ("nan", "nan"), ("-inf", "-inf")])
def test_non_finite_scores_exit_2(score, shown, tmp_path, capsys):
    # 1e309 parses to inf; each is refused as off the half-point grid
    argv = ["mos", "--scores", _file(tmp_path / "s.txt", "4.0\n%s\n" % score)]
    code, err = _exits_0_or_2_cleanly(argv, tmp_path, capsys, score)
    assert code == 2
    assert "rating %s is not on the 1.0..5.0 half-point grid" % shown in err
    with pytest.raises(DataError, match="half-point grid"):
        metrics.mos_aggregate([4.0, float(score)])


def test_train_tts_reads_corpus_wavs(workdir, tmp_path):
    # one WAV swapped for a same-length render of another emotion: the
    # trainer must see the swap, so the checkpoint must change
    edited = tmp_path / "data"
    shutil.copytree(workdir["data"], edited)
    row = json.loads((edited / "manifest.jsonl").read_text().splitlines()[0])
    wav_write(edited / row["wav"],
              render_reference(row["text"], (row["emotion"] + 1) % 3, row["speaker"]))
    ckpts = [tmp_path / "corpus.json", tmp_path / "edited.json"]
    for data, ckpt in zip((workdir["data"], edited), ckpts):
        assert main(["train-tts", "--data", str(data), "--variant", "tacotron",
                     "--align-ckpt", str(workdir["align"]), "--out", str(ckpt),
                     "--steps", "2", "--batch", "18", "--seed", "9"]) == 0
    assert ckpts[0].read_bytes() != ckpts[1].read_bytes()


@pytest.mark.parametrize("batch", [3, 5])
def test_train_align_skips_unused_class_ids(batch, workdir, tmp_path):
    # one utterance of class 7 leaves ids 3..6 without utterances; the
    # prompt table still holds a row for each id up to the largest, whether
    # a batch is smaller or larger than the 4 classes present
    argv = _train_align_manifest(_first_row(emotion=7))(workdir, tmp_path)
    argv[argv.index("--batch") + 1] = str(batch)
    assert main(argv) == 0
    assert load_epalign(tmp_path / "a.json").n_classes == 8


def test_eval_reports_metrics(workdir, tmp_path, capsys):
    wav_dir = workdir["data"] / "wav"
    names = sorted(os.listdir(wav_dir))[:3]
    pairs = tmp_path / "pairs.jsonl"
    rows = [{"id": "u%d" % i, "ref": n, "syn": n,
             "ref_text": "a cat sat.", "hyp_text": "a cat sat." if i else "a hat sat."}
            for i, n in enumerate(names)]
    pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    report_path = tmp_path / "report.json"
    argv = ["eval", "--ref-dir", str(wav_dir), "--syn-dir", str(wav_dir),
            "--pairs", str(pairs), "--out", str(report_path)]
    assert main(argv) == 0
    report = json.loads(report_path.read_text())
    assert report["n_utts"] == 3
    assert report["mcd_median"] == 0.0  # identical ref and syn
    assert report["secs_median"] == pytest.approx(1.0)
    assert report["wer"] == pytest.approx(1 / 9)
    first = report_path.read_bytes()
    assert main(argv) == 0  # idempotent
    assert report_path.read_bytes() == first

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "ref": "a.wav"}\n')
    assert main(["eval", "--ref-dir", str(wav_dir), "--syn-dir", str(wav_dir),
                 "--pairs", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    rows[0]["ref"] = "missing.wav"
    pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(argv) == 2


def test_mos_output(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("".join("4.0\n" for _ in range(10)))
    assert main(["mos", "--scores", str(scores)]) == 0
    assert capsys.readouterr().out.strip() == "4.00(±0.00)"

    scores.write_text("4.0\n5.0\n")
    assert main(["mos", "--scores", str(scores)]) == 0
    assert capsys.readouterr().out.strip() == "4.50(±6.35)"

    scores.write_text("4.0\nbanana\n")
    assert main(["mos", "--scores", str(scores)]) == 2
    scores.write_text("4.0\n")
    assert main(["mos", "--scores", str(scores)]) == 2  # need at least two ratings
    scores.write_text("4.0\n4.3\n")
    assert main(["mos", "--scores", str(scores)]) == 2  # off the half-point grid


# -- the README session -----------------------------------------------------------

def _readme_fence(heading, lang):
    """The first ```lang fence under README's `heading`, without its fence lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(heading):]
    block = section[section.index("```%s\n" % lang) + len("```%s\n" % lang):]
    return block[:block.index("```")]


def test_readme_walkthrough_commands_parse():
    # a flag the CLI drops or makes required cannot linger in the docs
    lines = _readme_fence("## CLI walkthrough", "sh").replace("\\\n", " ").splitlines()
    commands = [argv[1:] for argv in (shlex.split(line, comments=True) for line in lines)
                if argv[:1] == ["emoforge"]]
    assert [argv[0] for argv in commands] == ["gen-data", "train-align", "eval-align",
                                              "train-tts", "synth", "synth", "eval", "mos"]
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: emoforge %s" % shlex.join(argv))


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # the block writes its corpus under the working directory
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_readme_fence("## Library use", "python"), scope)
    assert type(scope["c"]) is int and 0 <= scope["c"] < len(scope["prompts"])
    assert scope["curve"][1] < scope["curve"][0]
    assert np.isfinite(scope["wav"].samples).all()


# -- the README session, byte for byte ---------------------------------------------

# SHA-256 of every file the session below writes, by path under its output
# directory, plus each checkpoint's θ as little-endian float64 bytes ("#theta").
# A change that moves an entry re-pins only that entry and gives the reason.
# Checkpoint format 2 re-pinned the four checkpoint files (their "#theta"
# entries held); the version-1 files hashed align 4dcfce52..., vits
# e950a3bd..., fastspeech 22ca8a1b... and tacotron b1403656.... Float32
# Griffin-Lim rounds re-pinned the two synthesized WAVs and the eval report
# they feed (syn/happy.wav 42a902e7..., syn/ref.wav 950e7301..., eval.json
# 8053626c... before). Decoding once per character re-pinned the three TTS
# checkpoints and their "#theta" entries, as the gather now sums a character's
# frame gradients before the decoder's backward (vits d9d474a5... / 306ed113...,
# fastspeech 94846513... / 01973cdc..., tacotron 9715a980... / 4ca3c758... before).
# Checkpoint format 3 re-pinned the four checkpoint files, as their magic and
# dims changed (their "#theta" entries held); format 2 hashed align 29c694e9...,
# vits 64edf66c..., fastspeech d085b3ca... and tacotron 44032995.... The float32
# mel analysis re-pinned the three TTS checkpoints and their "#theta" entries, as
# the training targets moved by rounding, and with them the two synthesized WAVs
# and the eval report (vits 68ba7fa9... / 1af386ef..., fastspeech bf6eab91... /
# 7688104d..., tacotron d896d605... / 9c0ef72e..., syn/happy.wav 24b8b40a...,
# syn/ref.wav ae90f471..., eval.json a87e6c8e... before). Fastspeech's one
# condition-bias matrix re-pinned its checkpoint and "#theta" entries, the WAV
# it synthesizes and the eval report that scores it (c8c3c81a... / acc02162...,
# syn/happy.wav c7fe8098..., eval.json 9bf98842... before). Checkpoint format
# 4 (EMITTS/4, EPALIGN/5: a JSON header line, then θ's raw bytes) re-pinned the
# four checkpoint files (their "#theta" entries held); the one-JSON-line files
# of the format before hashed align 73d3837a..., vits 2aa36def..., fastspeech
# 9d36be86... and tacotron 88a07c83.... vits' output bias dec_wc re-pinned its
# checkpoint and "#theta" entries, the WAV it synthesizes and the eval report
# that scores it (f023e9f7... / 4df7ae29..., syn/ref.wav 98b1c667..., eval.json
# 870fdfea... before).
PINNED_SESSION_SHA256 = {
    "align.json": "a05d6ad160f0f2205c21d4eb1500c9195e1b0a877bd444a6d080b227776743dc",
    "align_report.json": "f4ba83f1d8e66934fa36170904e83c2ad1ee746ec66698a36193a65e31b948fd",
    "corpus/manifest.jsonl": "3837f705ea68de28fabefee0b372d9d3c9fe1926a859335b928c2df9df58da3c",
    "corpus/wav/utt_00000.wav": "416a3ac0fd319652d97f741ba2e4bef0d368351ca5ff2a4884025ee73ad0fb70",
    "corpus/wav/utt_00001.wav": "ab3f8f484cfdbf9c233bb9b7320017ee5ce8ff7ed7f7dffe1e3f659e5d1d7135",
    "corpus/wav/utt_00002.wav": "f280a34d010b52311235015cd87168ed5d0ff09c561ea361d09176effc149f8a",
    "corpus/wav/utt_00003.wav": "0c93d009dfbdecaddd150e6837ba2b3b50ea14d7c0e0b35588148a654200e0b4",
    "corpus/wav/utt_00004.wav": "87ae86a2847673406cd1658a46e2bba71269b35fbd4220d0ac5a6a6d16da2a5f",
    "corpus/wav/utt_00005.wav": "309f2cdf3934586edf96681ed0cbff7a37cb749a9c09021a885490d56f00f432",
    "corpus/wav/utt_00006.wav": "94886f5c99672b444d391e3e45e35ad8380bb5b9bf302c6bcd622de189351373",
    "corpus/wav/utt_00007.wav": "ed63d650a0eb1120802a0fc0a6afb89239e44d197ef7c4a711a98ce61df91e88",
    "corpus/wav/utt_00008.wav": "05125d525d3a4b3424ba43ae0c5d9f46fab0baa395cd8bc68d7f28e0bcc20dff",
    "corpus/wav/utt_00009.wav": "d4d80f987157cd6c36d5b6ecd4c31884ea7d45f292bc93a03a4c09bbf97cd8cf",
    "corpus/wav/utt_00010.wav": "a255366db7309c8c6ec1ab4d59945b935b1de82223ad34e4e72b883145704048",
    "corpus/wav/utt_00011.wav": "08805fe769c070a8ca8b54342b0964b51312266383a9adcbc965216a5915becb",
    "corpus/wav/utt_00012.wav": "0658939c59578a4ebaa3feb5b2e1a5cd0f14834e62765214135e76744e1c67d1",
    "corpus/wav/utt_00013.wav": "175658e8ad84b55047ac60a1222919523f4026427d46c773200699b4b04624a4",
    "corpus/wav/utt_00014.wav": "b1b51bf958a26611a87e0268506578013e472acff7079831112b07d3002ee9fd",
    "eval.json": "9a32c5ded53dea9f8e4f58fbd7461d685e8be1a6994d28032e2c74324f6392f9",
    "syn/happy.wav": "612638c7c2fe34a60c5d6702320bd427b15db6d5eede09dde49fde562bca450b",
    "syn/ref.wav": "fc6b269a4b0395f471b7445179805353c2dd59243bcc4680e663223cdc657698",
    "tts_fastspeech.json": "68ea1b8561de3d26c34cd9f8bce1244b429ea4627327e59196fc7f4ede6f1c73",
    "tts_tacotron.json": "61f0c3eba93b3484e479cfbdb80f1375cf8bf0332a985416d23ac528208011e9",
    "tts_vits.json": "a2169a0a2902a2d55d24809e614c3b9113cfe69fd96742e3b4d08671bf02d1e5",
    "align.json#theta": "99d85db9d60beb56dcef0c790d72b2325d4d6141334e0c3522e57a9ef576b9c5",
    "tts_vits.json#theta": "0870c4989f3befa2244d86ebd843799d6651c1e905b1ce83ce862ab03b02946b",
    "tts_fastspeech.json#theta": "244833bf338b8e7bda3861f1896c9ea9ba7d293f96a35a2fd6d6e1acda1d8666",
    "tts_tacotron.json#theta": "fd0cabbaa728c0581cc8293c666fe8d929e86f0904e65e1979f9e7563155be91",
}


def test_readme_session_bytes_pinned(tmp_path, capsys):
    # the README session at reduced size; inputs go to in/, every output to out/
    out, inputs = tmp_path / "out", tmp_path / "in"
    inputs.mkdir()
    data, align, syn = out / "corpus", out / "align.json", out / "syn"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv
        return capsys.readouterr().out

    run("gen-data", "--out", data, "--classes", 3, "--per-class", 5, "--speakers", 2,
        "--seed", 7)
    run("train-align", "--data", data, "--out", align, "--epochs", 4, "--batch", 6, "--seed", 7)
    run("eval-align", "--ckpt", align, "--data", data, "--out", out / "align_report.json")
    for variant in VARIANTS:
        run("train-tts", "--data", data, "--variant", variant, "--align-ckpt", align,
            "--out", out / ("tts_%s.json" % variant), "--steps", 4, "--batch", 4, "--seed", 7)
    row = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    feats = _file(inputs / "feats.json",
                  json.dumps({"vis": row["feat_vis"], "audio": row["feat_audio"]}))
    syn.mkdir()
    run("synth", "--ckpt", out / "tts_fastspeech.json", "--align-ckpt", align,
        "--text", "pack my box.", "--emotion", "happy", "--speaker", 1, "--out", syn / "happy.wav")
    run("synth", "--ckpt", out / "tts_vits.json", "--align-ckpt", align,
        "--text", "pack my box.", "--ref-features", feats, "--out", syn / "ref.wav")
    pairs = [dict(id="happy", ref="utt_00005.wav", syn="happy.wav",
                  ref_text="pack my box.", hyp_text="pack my box."),
             dict(id="ref", ref="utt_00000.wav", syn="ref.wav",
                  ref_text="pack my box.", hyp_text="pack a box.")]
    pairs = _file(inputs / "pairs.jsonl", "".join(json.dumps(p) + "\n" for p in pairs))
    run("eval", "--ref-dir", data / "wav", "--syn-dir", syn, "--pairs", pairs,
        "--out", out / "eval.json")
    mos = run("mos", "--scores", _file(inputs / "scores.txt", "4.0\n3.5\n4.5\n5.0\n"))

    digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    checkpoints = [("align.json", load_epalign(align))]
    checkpoints += [("tts_%s.json" % v, load_tts(out / ("tts_%s.json" % v))) for v in VARIANTS]
    for name, params in checkpoints:
        digests[name + "#theta"] = hashlib.sha256(params.theta.astype("<f8").tobytes()).hexdigest()
    assert mos == "4.25(±1.03)\n"
    assert digests == PINNED_SESSION_SHA256

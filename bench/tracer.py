"""In-memory span recorder and the wrapper table of the traced benchmark run.

The tracer wraps public functions of the emoforge modules from outside the
package. Modules import many of these functions by name (`tts.grad`,
`metrics.mel_spectrogram`, `cli.wav_write`, ...), so wrapping only the
defining module would miss those call sites. `Tracer.install` therefore
replaces every module attribute in the package that *is* the original
function object, and `uninstall` restores each binding it replaced.

A span is (name, parent span index, start, end, counters). Spans stay in a
list until the run ends; `segment_stats` folds a range of them into
per-name call counts, inclusive (busy) time, self time (busy time minus the
time covered by direct child spans) and summed counters.
"""

import json
import os
import sys
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np


def _variant(args, kwargs):
    return kwargs["variant"] if "variant" in kwargs else args[2]


def _synthesized(args, kwargs, result):
    wav, mel = result
    return {"frames": int(mel.frames.shape[0]),
            "nonfinite": int(np.count_nonzero(~np.isfinite(wav.samples)))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cells(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


# (module, function, span-name suffix from the arguments, counters from
# arguments and result). Span names are "<module>.<function>[.<suffix>]".
WRAPPER_TABLE = (
    ("autodiff", "grad", None, None),
    ("autodiff", "backward", None, None),
    ("autodiff", "adam_step", None, None),
    ("tts", "train_tts", _variant, None),
    ("tts", "synthesize", None, _synthesized),
    ("tts", "load_tts", None, None),
    ("tts", "save_tts", None, None),
    ("conditioning", "coupling_graph", None, None),
    ("conditioning", "attention_graph", None, None),
    ("dsp", "griffin_lim", None, None),
    ("dsp", "stft", None, None),
    ("dsp", "istft", None, None),
    ("dsp", "mel_spectrogram", None, None),
    ("dsp", "wav_read", None, _file_bytes),
    ("dsp", "wav_write", None, _file_bytes),
    ("datagen", "gen_corpus", None, None),
    ("datagen", "render_reference", None, None),
    ("epalign", "train_epalign", None, None),
    ("epalign", "eval_alignment", None, None),
    ("epalign", "align_infer", None, None),
    ("epalign", "load_epalign", None, None),
    ("metrics", "utterance_metrics", None, None),
    ("metrics", "mcd", None, None),
    ("metrics", "dtw_align", None, _cells),
    ("metrics", "edit_distance", None, _cells),
    ("metrics", "secs", None, None),
)


class Tracer:
    """Records nested spans while installed; cheap list appends only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.bindings = set()  # "module.attr" of every call site ever patched

    # -- recording ---------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, name, parent, t0, counters):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, parent, t0, t1, counters)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around a CLI stage."""
        index, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, parent, t0, None)

    def _wrap(self, name, fn, suffix, count):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            full = name if suffix is None else "%s.%s" % (name, suffix(args, kwargs))
            index, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, full, parent, t0, None)
                raise
            t1 = time.perf_counter()
            tracer._stack.pop()
            counters = count(args, kwargs, result) if count is not None else None
            tracer.spans[index] = (full, parent, t0, t1, counters)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "emoforge" or name.startswith("emoforge."))]
        for mod_name, fn_name, suffix, count in WRAPPER_TABLE:
            module = sys.modules["emoforge." + mod_name]
            original = getattr(module, fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original, suffix, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
                        self.bindings.add("%s.%s" % (m.__name__, attr))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    # -- aggregation -------------------------------------------------------

    def segment_stats(self, start, end):
        """Per-name stats over spans[start:end] (a closed group of spans)."""
        child_time = {}
        for name, parent, t0, t1, _ in self.spans[start:end]:
            if parent >= start:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        stats = {}
        for index in range(start, end):
            name, _, t0, t1, counters = self.spans[index]
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child_time.get(index, 0.0)
            for key, value in (counters or {}).items():
                s[key] = s.get(key, 0) + value
        return stats

    def descendants_by_name(self, start, end, root_name, names):
        """For each span called root_name, count its descendants per name."""
        owner = {}  # span index -> position in `out` of its root span
        out = []
        for index in range(start, end):
            name, parent = self.spans[index][:2]
            if name == root_name:
                owner[index] = len(out)
                out.append(dict.fromkeys(names, 0))
            elif parent in owner:
                owner[index] = owner[parent]
                if name in names:
                    out[owner[index]][name] += 1
        return out

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for index, (name, parent, t0, t1, counters) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "parent": parent, "name": name,
                                    "start": t0, "end": t1, "counters": counters}) + "\n")

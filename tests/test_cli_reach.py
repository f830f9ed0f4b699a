"""Every statement of the package runs under a command, or names the caller that runs it.

`conftest.py` records the package lines that `test_cli.py` runs through
`cli.main`. A statement that no command runs is either a refusal that needs a
CLI case (its exit code is the CLI's promise), code that can go, or a line
that only a direct caller of the library reaches: `ALLOWED` lists those, each
with the test that runs it and why no command does. Only statements that run
when a function is called count: not docstrings, `def` or `class` lines,
`nonlocal` lines, or statements that run at import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PACKAGE, statements

TESTS = Path(__file__).resolve().parent

# (module, function, the statement's first line) -> (a test that runs it, why no command does)
ALLOWED = {
    ("conditioning", "coupling_graph", "return (h1 - b) * (-log_s).exp(), log_s"): (
        "tests/test_acceptance.py::test_criterion_01_flow_invertibility",
        "synthesis runs vits' flow forward only; the inverse exists for criterion 1's round trip"),
    ("dsp", "stft", "x = x.astype(np.float64, copy=False)"): (
        "tests/test_acceptance.py::test_criterion_12_dsp_round_trips",
        "every command's STFT takes float32 samples (the mel analysis, Griffin-Lim's rounds)"),
    ("metrics", "edit_distance", "return len(hyp)"): (
        "tests/test_acceptance.py::test_criterion_05_edit_distance_oracle",
        "eval refuses an empty reference transcript before it counts edits"),
    ("dsp", "wav_write", 'raise DataError("cannot write non-finite samples to %s" % path)'): (
        "tests/test_dsp.py::test_wav_write_rejects_non_finite",
        "under cli.main's np.errstate a NaN or overflow stops a command before it writes, "
        "but a library caller of synthesize can pass non-finite samples"),
    ("autodiff", "Tensor.__matmul__", 'raise DataError("matmul expects 2-D operands")'): (
        "tests/test_autodiff.py::test_tape_stack_is_empty_after_the_loss_raises",
        "the package's models multiply 2-D blocks only; a loss that a library caller "
        "of grad writes may not"),
    ("autodiff", "grad",
     'raise TypeError("loss used an operation outside the tape: %s" % exc) from exc'): (
        "tests/test_autodiff.py::test_grad_rejects_foreign_ops",
        "the package's losses use tape ops only; a library caller's loss may not"),
    ("autodiff", "grad",
     'raise TypeError("loss must return a Tensor, got %r" % type(out).__name__)'): (
        "tests/test_autodiff.py::test_grad_rejects_non_tensor_result",
        "the package's losses return Tensors; a library caller's loss may not"),
    ("autodiff", "backward", 'raise TypeError("backward requires a scalar output")'): (
        "tests/test_autodiff.py::test_grad_rejects_non_scalar_loss",
        "the package's losses end in a mean; a library caller's loss may not"),
}


# imports every module of the package under a trace and prints the lines that ran
_IMPORT_TRACE = """
import importlib, json, os, sys
package, ran = sys.argv[1], set()
def trace(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace if frame.f_code.co_filename.startswith(package) else None
sys.settrace(trace)
for name in sorted(os.listdir(package)):
    if name.endswith(".py") and name != "__main__.py":
        importlib.import_module("emoforge." + name[:-3])
sys.settrace(None)
print(json.dumps(sorted(ran)))
"""


def _import_time_lines():
    """(file, line) of each package line that runs when its modules are imported, in a
    fresh process: a function that the import itself calls runs in every command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_TRACE, PACKAGE], env=env,
                          capture_output=True, text=True, check=True)
    return {tuple(place) for place in json.loads(done.stdout)}


def _package_statements():
    """{(module, function, text): [(path, line), ...]} over every module of the package,
    less the statements that run at import."""
    at_import, out = _import_time_lines(), {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            for line, function, text in statements(path):
                if (path, line) not in at_import:
                    out.setdefault((name[:-3], function, text), []).append((path, line))
    return out


def _test_exists(test_id):
    path, _, name = test_id.partition("::")
    path = TESTS.parent / path
    return path.is_file() and any(
        isinstance(node, ast.FunctionDef) and node.name == name
        for node in ast.parse(path.read_text(encoding="utf-8")).body)


def test_every_statement_runs_under_a_command_or_is_allowed(cli_reach):
    why_not = cli_reach.incomplete()
    if why_not:
        pytest.skip(why_not)
    statements = _package_statements()
    problems = []
    for key, places in sorted(statements.items()):
        if key in ALLOWED:
            continue
        for path, line in places:
            if (path, line) not in cli_reach.lines:
                problems.append("emoforge.%s:%d: %s" % (key[0], line, key[2]))
    for key, (test, _) in sorted(ALLOWED.items()):
        places = statements.get(key, [])
        if len(places) != 1:
            problems.append("allowed %s matches %d statements, want 1" % (key, len(places)))
        elif places[0] in cli_reach.lines:
            problems.append("allowed %s is reached by a command now: drop its entry" % (key,))
        if not _test_exists(test):
            problems.append("allowed %s names %s, which does not exist" % (key, test))
    assert not problems, "\n".join(sorted(problems))

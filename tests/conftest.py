"""The line-reach record behind `test_cli_reach.py`.

While a test of `test_cli.py` runs (its fixtures' set-up included), each
`cli.main` call it makes runs under a trace function that notes each line of
the emoforge package that runs. Lines that a test runs by calling the package directly do
not count: only a command gives a refusal its exit code. The record also
says whether every test of `test_cli.py` was selected and passed, as a
partial run reaches only part of the package.
"""

import ast
import collections
import functools
import os
import sys
from pathlib import Path

import pytest

from emoforge import cli

PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))
CLI_TESTS = Path(__file__).resolve().with_name("test_cli.py")


class CliReach:
    def __init__(self, config):
        self.lines = set()  # (file, line) of each package line run inside cli.main
        self.selected, self.passed = set(), set()  # node ids of test_cli.py's tests
        self.untraced = None  # why a test of test_cli.py ran without the trace, if one did
        self.partial = any(
            "::" in arg and (config.invocation_params.dir / arg.split("::")[0]).resolve()
            == CLI_TESTS for arg in config.args)
        # cli.main under the trace; one for the session, so a fully run function stays untraced
        self.main = None

    def incomplete(self):
        """Why the record does not cover all of test_cli.py, or None if it does."""
        if self.partial:
            return "only part of test_cli.py was selected"
        if not self.selected:
            return "test_cli.py did not run"
        if self.untraced:
            return self.untraced
        if self.selected - self.passed:
            return ("%d of test_cli.py's tests had not passed when the guard ran"
                    % len(self.selected - self.passed))
        return None


_REACH = pytest.StashKey[CliReach]()


def _clear_package_caches():
    # each command is its own process, where a cached function runs its body
    # on its first call; an earlier test module may have filled the cache
    for name, module in list(sys.modules.items()):
        if name.startswith("emoforge."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@functools.cache
def statements(path):
    """(line, function, text) of each statement of the file at `path` that runs only
    inside a function: not a docstring, `def` or `class` line, `nonlocal` or `global`
    line, or a statement of a module or class body. `function` is the qualified name.
    `text` is the statement's first line; where that text repeats within its function,
    the line that opens its block comes first ("if i == 0: j -= 1", "else: j -= 1")."""
    source = Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def body(stmts, scope, in_def, opener):
        for i, node in enumerate(stmts):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring (or a bare string, which compiles to nothing)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                body(node.body, scope + [node.name], not isinstance(node, ast.ClassDef) or in_def,
                     None)
                continue
            text = lines[node.lineno - 1].strip()
            if in_def and not isinstance(node, (ast.Nonlocal, ast.Global)):
                found.append((node.lineno, ".".join(scope), text, opener))
            body(getattr(node, "body", []), scope, in_def, text)
            orelse = getattr(node, "orelse", [])  # an elif is an If alone in its orelse
            elif_ = len(orelse) == 1 and isinstance(orelse[0], ast.If) and (
                lines[orelse[0].lineno - 1].lstrip().startswith("elif"))
            body(orelse, scope, in_def, opener if elif_ else "else:")
            body(getattr(node, "finalbody", []), scope, in_def, "finally:")
            for handler in getattr(node, "handlers", []):
                body(handler.body, scope, in_def, lines[handler.lineno - 1].strip())

    body(ast.parse(source).body, [], False, None)
    repeats = collections.Counter((function, text) for _, function, text, _ in found)
    return [(line, function, "%s %s" % (opener, text) if repeats[function, text] > 1 else text)
            for line, function, text, opener in found]


def _traced(main, reach):
    """`main` with a sys.settrace function on for the length of each call, which adds
    (file, line) to `reach.lines` for each statement line of the package it runs."""
    # code object -> the trace function for its frames, or None once none is needed:
    # a call event costs one lookup, as a command makes millions of calls
    tracers = {}

    def package_tracer(code):
        own = {n for _, _, n in code.co_lines()}
        left = {n for n, _, _ in statements(code.co_filename) if n in own}  # not yet run

        def in_package(frame, event, arg):
            if event == "line" and frame.f_lineno in left:
                reach.lines.add((code.co_filename, frame.f_lineno))
                left.discard(frame.f_lineno)
                if not left:
                    tracers[code] = None
                    frame.f_trace_lines = False
            return in_package

        return in_package if left else None

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code]
        except KeyError:
            tracer = tracers[code] = (package_tracer(code)
                                      if code.co_filename.startswith(PACKAGE) else None)
            return tracer

    @functools.wraps(main)
    def traced_main(*args, **kwargs):
        if sys.gettrace() is not None:  # a debugger or coverage tool owns the trace hook
            reach.untraced = "another trace function was active during test_cli.py"
            return main(*args, **kwargs)
        sys.settrace(on_call)
        try:
            return main(*args, **kwargs)
        finally:
            sys.settrace(None)

    return traced_main


def pytest_configure(config):
    config.stash[_REACH] = CliReach(config)


def pytest_deselected(items):
    if any(item.path == CLI_TESTS for item in items):
        items[0].config.stash[_REACH].partial = True


def pytest_collection_finish(session):
    reach = session.config.stash[_REACH]
    reach.selected = {item.nodeid for item in session.items if item.path == CLI_TESTS}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if item.path != CLI_TESTS:
        yield
        return
    # test_cli.py calls the entry point by its module global `main`; tracing only
    # inside those calls leaves the rest of the test (and the session) at full speed
    reach, module = item.config.stash[_REACH], item.module
    if reach.main is None:
        _clear_package_caches()
        reach.main = _traced(module.main, reach)
    module.main = reach.main
    try:
        yield
    finally:
        module.main = reach.main.__wrapped__


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.when == "call" and report.passed and item.path == CLI_TESTS:
        item.config.stash[_REACH].passed.add(item.nodeid)


@pytest.fixture
def cli_reach(request):
    """The CliReach record of this session."""
    return request.config.stash[_REACH]

"""Every public function, class and method in src/emoforge has a caller there,
and every default a public function offers is overridden by some call there,
but not by every one.

A library function that only tests call is a second API to keep in step
with the one the CLI runs. This guard parses the package with `ast` and
fails on any public top-level function or class, or public method, whose
name is not used anywhere in the package outside its own definition.
Likewise a defaulted parameter that no call in the package passes is a
setting with one value: a constant dressed as a knob. Conversely a default
that every call passes is never read: a required argument with a second,
unused owner of its value.

A top-level name counts as used only when read bare or as
`<defining module>.<name>`; an attribute of another object that happens to
share the name (`report.wer` for a function `metrics.wer`) does not. A
method counts as used through an attribute read on any object.

Another guard walks each module's symbol tables: a global name that some
scope reads but that neither the module nor `builtins` defines is a
NameError waiting for the first run of that line.

An exception class is worth defining only if some handler tells it apart,
so another guard fails on any class in `errors.py` that no `except`
clause in the package names.

A result field that nothing reads is a second answer to keep right, so the
last guard fails on any field of a `@dataclass` whose name no code in the
package reads, as an attribute or as a string constant (a checkpoint schema
key, an argparse `dest`).
"""

import ast
import builtins
import pathlib
import symtable

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "emoforge"

# qualified name -> why it may have no caller inside the package
ALLOWED = {
    "cli._Parser.error": "argparse calls this override, not emoforge code",
}


def _definitions(tree, module):
    """(qualified name, node, owners a use may be read from) per public
    definition; owner None is a bare name, and owners None means any."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name), node, {None, module}
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, item.name), item, None


def _uses(tree):
    """(name, owner, line) of every name or attribute the module reads; the
    owner of an attribute is the bare name it is read from, if any."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, None, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            yield node.attr, owner, node.lineno


def unreferenced(src=SRC):
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    uses = [(name, owner, path, line)
            for path, tree in trees.items() for name, owner, line in _uses(tree)]
    missing = []
    for path, tree in trees.items():
        for qualname, node, owners in _definitions(tree, path.stem):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (owners is None or owner in owners)
                       and not (p == path and line in own)
                       for name, owner, p, line in uses):
                missing.append(qualname)
    return sorted(missing)


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced() == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


# qualified name.parameter -> why no call in the package need pass it
ALLOWED_KNOBS = {
    "cli.main.argv": "the entry point: None reads sys.argv, tests pass a list",
    "conditioning.coupling_graph.inverse": "the flow's inverse direction, which "
                                           "acceptance criterion 1 runs",
}


def _calls(tree):
    """(name, owner, positional count, keywords, *args given) of every call;
    owner as in `_uses`. A `**mapping` names no keyword it could be seen to pass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name, owner = node.func.id, None
        elif isinstance(node.func, ast.Attribute):
            value = node.func.value
            name, owner = node.func.attr, value.id if isinstance(value, ast.Name) else ""
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        yield name, owner, len(node.args), {k.arg for k in node.keywords if k.arg}, starred


def _defaults(src):
    """(qualified name.parameter, whether each of the function's calls in the
    package passes it) per defaulted parameter of a public top-level function."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            mine = [c for c in calls if c[0] == node.name and c[1] in (None, path.stem)]
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            knobs = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            knobs += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if d is not None]
            for i, arg in knobs:
                yield "%s.%s.%s" % (path.stem, node.name, arg), [
                    arg in kws or (i is not None and (n_pos > i or starred))
                    for _, _, n_pos, kws, starred in mine]


def unpassed_defaults(src=SRC):
    return sorted(name for name, passed in _defaults(src) if not any(passed))


def overridden_defaults(src=SRC):
    """Defaults no call reads; a function no call in the package makes is
    `unreferenced`'s concern, not this one's."""
    return sorted(name for name, passed in _defaults(src) if passed and all(passed))


def test_every_default_is_passed_by_some_call_in_the_package():
    assert unpassed_defaults() == sorted(ALLOWED_KNOBS)
    assert all(reason.strip() for reason in ALLOWED_KNOBS.values())


def test_no_default_is_passed_by_every_call_in_the_package():
    assert overridden_defaults() == []


def undefined_globals(src=SRC):
    """module:name of each global read that nothing defines, in any scope."""
    missing = set()
    for path in sorted(src.glob("*.py")):
        top = symtable.symtable(path.read_text(), path.name, "exec")
        defined = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
        tables = [top]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            missing |= {"%s:%s" % (path.stem, s.get_name()) for s in table.get_symbols()
                        if s.is_global() and s.is_referenced()
                        and s.get_name() not in defined and not hasattr(builtins, s.get_name())}
    return sorted(missing)


def test_every_global_a_module_reads_is_defined():
    assert undefined_globals() == []


def uncaught_error_types(src=SRC):
    """Each class errors.py defines that no `except` clause in the package names."""
    defined = {node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
                           for t in types}
    return sorted(defined - caught)


def test_every_error_type_is_caught_in_the_package():
    assert uncaught_error_types() == []


def _is_dataclass(decorator):
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


def unread_fields(src=SRC):
    """module.class.field of each dataclass field the package never reads."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                unread += ["%s.%s.%s" % (path.stem, node.name, item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    return sorted(unread)


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields() == []

"""The benchmark tracer's bindings (perfbench/tracer.py TARGETS), read here
without editing them: every (module, attribute) it wraps resolves, and every
name src/ binds for the tracer alone (marked noqa: F401) is one it wraps."""
import ast
import importlib
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "softcontact")


def _targets(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    return {(mod, attr) for mod, attr, *_ in importlib.import_module("tracer").TARGETS}


def _unused_bindings():
    """(module, name) of each name an import marked noqa: F401 binds."""
    found = set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            text = fh.read()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and "noqa: F401" in lines[node.end_lineno - 1]:
                found |= {(fname[:-3], alias.asname or alias.name) for alias in node.names}
    return found


def test_every_tracer_target_resolves(monkeypatch):
    for mod, attr in _targets(monkeypatch):
        assert callable(getattr(importlib.import_module("softcontact." + mod), attr)), (mod, attr)


def test_every_binding_kept_for_the_tracer_is_one_it_wraps(monkeypatch):
    bindings = _unused_bindings()
    assert ("verify", "total_contact_force") in bindings  # the scan finds them
    assert bindings <= _targets(monkeypatch), sorted(bindings - _targets(monkeypatch))

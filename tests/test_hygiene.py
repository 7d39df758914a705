"""Source hygiene: every import of the library is used, every private
helper has a caller, no certified result rests on `assert`, and importing
the library builds nothing that is cached."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twobases"


def _modules() -> dict:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _exported(tree) -> set:
    """The names listed in a module's `__all__`."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            out |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return out


def _referenced(tree) -> list:
    """Every name a module reads, as a bare name or an attribute, and every
    name it imports from another module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out += [a.name for a in node.names]
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_helper_has_a_caller():
    trees = _modules()
    refs = [r for tree in trees.values() for r in _referenced(tree)]
    uncalled = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and node.name not in refs):
                uncalled.append(f"{name}: {node.name}")
    assert uncalled == []


def test_no_assert_in_the_library():
    """`python -O` strips every `assert`, so no check the answers depend on
    may be one."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_import_fills_no_cache():
    """A fresh interpreter that has imported the package and its CLI has
    every functools cache of the library empty: each paper constant is
    built on first use, never at import."""
    script = ("import sys, twobases, twobases.cli\n"
              "caches = {f'{m}.{n}': f.cache_info().currsize\n"
              "          for m, mod in list(sys.modules.items()) if m.startswith('twobases')\n"
              "          for n, f in vars(mod).items() if hasattr(f, 'cache_info')}\n"
              "print(sorted(k for k, v in caches.items() if v), len(caches))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    filled, count = proc.stdout.rsplit(" ", 1)
    assert filled == "[]"
    # the parser, q_f, the ladder, the deep-pair witness, the pool and its
    # entropies, each seen from its own module at least
    assert int(count) >= 6

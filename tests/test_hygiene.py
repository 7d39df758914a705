"""Source hygiene: every import of the library is used, every private
helper has a caller, no certified result rests on `assert`, only the ladder
and the block words take a component, only `AlgBase` reads its working
bracket, the interval scan's ladder cells are the only ones in the
enumeration, pair roots and rooted endpoints are decided by the one exact
zero test, only bases.py builds a base on a bracket it proves itself, and
importing the library builds nothing that is cached."""

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


def test_only_the_ladder_and_block_words_take_a_component():
    """The B_2 scan covers the component generated by 0: only the ladder,
    the deep pair and the block words take a component (a parameter named
    `comp` or annotated `ComponentSpec`), and no module defines, imports or
    exports the generic profile assembler `udiff_generate`."""
    allowed = {"qn_ladder", "prop62_pair", "_block", "_bridge"}
    takers, assemblers = [], []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if node.name not in allowed and any(
                        p.arg == "comp" or (p.annotation is not None
                                            and "ComponentSpec" in ast.unparse(p.annotation))
                        for p in params):
                    takers.append(f"{name}: {node.name}")
                if node.name == "udiff_generate":
                    assemblers.append(f"{name}: def")
        if "udiff_generate" in _exported(tree) or "udiff_generate" in _referenced(tree):
            assemblers.append(f"{name}: name")
    assert takers == [] and assemblers == []


def test_the_working_bracket_is_private_to_algbase():
    """No module but bases.py reads `_lo`, `_hi`, `_cell` or `_built` of
    anything but `self`, and `AlgBase` has no `copy`: every other module
    sees a base's value through `bracket`, and a shared ladder base prints
    and scans from its fixed cells."""
    private = {"_lo", "_hi", "_cell", "_built"}
    trees = _modules()
    readers = [f"{name}:{node.lineno}" for name, tree in trees.items() if name != "bases.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in private
               and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    [algbase] = [node for node in ast.walk(trees["bases.py"])
                 if isinstance(node, ast.ClassDef) and node.name == "AlgBase"]
    methods = [node.name for node in algbase.body if isinstance(node, ast.FunctionDef)]
    assert readers == [] and "copy" not in methods and "bracket" in methods


def test_the_ladder_cells_of_the_scan_are_the_only_ones():
    """In enum_b2.py only `_interval` reads a ladder base through a fixed
    cell (`bracket` with a width), and nothing there imports or calls
    `certify_b2`: every pair root of the module, the Prop. 6.2 deep pair's
    among them, is isolated on the interval scan's cells."""
    tree = _modules()["enum_b2.py"]
    cells = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "bracket" and (node.args or node.keywords)]
    assert cells and all(c.startswith("_interval:") for c in cells)
    assert "certify_b2" not in _referenced(tree)


def test_pair_roots_and_endpoints_are_tested_by_the_one_zero_test():
    """Whether q roots a pair's defect polynomial is decided by
    `AlgBase.is_root_of` alone: enum_b2.py names no series evaluation in
    Q(q) (`eval_seq`, `series_den_inv`, `f_eval`), and `b2core._witness`
    calls none of them."""
    in_q = {"eval_seq", "series_den_inv", "f_eval"}
    trees = _modules()
    assert in_q.isdisjoint(_referenced(trees["enum_b2.py"]))
    [witness] = [node for node in ast.walk(trees["b2core.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_witness"]
    called = {ast.unparse(node.func).rsplit(".", 1)[-1]
              for node in ast.walk(witness) if isinstance(node, ast.Call)}
    assert in_q.isdisjoint(called) and "is_root_of" in called


def test_one_bracket_rule_one_zero_test_one_sign_engine():
    """`AlgBase` has no `from_bracket`, `bases` no `gcd_has_root_in` and
    `NumberField` no `sign`, and no module names the first two: a public
    base proves its bracket by `from_poly`'s root count, and only bases.py
    takes the private path `_verified=True`, on brackets it proves; `cmp`'s
    equality is `is_root_of`, and every sign at q is `AlgBase.sign_of`."""
    trees = _modules()
    tree = trees["bases.py"]
    methods = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "from_bracket" not in methods["AlgBase"] and "sign" not in methods["NumberField"]
    assert "gcd_has_root_in" not in functions
    named = [f"{name}: {r}" for name, t in trees.items() for r in _referenced(t)
             if r in {"from_bracket", "gcd_has_root_in"}]
    verified = [f"{name}:{node.lineno}" for name, t in trees.items() for node in ast.walk(t)
                if isinstance(node, ast.keyword) and node.arg == "_verified"
                and isinstance(node.value, ast.Constant) and node.value.value is True]
    assert named == [] and verified and all(v.startswith("bases.py:") for v in verified)


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

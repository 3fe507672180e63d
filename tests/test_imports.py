"""Source hygiene: every module-level import of the package is used, every
module-level private name is referenced somewhere in the package, and so is
every method or property of a module-level class; every public
module-level function or class is read by its own module or imported from
it by another.  A short list that only tests, the benchmark or the README
use is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cycbrauer"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads
    (``from __future__`` imports and names listed in ``__all__`` count as
    used)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_detected():
    src = "import os\nimport sys as system\nfrom math import gcd, lcm\nlcm\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "gcd")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(tree):
    """Every name a module reads, imports or takes as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def unreferenced_private_names(sources):
    """Module-level private names (``_x``, not dunders) that no source in
    ``sources`` (a {module: text} map) reads or imports, as sorted
    (module, line, name) triples."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        used |= _references(tree)
    return sorted(d for d in defined if d[2] not in used)


def test_unreferenced_private_names_detected():
    sources = {"a": "_A = 1\n_b: int = 2\ndef _f():\n    return _A\n"
                    "class _K:\n    pass\n__all__ = []\n",
               "b": "from a import _K\n"}
    assert unreferenced_private_names(sources) == [("a", 2, "_b"),
                                                   ("a", 3, "_f")]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def _stem(module):
    """The module name of a {module: text} key or of an ImportFrom target:
    ``gram.py`` and ``cycbrauer.gram`` are both ``gram``."""
    return module.removesuffix(".py").rsplit(".", 1)[-1]


def unreferenced_public_names(sources):
    """Public module-level functions and classes that neither their own
    module reads nor another module in ``sources`` (a {module: text} map)
    imports from that module, as sorted (module, line, name) triples.  Uses
    are counted per module: a local name or an attribute of the same
    spelling elsewhere does not count."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((_stem(module), node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                used |= {(_stem(node.module), alias.name)
                         for alias in node.names}
    return sorted(d for d in defined if (_stem(d[0]), d[2]) not in used)


def test_unreferenced_public_names_detected():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "class K:\n    pass\ndef _h():\n    pass\nX = 1\n",
               "b": "from a import K\n"}
    assert unreferenced_public_names(sources) == [("a", 1, "f")]


def test_uses_are_counted_per_module():
    # f is only a local and g only an attribute elsewhere, and h is
    # imported from the wrong module: none of the three counts as used
    sources = {"a.py": "def f():\n    pass\ndef g():\n    pass\n"
                       "def h():\n    pass\ndef k():\n    pass\n",
               "b.py": "from .c import h\nfrom .a import k\n"
                       "def _use(x):\n    f = x.g()\n    return f, h, k\n",
               "c.py": "def h():\n    pass\n"}
    assert unreferenced_public_names(sources) == [
        ("a.py", 1, "f"), ("a.py", 3, "g"), ("a.py", 5, "h")]


# public names that no src/ module uses, each with its reason
NO_SRC_CALLER = {
    # the references that tests compare group products and the star and
    # iota involutions against
    "compose",
    "inverse",
    # documented in the README: a minimal failing triple off the locus
    "associativity_witness",
    # the library's serial sweep, which the benchmark and the acceptance
    # test run; the CLI composes the same two steps to spread one of them
    # over workers
    "concordance_sweep",
    # the dense Gaussian determinant: the benchmark traces it and the
    # determinant tests compare the label-Fourier blocks against it
    "gauss_det",
    # the one-pair call of multiply_all: the benchmark traces it, the README
    # shows it and the tests call it
    "multiply_diagrams",
}


def test_no_unreferenced_public_names():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert [d for d in unreferenced_public_names(sources)
            if d[2] not in NO_SRC_CALLER] == []


def unreferenced_methods(sources):
    """Methods and properties (not dunders) of module-level classes whose
    name no source in ``sources`` (a {module: text} map) reads or takes as
    an attribute, as sorted (module, line, "Class.name") triples."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.lineno, "%s.%s" % (cls.name, node.name))
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__")]
        used |= _references(tree)
    return sorted(d for d in defined if d[2].split(".")[1] not in used)


def test_unreferenced_methods_detected():
    sources = {"a": "class K:\n    def f(self):\n        return self._g()\n"
                    "    def _g(self):\n        pass\n"
                    "    @property\n    def h(self):\n        pass\n"
                    "    def __eq__(self, other):\n        pass\n",
               "b": "def f(k):\n    return k.f()\n"}
    assert unreferenced_methods(sources) == [("a", 7, "K.h")]


# methods and properties that no src/ module uses, each with its reason
METHOD_NO_SRC_CALLER = {
    # the verdict as a bool, for library callers and the tests
    "Verdict.semisimple",
    # the involutions on algebra elements, which the acceptance checks run
    "AlgebraElement.star",
    "AlgebraElement.iota",
    # the ring map into GF(p) that the scalar tests check CycElt
    # arithmetic against
    "CyclotomicField.reduction_hom",
}


def test_no_unreferenced_methods():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert [d for d in unreferenced_methods(sources)
            if d[2] not in METHOD_NO_SRC_CALLER] == []

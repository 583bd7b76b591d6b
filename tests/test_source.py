import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sfwm"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, less __all__'s and lines marked noqa: F401."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # No linter is installed, so this is the unused-import check.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert [u for path in modules for u in unused_imports(path)] == []


def test_unused_import_check_sees_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from numpy.polynomial.polynomial import polyval\n"
        "from math import pi  # noqa: F401\n"
        "from math import e\n"
        "__all__ = ['e']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(module) == ["m.py:3 polyval"]


def package_exports(path: Path) -> tuple[list[str], list[str]]:
    """A package's __all__ and the names its `from . import` lines bind, each sorted."""
    tree = ast.parse(path.read_text())
    bound = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1
             for a in n.names]
    listed = next(ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in n.targets))
    return sorted(listed), sorted(bound)


def test_package_all_lists_exactly_what_it_imports():
    # A stale __all__ entry would otherwise only fail on `from sfwm import *`.
    listed, bound = package_exports(SRC / "__init__.py")
    assert len(listed) >= 30
    assert listed == bound


def test_export_check_sees_a_leftover(tmp_path):
    init = tmp_path / "__init__.py"
    for imports, names in (("Contour, PmMap", "'Contour'"), ("Contour", "'Contour', 'PmMap'")):
        init.write_text(f"from .phasematching import {imports}\n__all__ = [{names}]\n")
        listed, bound = package_exports(init)
        assert listed != bound and "PmMap" in listed + bound


def unread_public_names(package: Path) -> list[str]:
    """Public top-level defs and classes of a package that its __all__ leaves out and no module reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    read |= set(package_exports(package / "__init__.py")[0])
    return [f"{stem}.{n.name}" for stem, tree in trees.items() for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
            and n.name not in read]


def test_library_holds_no_test_only_code():
    # A reference only tests call belongs in tests/oracles.py, not in the package.
    assert unread_public_names(SRC) == []


def test_unread_name_check_sees_a_leftover(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n__all__ = ['f']\n")
    (tmp_path / "a.py").write_text(
        "def f():\n    pass\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
        "class Oracle:\n    pass\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import g\ny = g()\n")
    assert unread_public_names(tmp_path) == ["a.h", "a.Oracle"]

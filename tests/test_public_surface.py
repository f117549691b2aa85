"""Every name ``hsrfusion/__init__.py`` imports has a caller: code in the
package outside the name's own definition, or an acceptance criterion in
``tests/test_acceptance.py``. The README's "Public surface" section states
the rule.

The layering is pinned too: every package import sits at module level, so
no import cycle hides inside a function, and ``fileio`` imports no package
module but ``model``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hsrfusion"


def _referrers(tree, modules):
    """{name: the top-level definitions that read it} for a module's tree: a
    bare name in load context, or an attribute of one of ``modules``
    (``bounds.certify``, ``hf.certify``). A module-level statement is None."""
    out = {}
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules):
                name = sub.attr
            else:
                continue
            out.setdefault(name, set()).add(owner)
    return out


def _called_names():
    """Names read in the package outside their own definitions (__init__'s
    imports are not calls), and names the acceptance criteria read."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            called |= {name for name, owners in _referrers(tree, modules).items()
                       if owners - {name}}
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "hsrfusion"}
    return called | set(_referrers(tree, aliases))


def test_every_public_name_has_a_caller():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    called = _called_names()
    assert [name for name in exported if name not in called] == []


def _package_imports(node):
    """The package modules an import statement names: ``from .model import
    x`` names model, and ``from . import bounds, fileio`` names both."""
    if isinstance(node, ast.Import):
        return [alias.name.removeprefix("hsrfusion.") for alias in node.names
                if alias.name.startswith("hsrfusion.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if not node.level:
        if module != "hsrfusion" and not module.startswith("hsrfusion."):
            return []
        module = module.removeprefix("hsrfusion").removeprefix(".")
    return [module] if module else [alias.name for alias in node.names]


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_package_module_is_imported_inside_a_function():
    nested = [f"{name}:{node.lineno}" for name, tree in _trees().items()
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if _package_imports(node)]
    assert nested == []


def test_fileio_imports_no_package_module_but_model():
    imported = {module for node in ast.walk(_trees()["fileio.py"])
                for module in _package_imports(node)}
    assert imported - {"model"} == set()

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smallmodel"

# called from outside src/: argparse calls ArgumentParser.error itself
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_src_function_is_named_in_src():
    """Every top-level function and every method that is not a dunder in
    src/smallmodel/*.py (not __init__.py, which only re-exports) is named
    somewhere in src/, so no API lives on for the tests alone.

    Matching is by name only: a method is taken as used when any name or
    attribute in src/ spells it. So a method that shares its name with one
    src/ calls on another type (a ``join`` beside every ``str.join``) is
    not caught here and needs a look by hand."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unnamed = [qual for module, tree in trees.items()
               for qual, name in _definitions(tree, module)
               if name not in named and qual not in CALLED_FROM_OUTSIDE]
    assert unnamed == [], f"named nowhere in src/: {unnamed}"

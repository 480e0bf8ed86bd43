import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smallmodel"

# called from outside src/: argparse calls ArgumentParser.error itself
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _definitions(tree, module):
    """(qualified name, the spelling that counts as a use) per definition:
    ``Class.method`` for a classmethod, the bare name otherwise."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    classmethod = any(isinstance(d, ast.Name) and d.id == "classmethod"
                                      for d in item.decorator_list)
                    yield (f"{module}.{node.name}.{item.name}",
                           f"{node.name}.{item.name}" if classmethod else item.name)


def test_every_src_function_is_named_in_src():
    """Every top-level function and every method that is not a dunder in
    src/smallmodel/*.py (not __init__.py, which only re-exports) is named
    somewhere in src/, so no API lives on for the tests alone.

    Matching is by name: a function or method is taken as used when any
    name or attribute in src/ spells it, a classmethod only when src/
    spells ``Class.method``. So a method that shares its name with one
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
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner is not None:
                    named.add(f"{owner}.{node.attr}")
    unnamed = [qual for module, tree in trees.items()
               for qual, name in _definitions(tree, module)
               if name not in named and qual not in CALLED_FROM_OUTSIDE]
    assert unnamed == [], f"named nowhere in src/: {unnamed}"

"""Every public name of the package is reached by the program.

A module-level public def, class or assigned name in src/ardtk/ is
reached when the package, the benchmark harness (perfbench/) or the
acceptance gates load it as a name, read it as an attribute or import
it.  Unit tests do not count: a name that only its own tests call is
code nothing exercises.  A word in a docstring or a string does not
count either.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ardtk"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_names(tree):
    """The module-level public def, class and assigned names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    t.id for t in ast.walk(target) if isinstance(t, ast.Name)
                )
    return {n for n in names if not n.startswith("_")}


def used_names(tree):
    """Names a module loads, attributes it reads and names it imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_readers_exist():
    assert all(path.is_file() for path in READERS)
    assert len(READERS) > 3


def test_every_public_name_is_reached():
    used = set()
    for path in READERS:
        used |= used_names(_parse(path))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_names(_parse(path)) - used
    )
    assert unused == [], "public names nothing reaches: " + ", ".join(unused)


def test_census_sees_defs_assignments_and_uses():
    tree = ast.parse(
        "import x\n"
        "from y import imported\n"
        "A = 1\n"
        "B: int = 2\n"
        "_private = 3\n"
        "def f():\n"
        "    '''mentions unused_word'''\n"
        "    return A + x.attr\n"
        "class C:\n"
        "    inner = 4\n"
    )
    assert public_names(tree) == {"A", "B", "f", "C"}
    used = used_names(tree)
    assert {"A", "x", "attr", "imported"} <= used
    assert not {"B", "f", "C", "unused_word", "inner"} & used

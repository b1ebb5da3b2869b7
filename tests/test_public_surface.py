"""Every public name, member and knob of the package is reached by the program.

A module-level public def, class or assigned name in src/ardtk/ is
reached when the package, the benchmark harness (perfbench/) or the
acceptance gates load it as a name, read it as an attribute or import
it.  Unit tests do not count: a name that only its own tests call is
code nothing exercises.  A word in a docstring or a string does not
count either.

Two finer checks use the same readers:

- every public method, property and class-body field of a public class
  is read as an attribute (obj.member) by some reader, save the
  WITNESSES below;
- every defaulted parameter of a public function or method is passed by
  some call in a reader: by keyword, by position at or past its index,
  or through * or ** unpacking.  A call is matched to the function by
  its name, f(...) or obj.f(...).

The census matches names only.  A member whose name some reader reads
on another object escapes it (BitWord.ones against np.ones), and so
does a parameter that a call of another function of the same name
passes.
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

# Fields no reader reads that stay, because they explain a verdict or a
# value to whoever holds the result.
WITNESSES = {
    "VerifyResult.move_index": "names the move a rejected transcript fails at",
    "VerifyResult.element": "names the frequent word left uncovered",
    "ShapeBoundsReport.violations": "lists the (l, m, excess) pairs a failed audit breaks",
    "ShapeBoundsReport.tail_ok": "says whether the ghat(n) <= slack part of the audit held",
    "RDPoint.channel": "the test channel that attains the rate; "
    "test_distortion_constraint_met checks the rate against it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(node):
    """The names a module- or class-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}


def public_names(tree):
    """The module-level public def, class and assigned names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= _assigned(node)
    return {n for n in names if not n.startswith("_")}


def _public_classes(tree):
    return [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def public_members(tree):
    """Class.member for each public method, property and class-body field
    of a module's public classes."""
    members = set()
    for cls in _public_classes(tree):
        for node in cls.body:
            names = {node.name} if isinstance(node, _FUNCTIONS) else _assigned(node)
            members.update(f"{cls.name}.{n}" for n in names if not n.startswith("_"))
    return members


def _decorated(fn, name):
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def defaulted_params(tree):
    """(function name, parameter, call position) for each defaulted
    parameter of a module's public functions and of the public methods
    of its public classes.  The position is the parameter's index among
    a call's positional arguments (a method's self or cls is not one),
    None for a keyword-only parameter."""
    functions = [(fn, 0) for fn in tree.body if isinstance(fn, _FUNCTIONS)]
    for cls in _public_classes(tree):
        functions += [
            (fn, 0 if _decorated(fn, "staticmethod") else 1)
            for fn in cls.body if isinstance(fn, _FUNCTIONS)
        ]
    params = set()
    for fn, bound in functions:
        if fn.name.startswith("_"):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):]):
            index = len(positional) - len(a.defaults) + i - bound
            params.add((fn.name, arg.arg, index))
        params.update(
            (fn.name, arg.arg, None)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None
        )
    return params


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


def read_attributes(tree):
    """The attributes a module reads, obj.attr."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def passed_arguments(tree):
    """What a module's calls pass, keyed by the called name: (name, i) for
    the i-th positional argument, (name, keyword), (name, "*", i) for a
    * unpacking at position i and (name, "**") for a ** unpacking."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        for i, arg in enumerate(node.args):
            passed.add((name, "*", i) if isinstance(arg, ast.Starred) else (name, i))
        passed.update((name, "**" if kw.arg is None else kw.arg) for kw in node.keywords)
    return passed


def is_passed(param, passed):
    name, arg, index = param
    if (name, arg) in passed or (name, "**") in passed:
        return True
    return index is not None and (
        (name, index) in passed
        or any((name, "*", i) in passed for i in range(index + 1))
    )


def _census():
    readers = [_parse(path) for path in READERS]
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    return readers, modules


def test_readers_exist():
    assert all(path.is_file() for path in READERS)
    assert len(READERS) > 3


def test_every_public_name_is_reached():
    readers, modules = _census()
    used = set().union(*map(used_names, readers))
    unused = sorted(
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in public_names(tree) - used
    )
    assert unused == [], "public names nothing reaches: " + ", ".join(unused)


def unread_members():
    """Class.member: module, for each public member no reader reads."""
    readers, modules = _census()
    read = set().union(*map(read_attributes, readers))
    return {
        member: stem
        for stem, tree in modules.items()
        for member in public_members(tree)
        if member.split(".")[1] not in read
    }


def test_every_public_member_is_read():
    left = sorted(
        f"{stem}.{member}"
        for member, stem in unread_members().items()
        if member not in WITNESSES
    )
    assert left == [], "public members nothing reads: " + ", ".join(left)


def test_every_witness_is_an_unread_member():
    stale = sorted(set(WITNESSES) - set(unread_members()))
    assert stale == [], "WITNESSES entries that are read or gone: " + ", ".join(stale)


def test_every_default_is_passed():
    readers, modules = _census()
    passed = set().union(*map(passed_arguments, readers))
    unpassed = sorted(
        f"{stem}.{name}({arg}=)"
        for stem, tree in modules.items()
        for name, arg, index in defaulted_params(tree)
        if not is_passed((name, arg, index), passed)
    )
    assert unpassed == [], "defaults no call passes: " + ", ".join(unpassed)


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


def test_census_sees_members_and_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d):\n"
        "    pass\n"
        "def _g(a=1):\n"
        "    pass\n"
        "class C:\n"
        "    field: int\n"
        "    other = 0\n"
        "    _hidden = 1\n"
        "    def method(self, p, q=0):\n"
        "        return self.field\n"
        "    @staticmethod\n"
        "    def make(r=0):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class _D:\n"
        "    hidden_field = 0\n"
    )
    assert public_members(tree) == {
        "C.field", "C.other", "C.method", "C.make", "C.size",
    }
    assert defaulted_params(tree) == {
        ("f", "b", 1), ("f", "c", None), ("method", "q", 1), ("make", "r", 0),
    }
    assert read_attributes(tree) == {"field"}
    assert not read_attributes(ast.parse("C(field=1)\nobj.field = 2\n"))

    def passes(source, param):
        return is_passed(param, passed_arguments(ast.parse(source)))

    assert passes("f(0, 5)", ("f", "b", 1))
    assert passes("f(0, 5, 6)", ("f", "b", 1))
    assert passes("f(0, b=5)", ("f", "b", 1))
    assert passes("m.f(0, *rest)", ("f", "b", 1))
    assert passes("f(**kw)", ("f", "c", None))
    assert passes("obj.method(0, 1)", ("method", "q", 1))
    assert not passes("f(0)", ("f", "b", 1))
    assert not passes("f(0, 5)", ("f", "c", None))
    assert not passes("g(0, 5)", ("f", "b", 1))
    assert not passes("obj.method(0)", ("method", "q", 1))

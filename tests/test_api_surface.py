"""Every public function, class, method and annotated class field defined
in `src/skewcoh` must be used by the package itself or by the benchmark in
`perfbench/`.

A use is an identifier, an attribute name, or a dotted part of a string
constant without whitespace (the benchmark's tracer names what it rebinds
as strings such as "Field." + "add" or "Matrix.__matmul__"), found in
`src/skewcoh` or `perfbench/` outside the name's own definition.  Import
statements are not uses, so re-exporting a name from `__init__` does not
keep it alive; neither does a test calling it.  A field (a dataclass or
NamedTuple attribute) needs a read: an attribute in load context or a
dotted part of a string, so building a record with it is no use.

Matching is by name, not by type, with one exception: an attribute of
`self` in the body of class K reaches only K's own name, so a dead
`Matrix.stack` no longer passes on the benchmark's `self.stack`.  Any other
receiver is still matched by name alone: a dead name survives while
anything of the same name is used through a receiver that is not `self`, so
a field called `index` passes on the JSON key "index", and a dead method
passes on a live one of another class called as `other.name`.

A name whose only uses are string constants in `perfbench/` passes the
guard on the benchmark's say-so alone, and so does a name whose other uses
all sit inside the definition of such a name (`Field.inv` inside
`Field.div`), and so on until the set stops growing.  Those names are
pinned as a set: a new one fails until it is added there, and the set is
the deletion list for a benchmark change that stops naming them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewcoh"
BENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
USERS = [PACKAGE, BENCH]


def public_definitions(tree):
    """(name, qualified name, first line, last line) of each public
    module-level function or class and each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((item.name, "%s.%s" % (node.name, item.name),
                                item.lineno, item.end_lineno))
    return out


def public_fields(tree):
    """(name, qualified name, line) of each public annotated field in the
    body of a module-level class."""
    return [(item.target.id, "%s.%s" % (node.name, item.target.id), item.lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and not item.target.id.startswith("_")]


def uses(tree):
    """(name, line, kind, owner) for every identifier ("name"), attribute
    read ("attr"), attribute store or delete ("store") and dotted part of a
    string constant ("str").  owner is K for an attribute of `self` in the
    body of class K (the innermost one), and None for every other use."""
    owner = {}
    for cls in ast.walk(tree):      # outer classes first, so inner ones win
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    owner[node] = cls.name
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, "name", None))
        elif isinstance(node, ast.Attribute):
            kind = "attr" if isinstance(node.ctx, ast.Load) else "store"
            out.append((node.attr, node.lineno, kind, owner.get(node)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and not any(ch.isspace() for ch in node.value)):
            out.extend((part, node.lineno, "str", None) for part in node.value.split(".")
                       if part.isidentifier())
    return out


def reaches(qual, kind, owner):
    """Whether a use of qual's name, of this kind and owner (see `uses`),
    reaches the definition qual: a method only through an attribute or a
    string, never a bare name, and an attribute of `self` in the body of
    class K only K's own method."""
    kinds = ("attr", "str") if "." in qual else ("name", "attr", "str")
    return kind in kinds and (owner is None or qual.startswith(owner + "."))


def parsed_users():
    return {path: ast.parse(path.read_text(), str(path))
            for folder in USERS for path in sorted(folder.glob("*.py"))}


def public_name_uses():
    """("file: qualified name", (file, first line, last line),
    [(user file, line, kind), ...]) for each public definition in the
    package, listing its uses outside its own definition."""
    trees = parsed_users()
    used = {path: uses(tree) for path, tree in trees.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, qual, first, last in public_definitions(trees[path]):
            out.append(("%s: %s" % (path.name, qual), (path, first, last),
                        [(p, line, kind) for p, found in used.items()
                         for n, line, kind, owner in found
                         if n == name and reaches(qual, kind, owner)
                         and not (p == path and first <= line <= last)]))
    return out


def unused_public_names():
    return [qual for qual, _, found in public_name_uses() if not found]


def tracer_only_names():
    """Public names whose only uses are string constants in `perfbench/`
    (the tracer's SPANNED entries and "Field." + op names, and run.py's
    metric names) or sit inside the definition of a tracer-only name,
    grown until the set stops changing."""
    names = public_name_uses()
    only = set()
    while True:
        spans = [span for qual, span, _ in names if qual in only]
        grown = {qual for qual, _, found in names
                 if found and all((kind == "str" and p.parent == BENCH)
                                  or any(p == sp and first <= line <= last
                                         for sp, first, last in spans)
                                  for p, line, kind in found)}
        if grown == only:
            return sorted(only)
        only = grown


def unread_fields():
    trees = parsed_users()
    read = {n for tree in trees.values() for n, _, kind, _ in uses(tree)
            if kind in ("attr", "str")}
    return ["%s: %s" % (path.name, qual)
            for path in sorted(PACKAGE.glob("*.py"))
            for name, qual, _ in public_fields(trees[path]) if name not in read]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_tracer_only_names_are_the_pinned_set():
    assert tracer_only_names() == [
        "fields.py: Field.div", "fields.py: Field.inv", "fields.py: Field.neg",
        "linalg.py: Matrix.inverse", "linalg.py: Subspace.contains", "linalg.py: char_poly",
        "linalg.py: eigenspace", "linalg.py: poly_splits"]


def test_every_public_field_is_read_outside_the_tests():
    assert unread_fields() == []


def test_the_guard_sees_definitions_and_uses():
    tree = ast.parse("class A:\n    def used(self):\n        return self.used_not()\n"
                     "    def used_not(self):\n        return 'A.used'\n")
    names = {q for _, q, _, _ in public_definitions(tree)}
    assert names == {"A", "A.used", "A.used_not"}
    found = {n for n, _, _, _ in uses(tree)}
    assert {"used_not", "A", "used"} <= found
    # self.stack in B's body reaches B.stack only, never A.stack
    tree = ast.parse("class A:\n    def stack(self):\n        return 1\n"
                     "class B:\n    def run(self, a):\n        return self.stack, a.stack\n")
    assert [(n, owner) for n, _, kind, owner in uses(tree) if kind == "attr"] \
        == [("stack", "B"), ("stack", None)]
    assert not reaches("A.stack", "attr", "B") and reaches("B.stack", "attr", "B")
    assert reaches("A.stack", "attr", None) and not reaches("stack", "attr", "B")
    tree = ast.parse("class R:\n    read: int\n    written: int\n    _own: int\n"
                     "r = R(read=1, written=2)\nr.written = r.read\n")
    assert [q for _, q, _ in public_fields(tree)] == ["R.read", "R.written"]
    assert [(n, kind) for n, _, kind, _ in uses(tree) if kind in ("attr", "store")] \
        == [("written", "store"), ("read", "attr")]


def unused_imports():
    """"file: name", the file relative to the repository root, for each
    name bound by an import in a module of `src/skewcoh`, `tests` or
    `perfbench` that the module never uses as an identifier.  The package's
    `__init__` only re-exports, and `from __future__` binds nothing."""
    out = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += ["%s: %s" % (path.relative_to(ROOT).as_posix(), bound)
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names
                for bound in [alias.asname or alias.name.split(".")[0]]
                if bound not in names]
    return out


def test_every_import_is_used():
    assert unused_imports() == []

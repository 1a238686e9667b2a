"""No function, class or record field in the package goes unused.

A function, method or class of `src/affineframes` whose name is never read
as a name or an attribute anywhere in the package or in `bench/` has no
caller outside the tests, so it is dead code: delete it, or move it into the
tests that still build inputs with it.  Likewise a field of a package class
whose name is never read as an attribute there.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_package_function_has_a_caller_outside_the_tests():
    package = sorted((ROOT / "src" / "affineframes").glob("*.py"))
    reads, defined = collections.Counter(), {}
    for path in package + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, DEFINITIONS) and path in package:
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    assert package
    assert any(name[0].isupper() for name in defined)  # classes are checked too
    uncalled = {name: where for name, where in defined.items()
                if not (name.startswith("__") and name.endswith("__")) and reads[name] == 0}
    assert uncalled == {}


def test_every_package_record_field_is_read():
    # a field that no code reads as an attribute only echoes what its maker was given
    package = sorted((ROOT / "src" / "affineframes").glob("*.py"))
    attributes, fields = collections.Counter(), {}
    for path in package + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes[node.attr] += 1
            elif isinstance(node, ast.ClassDef) and path in package:
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields.setdefault(f"{node.name}.{item.target.id}",
                                          f"{path.name}:{item.lineno}")
    assert any(name.startswith("CountResult.") for name in fields)  # records are checked
    unread = {name: where for name, where in fields.items()
              if attributes[name.partition(".")[2]] == 0}
    assert unread == {}

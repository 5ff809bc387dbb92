"""Layout rules over the package source: which names cross modules, and
which fields may change after construction."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "deepflow"


def test_no_private_names_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


def test_node_fields_are_set_only_at_construction():
    """The caches on formula and derivation nodes are sound only while no
    node changes: no code stores to .a, .b, .rule or .kind outside
    __init__ and __new__."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__new__"):
                allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.attr in ("a", "b", "rule", "kind") and id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno} stores .{node.attr}")
    assert not found, found


FLOW_DICTS = ("nodes", "edges", "ins", "outs")
DICT_MUTATORS = ("pop", "popitem", "update", "setdefault", "clear")


def _flow_dict(node):
    """Whether node is a .nodes, .edges, .ins or .outs attribute, or a
    subscript of one (an inner port map)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in FLOW_DICTS


def test_flow_dicts_change_only_in_the_mutable_flow():
    """A flow is checked once, when it is made, and keeps the port maps of
    that check; this is sound only while no flow changes.  Outside
    rewrite._MutFlow, no code stores into or deletes from .nodes, .edges,
    .ins or .outs, calls a mutating dict method on them, or rebinds them
    outside __init__."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt, init = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (path.name, node.name) == ("rewrite.py", "_MutFlow"):
                exempt.update(id(n) for n in ast.walk(node))
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                init.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and _flow_dict(node.value):
                found.append(f"{path.name}:{node.lineno} stores into a flow dict")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.attr in FLOW_DICTS and id(node) not in init:
                    found.append(f"{path.name}:{node.lineno} rebinds .{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in DICT_MUTATORS and _flow_dict(node.func.value):
                    found.append(f"{path.name}:{node.lineno} calls {node.func.attr} on a flow dict")
    assert not found, found


def test_eq_steps_are_made_only_by_glue():
    """glue strips the re-anchors on both sides of each joint it makes, so
    no code outside derivation.glue calls step(EQ, ...)."""

    def names(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("derivation.py", "glue"):
                allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and names(node.func, "step") and node.args:
                rule = node.args[0]
                if names(rule, "EQ") or (isinstance(rule, ast.Constant) and rule.value == "eq"):
                    found.append(f"{path.name}:{node.lineno} calls step(EQ, ...)")
    assert not found, found

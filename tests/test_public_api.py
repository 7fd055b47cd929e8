"""Public API guard: every public top-level function and class of the package
is used by the program itself, in src/ or bench/, outside its own
definition. A public name that only tests, demos or the README call is a
second way to reach something, and each one is one more thing to keep in
step with the code that runs.

References are resolved from the AST: a bare name in the module that defines
it (a local variable of the same name counts too) or in a file that imports
it from there, and `module.name` where `module` is an imported package
module. Imports, docstrings and strings do not count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitfedsim"

# Public on purpose though no code calls them.
UNUSED_ON_PURPOSE = {
    # the references the tests hold the fast paths to
    ("attacks", "agr_deviation"),   # the gamma search's deviations
    ("nn", "sgd_step"),             # in-place SGD through nn.sgd_update
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def _public_defs(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _imports(tree, modules):
    """(names, module aliases): local name -> (module, name) for names
    imported from a package module, local name -> module for the modules."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source != "splitfedsim" and not source.startswith("splitfedsim."):
                continue
            source = source[len("splitfedsim."):] if "." in source else ""
        for alias in node.names:
            local = alias.asname or alias.name
            if source == "" and alias.name in modules:
                aliases[local] = alias.name
            elif source in modules:
                names[local] = (source, alias.name)
    return names, aliases


def _references(tree, modules, own):
    """Yield (module, name, enclosing top-level def) for every reference in
    the file to a package module's top-level name. `own` is the file's module
    name when it is a package module, whose bare names refer to itself."""
    names, aliases = _imports(tree, modules)
    own_defs = _public_defs(modules[own]) if own else {}
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                if node.id in names:
                    yield names[node.id] + (None,)
                elif node.id in own_defs:
                    yield own, node.id, owner
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                yield aliases[node.value.id], node.attr, None


def _used():
    modules = _modules()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        own = path.stem if path.parent == PACKAGE and path.stem in modules else None
        tree = modules[own] if own else ast.parse(path.read_text(), str(path))
        for module, name, owner in _references(tree, modules, own):
            if not (module == own and name == owner):
                used.add((module, name))
    public = {(m, name) for m, tree in modules.items() for name in _public_defs(tree)}
    return public, used


def test_every_public_name_is_used_by_the_program():
    public, used = _used()
    unused = sorted(f"{m}.{name}" for m, name in public - used - UNUSED_ON_PURPOSE)
    assert not unused, f"public names that no code in src/ or bench/ uses: {unused}"


def test_the_exceptions_are_public_and_unused():
    public, used = _used()
    assert UNUSED_ON_PURPOSE <= public - used

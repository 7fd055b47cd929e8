"""Public API guard: the package reaches each name one way, and the program
itself, the code in src/ or bench/, uses everything public:

- __init__.py binds no public name but __version__; every name is imported
  from the module that defines it;
- every public top-level function and class of a package module is used
  outside its own definition;
- every public method, property and annotated field of a public package
  class is read as an attribute, or named in a table the program reads
  through getattr;
- every parameter with a default of a public top-level function is passed,
  by position or by keyword, by some call.

A name, member or option that only tests, demos or the README reach is a
second way to reach something, and each one is one more thing to keep in
step with the code that runs.

References are resolved from the AST: a bare name in the module that defines
it (a local variable of the same name counts too) or in a file that imports
it from there, and `module.name` where `module` is an imported package
module. Imports, docstrings and strings do not count, but the string
entries of each READ_BY_NAME table count as reads of its class's members. An attribute read
`x.name` counts for the class x is known to be: the enclosing class for
`self`, the annotated class for a parameter. Any other x may be an instance
of every package class with that member whose module the file is or imports
from, and the read counts for each of them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitfedsim"

# Public on purpose though no code calls them: the references the tests hold
# the fast paths to.
UNUSED_ON_PURPOSE = {
    ("attacks", "agr_deviation"): "the gamma search's deviations",
    ("nn", "sgd_step"): "in-place SGD through nn.sgd_update",
    ("split", "split_train_step"): "a SplitFed round's whole-model local_epoch steps",
}

# Top-level tables of member names that the program reads through getattr:
# (file stem, table) -> the (module, class) whose members the entries (a
# dict's keys, or a tuple's items) name.
READ_BY_NAME = {
    ("protocol", "_ATTACK_CONFIG"): ("config", "ExperimentConfig"),   # build_attack
    ("workloads", "DIGEST_FIELDS"): ("protocol", "RoundRecord"),      # the pass digest
}

# Members no code reads as an attribute.
UNREAD_ON_PURPOSE = {
    ("split", "SplitModel", "server_params"): "where the tests observe the round",
    ("protocol", "RoundInfo", "benign_rows"): "where the tests observe the round",
    ("protocol", "RoundRecord", "wall_ms"): "per-round time, which ROADMAP item 2's trace will read",
}

# Defaults no call overrides.
UNSET_ON_PURPOSE = {
    ("cli", "main", "argv"): "the tests pass their own argv",
    ("nn", "finite_diff_grad", "h"): "the oracle's step, which the tests set",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def _program(modules):
    """(file stem, own module name or None, AST) of every file in src/ and
    bench/."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        own = path.stem if path.parent == PACKAGE and path.stem in modules else None
        yield path.stem, own, modules[own] if own else ast.parse(path.read_text(), str(path))


def _tables(stem, tree):
    """(stem, table) -> its string entries, for each READ_BY_NAME table that
    the file defines at its top level."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (stem, node.targets[0].id) in READ_BY_NAME):
            value = node.value
            entries = value.keys if isinstance(value, ast.Dict) else value.elts
            out[stem, node.targets[0].id] = {e.value for e in entries}
    return out


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


class _Resolver:
    """What a bare name or `module.name` in one program file refers to."""

    def __init__(self, tree, modules, own):
        self.names, self.aliases = _imports(tree, modules)
        self.own = own
        self.own_defs = _public_defs(modules[own]) if own else set()

    def resolve(self, node):
        """(module, name) of a package top-level name, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body  # a string annotation
        if isinstance(node, ast.BinOp):  # `X | None`
            return self.resolve(node.left) or self.resolve(node.right)
        if isinstance(node, ast.Name):
            if node.id in self.names:
                return self.names[node.id]
            if node.id in self.own_defs:
                return self.own, node.id
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in self.aliases):
            return self.aliases[node.value.id], node.attr
        return None

    def modules(self):
        """The package modules the file is or imports from."""
        return ({m for m, _ in self.names.values()} | set(self.aliases.values())
                | {self.own} - {None})


def _references(tree, resolver, own):
    """Yield (module, name) for every reference in the file to a package
    module's top-level name outside that name's own definition."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)):
                target = resolver.resolve(node)
                if target and target != (own, owner):
                    yield target


def _classes(modules):
    """(module, class) -> the public methods, properties and annotated fields
    of every public package class."""
    out = {}
    for m, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            names |= {node.target.id for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
            out[m, cls.name] = {n for n in names if not n.startswith("_")}
    return out


def _reads(tree, resolver, classes):
    """Yield (module, class, member) for every attribute read in the file."""
    reachable = resolver.modules()

    def visit(node, types, cls=None):
        """cls is the class whose body node sits in directly, if any."""
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            types = dict(types)
            for i, arg in enumerate(args):
                target = resolver.resolve(arg.annotation) if arg.annotation else None
                if i == 0 and cls:
                    target = cls   # self
                if target in classes:
                    types[arg.arg] = target
                else:
                    types.pop(arg.arg, None)
        cls = (resolver.own, node.name) if isinstance(node, ast.ClassDef) else None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            known = (types.get(node.value.id) if isinstance(node.value, ast.Name)
                     else None)
            if known and node.attr in classes[known]:
                yield known + (node.attr,)
            else:
                for (m, name), members in classes.items():
                    if m in reachable and node.attr in members:
                        yield m, name, node.attr
        for child in ast.iter_child_nodes(node):
            yield from visit(child, types, cls)

    yield from visit(tree, {})


def _defaults(modules):
    """(module, function, parameter) -> position, for every parameter with a
    default of a public top-level function; None for a keyword-only one."""
    out = {}
    for m, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                out[m, fn.name, positional[i].arg] = i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[m, fn.name, arg.arg] = None
    return out


def _passed(tree, resolver, defaults):
    """Yield (module, function, parameter) for every defaulted parameter a
    call in the file passes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolver.resolve(node.func)
        if target is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        for (m, fn, param), pos in defaults.items():
            if (m, fn) == target and (
                    None in keywords or param in keywords
                    or pos is not None and (starred or pos < len(node.args))):
                yield m, fn, param


def _scan():
    """(public, used, members, read, defaults, passed) over the program."""
    modules = _modules()
    classes = _classes(modules)
    defaults = _defaults(modules)
    used, read, passed = set(), set(), set()
    for stem, own, tree in _program(modules):
        resolver = _Resolver(tree, modules, own)
        used.update(_references(tree, resolver, own))
        read.update(_reads(tree, resolver, classes))
        read.update(READ_BY_NAME[table] + (name,)
                    for table, names in _tables(stem, tree).items() for name in names)
        passed.update(_passed(tree, resolver, defaults))
    public = {(m, name) for m, tree in modules.items() for name in _public_defs(tree)}
    members = {key + (name,) for key, names in classes.items() for name in names}
    return public, used, members, read, set(defaults), passed


def test_the_package_root_binds_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    public = sorted(name for name in bound if not name.startswith("_"))
    assert public == [], f"__init__.py binds {public}; import them from their modules"
    assert "__version__" in bound


def test_every_public_name_is_used_by_the_program():
    public, used, *_ = _scan()
    unused = sorted(f"{m}.{name}" for m, name in public - used - set(UNUSED_ON_PURPOSE))
    assert not unused, f"public names that no code in src/ or bench/ uses: {unused}"


def test_every_public_member_is_read_by_the_program():
    _, _, members, read, *_ = _scan()
    unread = sorted(".".join(key) for key in members - read - set(UNREAD_ON_PURPOSE))
    assert not unread, f"members that no code in src/ or bench/ reads: {unread}"


def test_every_default_is_overridden_by_the_program():
    *_, defaults, passed = _scan()
    unset = sorted("{}.{}({})".format(*key)
                   for key in defaults - passed - set(UNSET_ON_PURPOSE))
    assert not unset, f"parameters that no call in src/ or bench/ passes: {unset}"


def test_the_exceptions_are_public_and_unused():
    public, used, members, read, defaults, passed = _scan()
    assert set(UNUSED_ON_PURPOSE) <= public - used
    assert set(UNREAD_ON_PURPOSE) <= members - read
    assert set(UNSET_ON_PURPOSE) <= defaults - passed


def test_each_read_by_name_table_is_defined_and_names_members():
    modules = _modules()
    classes = _classes(modules)
    tables = {}
    for stem, _, tree in _program(modules):
        tables.update(_tables(stem, tree))
    assert set(tables) == set(READ_BY_NAME), "a READ_BY_NAME table is gone or renamed"
    for table, names in tables.items():
        assert names and names <= classes[READ_BY_NAME[table]], (table, names)

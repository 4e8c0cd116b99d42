"""Source hygiene of the package, read with ast: every top-level import is
used by its module, every module-level private name is used somewhere in
src/, every public name of the lab modules is read outside tests, every
public function is named outside tests, box tet sets, tet DOFs and
far-block SVDs are each read from one module, and foreign-function
and BLAS bindings live in one."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hmaxwell"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def dotted(node):
    """'a.b.c' for a Name or an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def loaded_paths(tree):
    """Every dotted name read anywhere in the module."""
    return {path for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(getattr(node, "ctx", None), ast.Load)
            and (path := dotted(node)) is not None}


def imported(tree):
    """(what must be read, source line) per top-level import binding: the
    alias or bound name, or the full dotted path of a plain 'import a.b'."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import) and alias.asname is None:
                    yield alias.name, node.lineno
                else:
                    yield alias.asname or alias.name, node.lineno


def test_every_top_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # re-exports
        used = loaded_paths(tree)
        for binding, line in imported(tree):
            if not any(path == binding or path.startswith(binding + ".")
                       for path in used):
                unused.append(f"{name}:{line} {binding}")
    assert not unused, unused


def definitions(tree):
    """(name, line) per module-level name bound by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno


def test_every_private_module_name_is_used():
    reads = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    dead = [f"{name}:{line} {priv}" for name, tree in MODULES.items()
            for priv, line in definitions(tree)
            if priv.startswith("_") and not priv.startswith("__")
            and priv not in reads]
    assert not dead, dead


def read_names(tree):
    """Every bare name and attribute name the module reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


# name -> the one module of src/ that may read it
HOMES = {"tets_intersecting_box": "harmonic.py", "tets_inside_box": "harmonic.py",
         "conforming_tets": "harmonic.py", "inside_tets": "harmonic.py",
         "edge_to_dof": "fem.py", "truncated_svd": "hmatrix.py"}


def test_box_tets_and_tet_dofs_have_one_home():
    """Only harmonic.py runs the tet-box tests, so a box's tet sets come
    from its harmonic.Region; only fem.py reads DofMap.edge_to_dof, so a
    tet's DOFs come from DofMap.tet_dofs; only hmatrix.py reads
    truncated_svd, so every far-block SVD comes from owned_svds."""
    strays = [f"{module} {name}" for module, tree in MODULES.items()
              for name in sorted(read_names(tree) & HOMES.keys())
              if HOMES[name] != module]
    assert not strays, strays


def test_foreign_functions_have_one_home():
    """Only blas.py imports ctypes, reads a Cython __pyx_capi__ capsule
    table or names scipy's get_blas_funcs, by import, attribute, bare name
    or string, so every binding to a compiled library outside numpy and
    scipy's LAPACK wrappers sits in one module, and a BLAS routine has one
    route into the package."""
    strays = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            strays += [f"{module}:{node.lineno} {name}" for name in names
                       if (name.split(".")[0] == "ctypes"
                           or name in ("__pyx_capi__", "get_blas_funcs"))
                       and module != "blas.py"]
    assert not strays, strays
    blas_reads = read_names(MODULES["blas.py"])
    assert {"ctypes", "__pyx_capi__"} <= blas_reads


def test_every_public_name_of_the_lab_modules_is_read():
    """A public module-level name of hmatrix or inverse_lab is read in src/
    (re-exports in __init__.py do not count), in demos/, or is a function
    bench/tracing.py wraps; anything else is API that only tests call."""
    root = SRC.parents[1]
    reads = set()
    for name, tree in MODULES.items():
        if name != "__init__.py":
            reads |= read_names(tree)
    for path in sorted((root / "demos").glob("*.py")):
        reads |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    tracing = ast.parse((root / "bench" / "tracing.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tracing.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["SPAN_TARGETS"])
    reads.update(fn for _, names in targets.values() for fn in names)
    unread = [f"{module}:{line} {name}"
              for module in ("hmatrix.py", "inverse_lab.py")
              for name, line in definitions(MODULES[module])
              if not name.startswith("_") and name not in reads]
    assert not unread, unread


def named(tree):
    """Count of each name the tree reads, or spells as a whole string
    constant (bench/tracing.py names its targets as strings)."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_every_public_function_is_named_outside_tests():
    """A public top-level function of any module is named, outside its own
    body, in src/ (re-exports in __init__.py do not count), in demos/ or in
    bench/*.py; anything else is API that only tests call."""
    root = SRC.parents[1]
    trees = [tree for name, tree in MODULES.items() if name != "__init__.py"]
    trees += [ast.parse(path.read_text(encoding="utf-8"))
              for folder in ("demos", "bench")
              for path in sorted((root / folder).glob("*.py"))]
    counts = sum(map(named, trees), Counter())
    unnamed = [f"{module}:{node.lineno} {node.name}"
               for module, tree in MODULES.items() if module != "__init__.py"
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")
               and counts[node.name] <= named(node)[node.name]]
    assert not unnamed, unnamed


def test_every_keyword_default_is_set_outside_tests():
    """A parameter with a default, of any function in src/, is set by some
    call in src/, demos/ or bench/*.py, by name or by position; a call
    through *args or **kwargs sets every parameter. A default that only
    tests override is a fixed value, and belongs in a module constant."""
    root = SRC.parents[1]
    trees = list(MODULES.values())
    trees += [ast.parse(path.read_text(encoding="utf-8"))
              for folder in ("demos", "bench")
              for path in sorted((root / folder).glob("*.py"))]
    set_by = {}       # function name -> positions and keywords some call sets
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                seen = set_by.setdefault(name, set())
                if (any(isinstance(arg, ast.Starred) for arg in call.args)
                        or any(kw.arg is None for kw in call.keywords)):
                    seen.add("*")
                seen.update(range(len(call.args)))
                seen.update(kw.arg for kw in call.keywords)
    unset = []
    for module, tree in MODULES.items():
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and "staticmethod" not in map(dotted, fn.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            seen = set_by.get(fn.name, set())
            args = fn.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(fn) in methods else 0  # self is not passed
            defaulted = [(arg, i - skip) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(arg, None) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unset += [f"{module}:{fn.lineno} {fn.name}({arg.arg}=)"
                      for arg, pos in defaulted
                      if "*" not in seen and pos not in seen
                      and arg.arg not in seen]
    assert not unset, unset

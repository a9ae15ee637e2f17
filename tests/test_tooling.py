"""Checks on the package source itself."""

import argparse
import ast
import os
import subprocess
import sys

import extremal_lie
from extremal_lie import cli

PACKAGE_DIR = os.path.dirname(os.path.abspath(extremal_lie.__file__))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the callers that count as uses of a package function besides the package
# itself: bench/ reaches code that no command does (see UNCALLED_ALLOWED)
CALLER_DIRS = [os.path.join(REPO_DIR, "bench")]


def test_no_assert_statements_in_package():
    """Invariants raise typed exceptions: ``assert`` vanishes under ``python -O``."""
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _bare_runtime_errors(package_dir):
    """``file:line`` of each ``raise RuntimeError``, called or not, in
    ``package_dir``/*.py."""
    found = []
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                        found.append("%s:%d" % (name, node.lineno))
    return found


def test_no_bare_runtime_error_in_package():
    """An invariant raises a typed exception of its module's error family,
    which a caller can catch without catching every other runtime error."""
    assert _bare_runtime_errors(PACKAGE_DIR) == []


def test_bare_runtime_error_guard_finds_each_case(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Typed(RuntimeError):\n    pass\n\n\n"
        "def a():\n    raise RuntimeError('called')\n\n\n"
        "def b():\n    raise RuntimeError\n\n\n"
        "def fine():\n    try:\n        raise Typed('x')\n    except RuntimeError:\n        raise\n\n\n"
        "class K:\n    def c(self):\n        raise RuntimeError('in a method') from None\n"
    )
    (tmp_path / "notes.txt").write_text("raise RuntimeError('x')\n")
    assert _bare_runtime_errors(str(tmp_path)) == ["m.py:6", "m.py:10", "m.py:22"]


def test_invariants_hold_under_python_O():
    """Under ``python -O`` a bad table still raises JacobiViolation, and a
    malformed command still exits 2 with one stderr line."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    script = (
        "import sys\n"
        "from extremal_lie.liealg import JacobiViolation, LieAlgebra\n"
        "from extremal_lie.scalars import QQ\n"
        "assert False, 'asserts are stripped'\n"
        "try:\n"
        "    LieAlgebra(QQ, ['a', 'b', 'c'], {(0, 1): {2: 1}, (0, 2): {0: 1}})\n"
        "except JacobiViolation as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 Jacobi fails on basis triple (0, 1, 2)\n"
    argv = [sys.executable, "-O", "-m", "extremal_lie.cli", "radicals", "--type", "A2", "--char", "4"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr


def test_cli_import_starts_no_process_pool():
    """Each command runs in one process: importing the CLI loads no
    ``multiprocessing`` or ``concurrent`` module."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    script = (
        "import sys\n"
        "import extremal_lie.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _report_checks_that_cannot_fail(path):
    """Lines of ``rep.add(name, expected, actual)`` calls whose expected
    expression contains the actual one (``X.get(r, actual)``, ``actual``
    itself), of ``rep.add_bool(name, True)`` calls, and of ``add`` or
    ``add_bool`` calls whose name literal says "(reported)": a value that is
    only reported goes to ``rep.report``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in ("add", "add_bool") and node.args and any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "(reported)" in sub.value
            for sub in ast.walk(node.args[0])
        ):
            found.append(node.lineno)
        elif node.func.attr == "add" and len(node.args) == 3:
            actual = ast.dump(node.args[2])
            if any(ast.dump(sub) == actual for sub in ast.walk(node.args[1])):
                found.append(node.lineno)
        elif node.func.attr == "add_bool" and len(node.args) == 2:
            ok = node.args[1]
            if isinstance(ok, ast.Constant) and ok.value is True:
                found.append(node.lineno)
    return sorted(found)


def test_report_checks_can_fail():
    """Every check of a report compares with a value the check did not
    compute; a value without an independent source goes to ``reported``."""
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            found += ["%s:%d" % (name, line) for line in _report_checks_that_cannot_fail(os.path.join(PACKAGE_DIR, name))]
    assert found == []


def test_report_check_guard_finds_each_pattern(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "rep.add('a', X.get(r, q.total_dim), q.total_dim)\n"
        "rep.add('b', dims['x'], dims['x'])\n"
        "rep.add_bool('c', True)\n"
        "rep.add('d', X[r], q.total_dim)\n"
        "rep.add_bool('e', False)\n"
        "rep.add_bool('f', ok)\n"
        "seen.add(x)\n"
        "rep.add_bool('g %d (reported)' % r, ok)\n"
        "rep.add('h (reported)', X[r], q.total_dim)\n"
        "rep.report('i (reported)', ok)\n"
    )
    assert _report_checks_that_cannot_fail(str(path)) == [1, 2, 3, 8, 9]


def test_package_init_holds_only_its_docstring():
    """There is no package-level API: the modules are imported by name, and
    the command line is the interface, so ``__init__`` re-exports nothing."""
    with open(os.path.join(PACKAGE_DIR, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    assert ast.get_docstring(tree) and len(tree.body) == 1


# Module-level functions and methods that nothing in src/ or bench/ calls,
# kept on purpose, each with its reason
UNCALLED_ALLOWED = {
    "solve_in_span": "a span target of bench/spans.py, which reports a missing target as absent",
    "root_exponential": "a span target of bench/spans.py, which reports a missing target as absent",
    "charpoly": "a span target of bench/spans.py; tests/helpers.dense_phi_spectrum_check uses it",
    "_Parser.error": "argparse calls this override of ArgumentParser.error",
    "ChevalleyConstants.N": "the constants by root pair, on which tests/test_rootdata.py checks the sign rules",
}


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes as ``Class.method``, with the name a use would
    write."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item.name


def _parsed_sources(package_dir, other_dirs):
    """(path, AST) of each ``*.py`` file directly in ``package_dir`` and in
    each of ``other_dirs``."""
    for d in [package_dir] + list(other_dirs):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), filename=path)


def _uncalled_functions(package_dir, other_dirs):
    """Module-level functions, classes and methods (see ``_definitions``) of
    ``package_dir``/*.py that no module of the package or of ``other_dirs``
    names, by a name, an attribute or an import, outside its own definition.
    A method counts as named only by an attribute: a local variable of the
    same name is not a use.  Re-exports in ``__init__.py`` are not uses."""
    defined, named, attributes = [], set(), set()
    for path, tree in _parsed_sources(package_dir, other_dirs):
        if os.path.basename(path) == "__init__.py":
            continue
        if os.path.dirname(path) == package_dir:
            defined += [(os.path.basename(path), qual, name) for qual, name in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return [
        "%s:%s" % (mod, qual)
        for mod, qual, name in defined
        if name not in attributes and ("." in qual or name not in named)
    ]


def test_every_package_function_has_a_caller():
    """ROADMAP aim 2: no functions or classes that nothing uses.  Code only
    the tests use lives in tests/helpers."""
    uncalled = _uncalled_functions(PACKAGE_DIR, CALLER_DIRS)
    assert sorted(u for u in uncalled if u.split(":")[1] not in UNCALLED_ALLOWED) == []
    assert {u.split(":")[1] for u in uncalled} == set(UNCALLED_ALLOWED)  # no stale entry
    assert all(reason.strip() for reason in UNCALLED_ALLOWED.values())


def test_uncalled_function_guard_finds_each_case(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text("from .a import exported\n")
    (pkg / "a.py").write_text(
        "def exported():\n    pass\n\n\ndef called():\n    pass\n\n\ndef by_attribute():\n    pass\n\n\n"
        "def by_bench():\n    pass\n\n\ndef recursive():\n    return recursive\n\n\n"
        "class K:\n    def __init__(self):\n        self.by_self()\n\n"
        "    def by_self(self):\n        return called()\n\n"
        "    @property\n    def prop(self):\n        pass\n\n"
        "    def unused(self):\n        return self.prop\n\n"
        "    def shadowed(self):\n        pass\n\n\n"
        "class Planted(ValueError):\n    pass\n"
    )
    (pkg / "b.py").write_text("from . import a\n\nx = a.by_attribute\ny = a.K()\nshadowed = 1\n")
    (bench / "d.py").write_text("from pkg.a import by_bench\n")
    assert _uncalled_functions(str(pkg), [str(bench)]) == [
        "a.py:exported", "a.py:K.unused", "a.py:K.shadowed", "a.py:Planted",
    ]


# Parameters with a default that no call in src/ or bench/ sets,
# kept on purpose, each with its reason
UNSET_ALLOWED = {
    "_CoverEngine.extra_consistency": "the all-rows reference mode the engine tests compare with",
    "_CoverEngine.sandwich": "False is the free mode whose Witt and necklace dimensions the tests check",
    "assoc_dims_via_embedding.field": "GF(p) tests set it; a --char for tables would too",
    "root_exponential.s": "root_exponential is a span target of bench/spans.py, kept as it is",
    "structural_subspaces.raising": "structural_subspaces is a span target of bench/spans.py, kept as it is",
}


def _defaulted_parameters(tree):
    """(``Qual.param``, the name a call writes, position in a call or None)
    of each parameter with a default of a module-level function or of a
    method of a module-level class.  ``__init__`` is called by the class
    name, and its parameters are ``Class.param``; other dunder methods are
    not called by name, and are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            units = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            units = []
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                bound = 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list) else 1
                if item.name == "__init__":
                    units.append((node.name, node.name, item, bound))
                elif not (item.name.startswith("__") and item.name.endswith("__")):
                    units.append(("%s.%s" % (node.name, item.name), item.name, item, bound))
        else:
            continue
        for qual, callee, fn, bound in units:
            args = fn.args
            positional = args.posonlyargs + args.args
            for k in range(len(positional) - len(args.defaults), len(positional)):
                yield "%s.%s" % (qual, positional[k].arg), callee, positional[k].arg, k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield "%s.%s" % (qual, arg.arg), callee, arg.arg, None


def _unset_parameters(package_dir, other_dirs):
    """``module:Qual.param`` of each parameter of ``_defaulted_parameters``
    in ``package_dir``/*.py that no call in the package or in ``other_dirs``
    sets.  A call is matched by the name it writes (``f(...)`` or
    ``x.f(...)``); it sets a parameter by keyword, by position, or through
    ``*args`` (every position from the star on) or ``**kwargs`` (every
    parameter)."""
    defined, calls = [], {}
    for path, tree in _parsed_sources(package_dir, other_dirs):
        if os.path.dirname(path) == package_dir:
            defined += [(os.path.basename(path),) + p for p in _defaulted_parameters(tree)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            star = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            calls.setdefault(name, []).append((star, star < len(node.args), {k.arg for k in node.keywords}))

    def sets(call, arg, position):
        given, starred, keywords = call
        return arg in keywords or None in keywords or (position is not None and (position < given or starred))

    return [
        "%s:%s" % (mod, qual)
        for mod, qual, callee, arg, position in defined
        if not any(sets(call, arg, position) for call in calls.get(callee, ()))
    ]


def test_every_defaulted_parameter_is_set_by_a_caller():
    """ROADMAP aim 2: a switch or input form that only the tests set does
    not belong in src/; each parameter with a default is set by some call in
    src/ or bench/, or is in ``UNSET_ALLOWED`` with its reason."""
    unset = {u.split(":")[1] for u in _unset_parameters(PACKAGE_DIR, CALLER_DIRS)}
    assert sorted(unset - set(UNSET_ALLOWED)) == []
    assert sorted(set(UNSET_ALLOWED) - unset) == []  # no stale entry
    assert all(reason.strip() for reason in UNSET_ALLOWED.values())


def test_unset_parameter_guard_finds_each_case(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "a.py").write_text(
        "def by_keyword(x, flag=False):\n    pass\n\n\n"
        "def by_position(x, n=1, m=2):\n    pass\n\n\n"
        "def by_star(x, n=1, *, k=0):\n    pass\n\n\n"
        "def by_kwargs(x, *, k=0):\n    pass\n\n\n"
        "def never(x, mode=None):\n    def inner(y, nested=1):\n        return y\n\n    return inner\n\n\n"
        "class K:\n    def __init__(self, a, b=1, c=2):\n        self.a = a\n\n"
        "    def m(self, d=3, e=4):\n        pass\n\n"
        "    @staticmethod\n    def s(d=3):\n        pass\n\n"
        "    def __eq__(self, other, strict=True):\n        pass\n"
    )
    (pkg / "b.py").write_text(
        "from . import a\n\n"
        "a.by_keyword(1, flag=True)\nby_position(1, 2)\nargs = ()\n"
        "a.by_star(1, *args)\nby_kwargs(1, **{})\n"
        "k = a.K(1, c=3)\nk.m(5)\nK.s()\n"
    )
    (bench / "d.py").write_text("from pkg.a import never\n\nnever(1)\n")
    assert _unset_parameters(str(pkg), [str(bench)]) == [
        "a.py:by_position.m", "a.py:by_star.k", "a.py:never.mode", "a.py:K.b", "a.py:K.m.e", "a.py:K.s.d",
    ]


# Functions of the package that may build a list out of ``<x>.zero``: they
# build polynomials (dense coefficient lists), not vectors
DENSE_ALLOWED = {"linalg.charpoly", "linalg.poly_mul"}


def _dense_vector_builds(package_dir):
    """``module.name`` of each function (``module.Class.method``, or
    ``module.<module>`` at module level) of ``package_dir``/*.py that
    multiplies a list holding ``<x>.zero``: a dense field vector.  A nested
    function counts for the function it is defined in."""
    found = []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name)) as fh:
            tree = ast.parse(fh.read())
        units = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units += [("%s.%s" % (node.name, getattr(item, "name", "<class>")), item) for item in node.body]
            else:
                units.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
        for qual, unit in units:
            for node in ast.walk(unit):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
                    isinstance(side, ast.List)
                    and any(isinstance(e, ast.Attribute) and e.attr == "zero" for e in side.elts)
                    for side in (node.left, node.right)
                ):
                    found.append("%s.%s" % (name[:-3], qual))
    return found


def test_no_dense_field_vectors_in_package():
    """Vectors and matrices cross layers as canonical sparse dicts (see the
    ``linalg`` docstring); only the polynomial routines build dense lists."""
    found = set(_dense_vector_builds(PACKAGE_DIR))
    assert sorted(found - DENSE_ALLOWED) == []
    assert found == DENSE_ALLOWED  # no stale entry


def test_dense_vector_guard_finds_each_case(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(f, n):\n    return [f.zero] * n\n\n\n"
        "def b(self):\n    return 3 * [self.field.zero, 1]\n\n\n"
        "class K:\n    def c(self, n):\n        return [[self.f.zero] * n for _ in range(n)]\n\n"
        "    def fine(self, n):\n        return [0] * n, [self.zero_count] * n, {0: self.f.zero}, [self.f.zero] + [1]\n\n\n"
        "def d(f, n):\n    def inner():\n        return [f.one] + [f.zero] * n\n\n    return inner\n\n\n"
        "V = [QQ.zero] * 3\n"
    )
    (tmp_path / "notes.txt").write_text("[f.zero] * n\n")
    assert _dense_vector_builds(str(tmp_path)) == ["m.a", "m.b", "m.K.c", "m.d", "m.<module>"]


# The modules of the package, lowest layer first: a module imports only
# modules before it.  ``__init__`` holds only the package docstring and comes last.
LAYERS = ("scalars", "linalg", "liealg", "nilquot", "rootdata", "chevalley", "smallgen", "rootgroups", "cli", "__init__")


def _imported_modules(node, package):
    """The modules of ``package`` that an import node names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name == package or a.name.startswith(package + ".")]
        return [(n.split(".") + ["__init__"])[1] for n in names]
    if node.level == 0:
        if node.module != package and not (node.module or "").startswith(package + "."):
            return []
        module = node.module[len(package) + 1:]
    elif node.level == 1:
        module = node.module
    else:
        return []
    return [module.split(".")[0]] if module else [a.name for a in node.names]


def _layer_violations(package_dir, layers, package):
    """``file:line module`` for each import node of ``package_dir``/*.py,
    nested ones included, that names a module of ``package`` not earlier in
    ``layers`` than its own module; and ``file:line module (nested)`` for an
    import of the package made inside a function or class, where it would
    hide an import the layers forbid at the top."""
    found = []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name)) as fh:
            tree = ast.parse(fh.read())
        below = layers[:layers.index(name[:-3])] if name[:-3] in layers else ()
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module in _imported_modules(node, package):
                if module not in below:
                    found.append("%s:%d %s" % (name, node.lineno, module))
                elif id(node) not in top:
                    found.append("%s:%d %s (nested)" % (name, node.lineno, module))
    return found


def test_imports_follow_the_layers():
    """Each module imports only the modules below it in ``LAYERS``, and
    only at module level: the library never reaches up into the CLI."""
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
    assert modules == sorted(LAYERS)
    assert _layer_violations(PACKAGE_DIR, LAYERS, "extremal_lie") == []


def test_layer_guard_finds_each_case(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("import os\nfrom . import b\n")
    (pkg / "b.py").write_text(
        "from .a import x\nimport pkg.c\n\n\ndef f():\n    from .a import y\n    return y\n"
    )
    (pkg / "c.py").write_text(
        "from pkg import a\nfrom .b import z\nfrom .. import other\nfrom .d import w\n"
        "from pkg.b import v\nimport pkg\nimport pkgs.c\n"
    )
    (pkg / "e.py").write_text("from .a import x\n")
    assert _layer_violations(str(pkg), ("a", "b", "c", "__init__"), "pkg") == [
        "a.py:2 b", "b.py:2 c", "b.py:6 a (nested)", "c.py:4 d", "c.py:6 __init__", "e.py:1 a",
    ]


def _parameter_recoercions(package_dir):
    """``module.function`` of each function of ``package_dir``/*.py that
    hands ``.element(...)`` one of its parameters, or a name that a ``for``
    loop or a comprehension binds from one: an element made again from what
    the function was handed.  A function defined in another is searched as
    part of it too, with the other's parameters."""
    found = set()
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name)) as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
            loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))]
            for _ in loops:  # a loop may iterate over what an earlier one bound
                for loop in loops:
                    if any(isinstance(n, ast.Name) and n.id in bound for n in ast.walk(loop.iter)):
                        bound.update(n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name))
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "element"
                    and any(isinstance(arg, ast.Name) and arg.id in bound for arg in node.args)
                ):
                    found.add("%s.%s" % (name[:-3], fn.name))
    return sorted(found)


def test_no_element_is_made_again_from_a_parameter():
    """``LieAlgebra.element`` makes an element from a dict, once, where the
    values come in; every other function takes the ``AlgebraElement`` it is
    handed as it is (ROADMAP aim 2, one element form)."""
    assert _parameter_recoercions(PACKAGE_DIR) == []


def test_parameter_recoercion_guard_finds_each_case(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(L, x):\n    x = L.element(x)\n    return x\n\n\n"
        "def b(L, gens):\n    return [L.element(g) for g in gens]\n\n\n"
        "def c(L, ws):\n    for i, w in enumerate(ws):\n        yield L.element(w)\n\n\n"
        "class K:\n    def d(self, v, *, L):\n        return L.element(v).coeffs\n\n\n"
        "def e(L, rows):\n    def inner():\n        return [L.element(r) for r in rows]\n\n    return inner\n\n\n"
        "def fine(L, m, span):\n    coeffs = span.solve(m)\n"
        "    return L.element(coeffs), L.element({0: m}), [L.element(r) for r in ROWS], L.elements(m)\n"
    )
    (tmp_path / "notes.txt").write_text("def f(L, x):\n    return L.element(x)\n")
    assert _parameter_recoercions(str(tmp_path)) == ["m.a", "m.b", "m.c", "m.d", "m.e"]


def _names_used(nodes):
    """Every name, attribute and imported name that occurs in ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                out.update(alias.name for alias in sub.names)
    return out


def _unreached_helpers(helpers_path, test_paths):
    """Top-level functions and classes of ``helpers_path`` that no module of
    ``test_paths`` reaches.  A test module reaches what it names, by a name,
    an attribute or an import; a reached helper reaches what its body names,
    and the module-level statements of the helpers file reach what they
    name.  A helper that only names itself is not reached."""
    with open(helpers_path) as fh:
        tree = ast.parse(fh.read(), filename=helpers_path)
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    roots = _names_used(node for node in tree.body if node not in defs.values())
    for path in test_paths:
        with open(path) as fh:
            roots |= _names_used([ast.parse(fh.read(), filename=path)])
    todo, reached = [name for name in roots if name in defs], set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for used in _names_used([defs[name]]) if used in defs]
    return [name for name in defs if name not in reached]


def test_every_test_helper_is_reached_from_a_test():
    """A function of tests/helpers.py is a reference or a check that some
    test uses, directly or through another helper; one that no test reaches
    is dead code."""
    tests_dir = os.path.join(REPO_DIR, "tests")
    test_paths = [os.path.join(tests_dir, name) for name in sorted(os.listdir(tests_dir))
                  if name.startswith("test_") and name.endswith(".py")]
    assert _unreached_helpers(os.path.join(tests_dir, "helpers.py"), test_paths) == []


def test_unreached_helper_guard_finds_each_case(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "import os\n\nTABLE = {'k': by_table}\n\n\n"
        "def direct():\n    return through()\n\n\n"
        "def through():\n    return deeper\n\n\n"
        "def deeper():\n    pass\n\n\n"
        "def by_table():\n    pass\n\n\n"
        "def by_attribute():\n    pass\n\n\n"
        "def recursive():\n    return recursive()\n\n\n"
        "def from_dead():\n    pass\n\n\n"
        "def dead():\n    return from_dead()\n\n\n"
        "class Used:\n    pass\n\n\n"
        "class Unused:\n    def direct(self):\n        pass\n"
    )
    (tmp_path / "test_a.py").write_text("from helpers import direct, Used\n\n\ndef test_x():\n    direct()\n")
    (tmp_path / "test_b.py").write_text("import helpers\n\n\ndef test_y():\n    helpers.by_attribute()\n")
    paths = [str(tmp_path / "test_a.py"), str(tmp_path / "test_b.py")]
    assert _unreached_helpers(str(tmp_path / "helpers.py"), paths) == [
        "recursive", "from_dead", "dead", "Unused",
    ]


def _names_defined(body):
    """The names that the statements ``body`` define: functions, classes and
    assignment targets, not imports."""
    out = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))
    return out


def _module_names(path):
    """The names that the module-level statements of ``path`` define."""
    with open(path) as fh:
        return _names_defined(ast.parse(fh.read(), filename=path).body)


def _shadowed_names(helpers_path, package_dir):
    """Module-level names of ``helpers_path`` that a module of
    ``package_dir`` defines too, sorted."""
    package = set()
    for name in os.listdir(package_dir):
        if name.endswith(".py"):
            package |= _module_names(os.path.join(package_dir, name))
    return sorted(_module_names(helpers_path) & package)


def test_no_test_helper_shares_a_name_with_the_package():
    """A reference in tests/helpers.py is named apart from the code it
    checks (``dense_*``, ``reference_*``), so that a test which names one
    of them reads the one it means."""
    assert _shadowed_names(os.path.join(REPO_DIR, "tests", "helpers.py"), PACKAGE_DIR) == []


def test_shadowed_name_guard_finds_each_case(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "import os\n\nTABLE = 1\n\n\ndef f():\n    pass\n\n\n"
        "class C:\n    def m(self):\n        pass\n"
    )
    (pkg / "b.py").write_text("X, Y = 1, 2\n")
    (tmp_path / "helpers.py").write_text(
        "import os\nfrom pkg.a import f\n\nTABLE = 2\nY: int = 3\n\n\n"
        "def m():\n    pass\n\n\nclass C:\n    pass\n\n\ndef g():\n    X = 1\n"
    )
    assert _shadowed_names(str(tmp_path / "helpers.py"), str(pkg)) == ["C", "TABLE", "Y"]


def _second_map_classes(helpers_path):
    """Top-level classes of ``helpers_path`` other than ``Map`` whose body
    defines both ``apply`` and ``compose``, by a def or an assignment."""
    with open(helpers_path) as fh:
        tree = ast.parse(fh.read(), filename=helpers_path)
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "Map" and {"apply", "compose"} <= _names_defined(node.body)
    ]


def test_tests_hold_one_map_class():
    """``helpers.Map`` is the one full linear map of the tests; a second
    class that applies and composes is a second form of it."""
    assert _second_map_classes(os.path.join(REPO_DIR, "tests", "helpers.py")) == []


def test_second_map_guard_finds_each_case(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "class Map:\n    def apply(self, v):\n        pass\n\n    def compose(self, o):\n        pass\n\n\n"
        "class Both:\n    def apply(self, v):\n        pass\n\n    @staticmethod\n    def compose(a, b):\n        pass\n\n\n"
        "class Aliased:\n    def apply(self, v):\n        pass\n\n    compose = apply\n\n\n"
        "class OnlyApply:\n    def apply(self, v):\n        pass\n\n\n"
        "def outer():\n    class Nested:\n        def apply(self, v):\n            pass\n\n"
        "        def compose(self, o):\n            pass\n"
    )
    assert _second_map_classes(str(tmp_path / "helpers.py")) == ["Both", "Aliased"]


# Each option of the command line, keyed (subcommand, option), "" for the
# top-level parser, with the reason it is there
CLI_OPTIONS = {
    ("", "--json"): "the machine-readable report, which the golden file and bench/ read",
    ("tables", "which"): "the table to reproduce: lr, rr or rr-lengths",
    ("tables", "--max-r"): "the largest r of the lr and rr tables, and the second spelling of --r",
    ("tables", "--r"): "the one r of the rr-lengths profile",
    ("mingen", "--type"): "the type, or a comma list of types, to certify",
    ("mingen", "--char"): "the characteristic of the field, 0 for Q",
    ("radicals", "--type"): "the type of the Chevalley algebra",
    ("radicals", "--char"): "the characteristic of the field, 0 for Q",
    ("threegen", "--edges"): "the three edge scalars of the generating triangle",
    ("threegen", "--central"): "the central scalar of the generating triangle",
    ("threegen", "--char"): "the characteristic of the field, 0 for Q",
    ("rootgroups", "--type"): "the type of the Chevalley algebra",
    ("rootgroups", "--char"): "the characteristic of the field, 0 for Q",
    ("rootgroups", "--seed"): "adds seed and -seed to the sampled root group parameters",
    ("extremal-check", "--type"): "the type of the Chevalley algebra",
    ("extremal-check", "--char"): "the characteristic of the field, 0 for Q",
}


def _parser_options(parser, command=""):
    """(subcommand, option) of each option and positional argument of
    ``parser`` and of its subparsers, ``--help`` left out; an option is
    named by its longest spelling."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _parser_options(sub, name)
        elif not isinstance(action, argparse._HelpAction):
            found.append((command, max(action.option_strings, key=len, default=action.dest)))
    return found


def _unlisted_and_stale(parser, table):
    """(the options of ``parser`` that ``table`` lacks, the entries of
    ``table`` that name no option)."""
    options = set(_parser_options(parser))
    return sorted(options - set(table)), sorted(set(table) - options)


def test_every_cli_option_has_a_reason():
    """ROADMAP aim 2: the fewest knobs.  An option is added to the command
    line together with its entry in ``CLI_OPTIONS``, and is dropped with it."""
    assert _unlisted_and_stale(cli.build_parser(), CLI_OPTIONS) == ([], [])
    assert all(reason.strip() for reason in CLI_OPTIONS.values())


def test_cli_option_guard_finds_each_case():
    ap = argparse.ArgumentParser()
    ap.add_argument("--top", action="store_true")
    sub = ap.add_subparsers(dest="command")
    p = sub.add_parser("run")
    p.add_argument("what")
    p.add_argument("-n", "--count", type=int)
    p.add_argument("--knob")
    table = {("", "--top"): "r", ("run", "what"): "r", ("run", "--count"): "r", ("run", "--gone"): "r"}
    assert _unlisted_and_stale(ap, table) == ([("run", "--knob")], [("run", "--gone")])

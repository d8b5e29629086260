"""Every name a ``src/prodimm`` module imports is used, and every name it defines is read.

A stand-in for a linter's unused-import rule, built on ``ast`` alone.  A name
counts as used when the module reads it, names it in a quoted annotation, or
lists it in ``__all__``.  A module-level function or class counts as read when
its name appears in ``src/``, ``tests/`` or ``perfbench/`` outside its own
definition.  A node is located in one place: ``np.unravel_index`` and
``np.argwhere`` appear in ``src/`` only inside ``fields.argmax_node``; and the
direction pairs are laid out in one place: ``np.triu_indices`` appears only
inside ``fields.connection_curvature``.  No function of ``structure`` or
``flatbundle`` has a parameter that defaults to None, so no check forms its
own input: each reads the F or D psi~ it is handed.  The
Minkowski pairing is written one way: no ``minkowski_dot`` call in ``src/``
has an argument indexed by ``None`` (a stack of pairings is ``minkowski_gram``),
``extract`` does not name ``eta``, and neither ``extract`` nor ``reconstruct``
names ``einsum``.  A nodewise max-abs is reduced one way: in ``structure``,
``flatbundle`` and ``reconstruct`` no ``np.abs`` result is reduced along an
axis (``np.abs(r).max(axis=(-2, -1))`` and the like); each goes through
``structure.magnitude``, which lays |r| out with the node axes last.  Every
value has one home: the datum arrays ``metric``, ``bundle``, ``sigma`` and
``psi`` are dataclass fields of ``flatbundle.Geometry`` alone, and no dataclass
stores ``p``, ``passed``, ``on_product_defect`` or ``analytic_derivatives``,
each read off its source.
An edge table is read by slices alone: in ``fields``, ``reconstruct`` and
``extract`` no ``np.take`` gathers from one, and ``np.arange`` appears only in
``ChartGrid.axis_coords``, the node coordinates, so no index array over the
edges is built; the runs away from the base are ``fields.runs_away_from``.
A rejection is raised one way: only ``ProdimmError`` defines ``__init__``, no
call passes ``index=``, and in a function that locates a node by
``argmax_node`` every raise of a package error whose message names a node
passes it as ``node=``.
The metric's inverse and its definiteness test have one home,
``fields.MetricField``: ``eigvalsh`` appears nowhere in ``src/``, and
``np.linalg.inv`` only in ``reconstruct.align_congruence``.
A report is built one way: the one class named ``*Report`` in ``src/`` is
``structure.Report``, no module defines a second record builder
(``make_record``, ``magnitude_records``, ``curvature_report``) or
``from_residuals``, and no module imports a ``_``-prefixed name from a sibling.
Each fact of a rebuild is stored once: the mesh table is read (``np.loadtxt``)
and its header laid out (``immersion_csv_header``) in ``dataio`` alone, and no
dict literal in ``src/`` has an ``on_product_defect`` key, the max of the
``reconstruction_on_product`` record.
Each stage builds its own report block and ``dataio`` alone writes the formats:
no class is named ``AlignmentResult``, a dict literal with a ``max_distance``
key appears only in ``reconstruct.align_congruence``, which builds the
alignment block, and ``structure`` defines no ``to_dict`` or ``from_dict``.
Every library option is one a command sets: each defaulted parameter of a
module-level function that ``src/`` calls by name is set by one of those calls,
by keyword or by position, the console entry point ``cli.main(argv)`` aside.
Each datum pairing has one home: a ``psi_flip`` call inside the arguments of a
``minkowski_gram`` call appears only in ``extract.induced_structure``, and
``reconstruct`` does not name ``product_normals``, since the rebuild reads its
datum through the extraction's pairings.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prodimm"


def _quoted_names(tree) -> set:
    """Names inside string annotations and ``__all__`` entries."""
    holders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            holders += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg] if a is not None]
            holders.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            holders.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            holders.append(node.value)
    names = set()
    for holder in filter(None, holders):
        for const in ast.walk(holder):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _quoted_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("import os\nfrom numpy import eye, zeros as z\n"
              "__all__ = ['eye']\ndef f(a: 'z') -> None:\n    '''os'''\n")
    assert unused_imports(source) == ["os (line 1)"]


def unread_definitions(defining: dict, readers: dict) -> list:
    """Module-level functions and classes of ``defining`` (path -> text) named nowhere else.

    Every line of ``defining`` and ``readers`` counts, except a definition's own lines.
    """
    unread = []
    for path, text in defining.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = text.splitlines()
            elsewhere = own[:start - 1] + own[node.end_lineno:]
            for other, other_text in (defining | readers).items():
                lines = elsewhere if other == path else other_text.splitlines()
                if any(word.search(line) for line in lines):
                    break
            else:
                unread.append(f"{Path(path).name}:{node.name}")
    return sorted(unread)


def test_every_src_definition_is_read():
    src = {str(path): path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path): path.read_text() for folder in ("tests", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))}
    assert unread_definitions(src, readers) == []


def test_unread_definition_is_found():
    defining = {"a.py": "@property\ndef used():\n    return 1\n\n\n"
                        "class Dead:\n    'Dead'\n"}
    assert unread_definitions(defining, {"b.py": "from a import used\n"}) == ["a.py:Dead"]


LOCATORS = ("unravel_index", "argwhere")
PAIR_LAYOUT = ("triu_indices",)


def named_sites(source: str, names: tuple, home: str | None = None) -> list:
    """Lines that name one of ``names`` outside the function ``home``."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == home for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if (getattr(n, "attr", None) in names or getattr(n, "id", None) in names)
                  and id(n) not in inside)


def _sites_outside(names, home: str) -> dict:
    """``named_sites`` of every src module, ``home`` exempt in ``fields.py``."""
    sites = {path.name: named_sites(path.read_text(), names,
                                    home if path.name == "fields.py" else None)
             for path in sorted(SRC.glob("*.py"))}
    return {name: lines for name, lines in sites.items() if lines}


def test_nodes_are_located_only_by_argmax_node():
    assert _sites_outside(LOCATORS, "argmax_node") == {}
    assert named_sites((SRC / "fields.py").read_text(), LOCATORS) != []   # the one site is seen


def test_locator_site_is_found():
    source = ("import numpy as np\nfrom numpy import argwhere\n"
              "def argmax_node(v):\n    return np.unravel_index(0, v.shape)\n"
              "def other(v):\n    return np.argwhere(v), argwhere(v)\n")
    assert named_sites(source, LOCATORS, "argmax_node") == [6, 6]


# The metric's inverse and its definiteness test have one home, the closed form of
# ``fields.MetricField``: no LAPACK eigenvalue test, and the one LU inverse in src is
# the frame map's in ``reconstruct.align_congruence``.
METRIC_ALGEBRA = {"eigvalsh": None, "inv": ("reconstruct.py", "align_congruence")}


def metric_algebra_sites(sources: dict) -> list:
    """``module:line`` of each name of ``METRIC_ALGEBRA`` outside its home function."""
    found = []
    for module, source in sources.items():
        for name, home in METRIC_ALGEBRA.items():
            exempt = home[1] if home and home[0] == module else None
            found += [f"{module}:{line}" for line in named_sites(source, (name,), exempt)]
    return sorted(found)


def test_metric_inverse_and_definiteness_live_in_metric_field():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert metric_algebra_sites(sources) == []
    assert named_sites(sources["reconstruct.py"], ("inv",)) != []   # the one LU inverse


def test_metric_algebra_site_is_found():
    fields = ("import numpy as np\nclass MetricField:\n    def __post_init__(self):\n"
              "        eigs = np.linalg.eigvalsh(self.values)\n"
              "        self.inverse = np.linalg.inv(self.values)\n")
    reconstruct = ("import numpy as np\nfrom numpy.linalg import inv\n"
                   "def align_congruence(a, b):\n    return b @ np.linalg.inv(a)\n"
                   "def verify(g):\n    return inv(g)\n")
    assert metric_algebra_sites({"fields.py": fields, "reconstruct.py": reconstruct}) == [
        "fields.py:4", "fields.py:5", "reconstruct.py:6"]


def test_direction_pairs_are_laid_out_only_by_connection_curvature():
    assert _sites_outside(PAIR_LAYOUT, "connection_curvature") == {}
    assert named_sites((SRC / "fields.py").read_text(), PAIR_LAYOUT) != []   # the one site


def test_pair_layout_site_is_found():
    source = ("import numpy as np\n"
              "def connection_curvature(grid):\n    return np.triu_indices(grid.ndim, 1)\n"
              "def expand_pairs(grid):\n    m, k = np.triu_indices(grid.ndim, 1)\n")
    assert named_sites(source, PAIR_LAYOUT, "connection_curvature") == [5]


# Names a module must not use, beyond the broadcast pairing that no module may write:
# extraction lowers by ``lorentz.lower`` alone, and neither it nor the rebuild
# writes a matrix product as ``einsum``.
BANNED = {"extract.py": ("eta", "einsum"), "reconstruct.py": ("einsum",)}


def pairing_sites(source: str, banned=()) -> list:
    """Lines of ``banned`` names and of ``minkowski_dot`` calls with an argument indexed by None."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        named = {getattr(node, key, None) for key in ("id", "attr", "name")}
        if named & set(banned):
            lines.append(node.lineno)
        if isinstance(node, ast.Call) and {getattr(node.func, key, None)
                                           for key in ("id", "attr")} & {"minkowski_dot"}:
            if any(isinstance(sub, ast.Constant) and sub.value is None
                   for arg in node.args for item in ast.walk(arg)
                   if isinstance(item, ast.Subscript) for sub in ast.walk(item.slice)):
                lines.append(node.lineno)
    return sorted(lines)


def test_one_pairing_idiom():
    sites = {path.name: pairing_sites(path.read_text(), BANNED.get(path.name, ()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_pairing_site_is_found():
    source = ("import numpy as np\nfrom .lorentz import eta, minkowski_dot\n"
              "def f(x, y):\n    a = minkowski_dot(x[..., :, None, :], y)\n"
              "    b = minkowski_dot(x, y[0]) + minkowski_dot(x[1:], y)\n"
              "    c = lorentz.minkowski_dot(x, y[None])\n"
              "    return np.einsum('ij->ji', eta(2)), a, b, c\n")
    assert pairing_sites(source, ("eta", "einsum")) == [2, 4, 6, 7, 7]
    assert pairing_sites(source) == [4, 6]


def none_defaults(source: str) -> list:
    """``function(parameter)`` for each parameter that defaults to None: an optional
    input, which the function or one it calls would have to form itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = (list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                     + list(zip(args.kwonlyargs, args.kw_defaults)))
            found += [f"{node.name}({a.arg})" for a, d in pairs
                      if isinstance(d, ast.Constant) and d.value is None]
    return sorted(found)


@pytest.mark.parametrize("name", ["structure.py", "flatbundle.py"])
def test_no_check_forms_its_own_input(name):
    assert none_defaults((SRC / name).read_text()) == []


def test_none_default_is_found():
    source = ("def f(geom, curv=None, tol=1e-8):\n    return curv, tol\n"
              "def g(geom, *, d=None, e=1, k):\n    if d is None:\n        d = form(geom)\n"
              "    return d, e, k\n")
    assert none_defaults(source) == ["f(curv)", "g(d)"]


NODEWISE = ("structure.py", "flatbundle.py", "reconstruct.py")
REDUCERS = {"max", "min", "sum", "mean", "amax", "amin", "reduce"}


def abs_axis_reductions(source: str) -> list:
    """Lines reducing an ``np.abs`` result along an axis, directly or through a name bound
    to one in the same function: ``np.abs(r).max(axis=-1)``, ``np.max(np.abs(r), -1)``,
    ``m.sum(axis=0)`` after ``m = np.abs(r)``.  A whole-array reduction is not one."""
    def abs_call(node):
        return isinstance(node, ast.Call) and \
            getattr(node.func, "attr", getattr(node.func, "id", None)) == "abs"

    tree = ast.parse(source)
    lines = set()
    for scope in [tree] + [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]:
        bound = {t.id for node in ast.walk(scope) if isinstance(node, ast.Assign)
                 and abs_call(node.value) for t in node.targets if isinstance(t, ast.Name)}

        def is_abs(node):
            return abs_call(node) or isinstance(node, ast.Name) and node.id in bound
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in REDUCERS):
                continue
            axis = any(k.arg == "axis" for k in node.keywords)
            if is_abs(node.func.value) and (axis or node.args):
                lines.add(node.lineno)
            elif node.args and is_abs(node.args[0]) and (
                    axis or len(node.args) > 1 or node.func.attr == "reduce"):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", NODEWISE)
def test_nodewise_max_abs_goes_through_magnitude(name):
    assert abs_axis_reductions((SRC / name).read_text()) == []


def test_abs_axis_reduction_site_is_found():
    source = ("import numpy as np\n"
              "def f(r, n):\n"
              "    a = np.abs(r).max(axis=(-2, -1))\n"
              "    m = np.abs(r)\n"
              "    b = m.max(axis=tuple(range(n, m.ndim)), initial=0.0)\n"
              "    c = np.max(np.abs(r), -1) + np.abs(r).sum(0)\n"
              "    d = np.abs(r).max() + m.sum() + np.max(abs(r))\n"
              "    return np.maximum.reduce(np.abs(r)), a, b, c, d\n"
              "def g(r):\n"
              "    return r.max(axis=-1), magnitude(r, 2).max(axis=0)\n")
    assert abs_axis_reductions(source) == [3, 5, 6, 8]


DATUM = ("metric", "bundle", "sigma", "psi")
# k + m - n, max <= threshold, a record's max, whether the immersion has a derivative evaluator
READ_OFF = ("p", "passed", "on_product_defect", "analytic_derivatives")


def dataclass_fields(source: str) -> dict:
    """{class name: its annotated class-body names} of every ``@dataclass`` class."""
    def is_dataclass(deco):
        target = deco.func if isinstance(deco, ast.Call) else deco
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return {node.name: [item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))}


def stored_copies(sources: dict) -> list:
    """``module:Class.field`` for a datum field outside ``flatbundle.Geometry`` or a stored
    value of ``READ_OFF``, over ``sources`` (module name -> text)."""
    found = []
    for module, source in sources.items():
        for cls, names in dataclass_fields(source).items():
            home = (module, cls) == ("flatbundle.py", "Geometry")
            found += [f"{module}:{cls}.{name}" for name in names
                      if name in READ_OFF or (name in DATUM and not home)]
    return sorted(found)


def test_every_value_has_one_home():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert stored_copies(sources) == []
    assert dataclass_fields(sources["flatbundle.py"])["Geometry"] == list(DATUM)   # the home


def test_stored_copy_is_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Data:\n    grid: int\n    p: int\n"
              "    psi: object\n    def f(self):\n        sigma: int = 0\n"
              "@dataclasses.dataclass\nclass Rec:\n    passed: bool\n"
              "@dataclass(frozen=True)\nclass Extraction:\n    analytic_derivatives: bool\n"
              "class Plain:\n    metric: object\n    on_product_defect: float\n")
    home = "from dataclasses import dataclass\n@dataclass\nclass Geometry:\n    psi: object\n"
    assert stored_copies({"a.py": source, "flatbundle.py": home}) == [
        "a.py:Data.p", "a.py:Data.psi", "a.py:Extraction.analytic_derivatives", "a.py:Rec.passed"]
    assert stored_copies({"a.py": home}) == ["a.py:Geometry.psi"]


EDGE_INDEXING = ("take", "arange")
SWEEP_MODULES = ("fields.py", "reconstruct.py", "extract.py")


def test_edge_tables_are_read_by_slices():
    sites = {name: named_sites((SRC / name).read_text(), EDGE_INDEXING, "axis_coords")
             for name in SWEEP_MODULES}
    assert {name: lines for name, lines in sites.items() if lines} == {}
    assert named_sites((SRC / "fields.py").read_text(), EDGE_INDEXING) != []   # axis_coords


def test_edge_index_site_is_found():
    source = ("import numpy as np\n"
              "def axis_coords(self, axis):\n"
              "    return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])\n"
              "def _away_from(base_index, count):\n"
              "    j = np.arange(count - 1)\n"
              "    near = j + (j < base_index)\n"
              "    return near, 2 * j + 1 - near\n"
              "def path_independence_residual(ops, base, dims, a, b):\n"
              "    na, fa = (np.take(ops[a], i, axis=b) for i in _away_from(base[b], dims[b]))\n"
              "    nb, fb = (np.take(ops[b], i, axis=a) for i in _away_from(base[a], dims[a]))\n"
              "    return na, fa, nb, fb\n")
    assert named_sites(source, EDGE_INDEXING, "axis_coords") == [5, 9, 10]


def rejection_sites(sources: dict) -> list:
    """Breaches of the one rejection idiom over ``sources`` (module name -> text).

    ``errors.py:Class.__init__`` for a constructor of a package error other
    than ``ProdimmError``'s; ``module:line`` for a call that passes ``index=``,
    and for a raise of a package error whose message names a node but that
    passes no ``node=``, in a function that locates one by ``argmax_node``.
    """
    errors = ast.parse(sources["errors.py"])
    package_errors = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = [f"errors.py:{cls.name}.__init__" for cls in errors.body
             if isinstance(cls, ast.ClassDef) and cls.name != "ProdimmError"
             and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in cls.body)]

    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    def names_a_node(message):
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        return any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                   and re.search(r"\bnode\b", part.value) for part in parts)

    for module, source in sources.items():
        tree = ast.parse(source)
        lines = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and any(k.arg == "index" for k in node.keywords)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or not any(
                    isinstance(n, ast.Call) and called(n) == "argmax_node" for n in ast.walk(func)):
                continue
            lines |= {node.lineno for node in ast.walk(func)
                      if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                      and called(node.exc) in package_errors and node.exc.args
                      and names_a_node(node.exc.args[0])
                      and not any(k.arg == "node" for k in node.exc.keywords)}
        found += [f"{module}:{line}" for line in sorted(lines)]
    return found


def test_one_rejection_idiom():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert rejection_sites(sources) == []


def test_rejection_site_is_found():
    errors = ("class ProdimmError(Exception):\n    def __init__(self, message, node=None):\n"
              "        self.node = node\n"
              "class DimensionError(ProdimmError):\n    pass\n"
              "class ConstraintError(ProdimmError):\n    pass\n"
              "class DegeneracyError(ProdimmError):\n"
              "    def __init__(self, message, index=None):\n        self.index = index\n")
    planted = (
        "def check_values(grid, values, slot_shape):\n"                                   # 1
        "    if values.shape != grid.dims + slot_shape:\n"
        "        raise DimensionError(f'values of shape {values.shape}')\n"
        "    if not np.isfinite(values).all():\n"
        "        raise DimensionError(f'non-finite value at node {argmax_node(values)}')\n"  # 5
        "class BundleData:\n"
        "    def __post_init__(self):\n"
        "        node = argmax_node(skew.max(axis=(-3, -2, -1)))\n"
        "        raise DimensionError(f'connection not skew in the orthonormal gauge by '\n"
        "                             f'{skew.max():.3e} at node {node}')\n"               # 10
        "class SecondFormField:\n"
        "    def __post_init__(self):\n"
        "        node = argmax_node(sym.max(axis=(-3, -2, -1)))\n"
        "        raise DimensionError(f'second form asymmetric by {sym.max()} at node {node}')\n"
        "def immersion_points(imm, grid):\n"                                              # 15
        "    node = argmax_node(bad)\n"
        "    raise ConstraintError(f'immersion {reason} at node {node}')\n"
        "def induced_normal_frame(imm, grid):\n"
        "    node = argmax_node(bad)\n"
        "    raise DegeneracyError(f'tangent vectors rank-deficient at node {node}', index=node)\n"
        "def elsewhere(bad):\n"                                                            # 21
        "    raise DimensionError(f'first bad node {bad}')\n")
    assert rejection_sites({"errors.py": errors, "fields.py": planted}) == [
        "errors.py:DegeneracyError.__init__", "fields.py:5", "fields.py:9", "fields.py:14",
        "fields.py:17", "fields.py:20"]


RETIRED_BUILDERS = ("make_record", "magnitude_records", "curvature_report", "from_residuals")


def report_layer_sites(sources: dict) -> list:
    """The report classes and the breaches of the one report layer over ``sources``.

    ``module:Class`` for every class named ``*Report``; ``module:name`` for a
    function or method named in ``RETIRED_BUILDERS``; ``module:line:name`` for
    a ``_``-prefixed name imported from a sibling module (a relative import or
    one from ``prodimm``).
    """
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Report") or \
                    isinstance(node, ast.FunctionDef) and node.name in RETIRED_BUILDERS:
                found.append(f"{module}:{node.name}")
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "prodimm"):
                found += [f"{module}:{node.lineno}:{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return sorted(found)


def test_one_report_layer():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert report_layer_sites(sources) == ["structure.py:Report"]


def test_report_layer_site_is_found():
    structure = ("@dataclass(frozen=True)\nclass ResidualReport:\n    records: tuple\n"
                 "def make_record(name, residual, grid, threshold):\n    return None\n"
                 "def magnitude_records(grid, tolerances, *named):\n    return None\n"
                 "def curvature_report(grid, tolerances, name, block):\n    return None\n")
    dataio = ("from .structure import ResidualReport\n"
              "class Report(ResidualReport):\n"
              "    @classmethod\n    def from_residuals(cls, grid, *reports):\n        return cls()\n"
              "def _take(doc, key):\n    return doc[key]\n")
    cli = ("from __future__ import annotations\nfrom . import dataio\n"
           "from .dataio import Report, _take\nfrom prodimm.fields import _neighbours\n"
           "from numpy import _private\n")
    assert report_layer_sites({"structure.py": structure, "dataio.py": dataio, "cli.py": cli}) \
        == ["cli.py:3:_take", "cli.py:4:_neighbours", "dataio.py:Report",
            "dataio.py:from_residuals", "structure.py:ResidualReport",
            "structure.py:curvature_report", "structure.py:magnitude_records",
            "structure.py:make_record"]


# The mesh format has one home, ``dataio``; the on-product defect is its record's max.
MESH_FORMAT = ("loadtxt", "immersion_csv_header")
RECORD_COPIES = ("on_product_defect",)


def rebuild_copy_sites(sources: dict) -> list:
    """``module:line`` of a ``MESH_FORMAT`` name (read or imported) outside ``dataio.py``, and
    of a dict literal with a ``RECORD_COPIES`` key anywhere, over ``sources`` (module -> text)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            names = {getattr(node, "attr", None), getattr(node, "id", None),
                     node.name if isinstance(node, ast.alias) else None}
            keys = node.keys if isinstance(node, ast.Dict) else ()
            if names & set(MESH_FORMAT) and module != "dataio.py" or any(
                    isinstance(key, ast.Constant) and key.value in RECORD_COPIES for key in keys):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_each_rebuild_fact_has_one_home():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert rebuild_copy_sites(sources) == []
    assert named_sites(sources["dataio.py"], MESH_FORMAT) != []   # the one home


def test_rebuild_copy_site_is_found():
    dataio = ("import numpy as np\ndef immersion_csv_header(k, size):\n    return []\n"
              "def load_rebuild(text):\n    return np.loadtxt(text)\n")
    cli = ("import numpy as np\nfrom numpy import loadtxt\n"
           "from .dataio import immersion_csv_header\n"
           "def cmd_align(path):\n    return np.loadtxt(path), loadtxt(path)\n")
    reconstruct = ("def reconstruct_immersion(report):\n"
                   "    block = {'k': 1, **{}, 'on_product_defect': report.max_abs}\n"
                   "    return block | dict(on_product_defect=0.0), {'on_product': 1}\n")
    assert rebuild_copy_sites({"dataio.py": dataio + reconstruct, "cli.py": cli,
                               "reconstruct.py": reconstruct}) == [
        "cli.py:2", "cli.py:3", "cli.py:5", "cli.py:5", "dataio.py:7", "reconstruct.py:2"]


# The alignment block is built by its stage; the formats are written in ``dataio``.
RETIRED_RESULTS = ("AlignmentResult",)
BLOCK_HOMES = {"max_distance": ("reconstruct.py", "align_congruence")}
SERIALIZERS = ("to_dict", "from_dict")


def format_home_sites(sources: dict) -> list:
    """Breaches of the homes of the alignment block and the formats over ``sources``.

    ``module:Class`` for a class named in ``RETIRED_RESULTS``; ``module:line`` for
    a dict literal with a ``BLOCK_HOMES`` key outside its home function;
    ``structure.py:name`` for a function or method named in ``SERIALIZERS``.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        homes = {key: {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                       and (module, f.name) == home for n in ast.walk(f)}
                 for key, home in BLOCK_HOMES.items()}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in RETIRED_RESULTS or \
                    module == "structure.py" and isinstance(node, ast.FunctionDef) \
                    and node.name in SERIALIZERS:
                found.append(f"{module}:{node.name}")
            elif isinstance(node, ast.Dict) and any(
                    isinstance(key, ast.Constant) and key.value in BLOCK_HOMES
                    and id(node) not in homes[key.value] for key in node.keys):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_each_block_and_format_has_one_home():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert format_home_sites(sources) == []
    home = next(f for f in ast.walk(ast.parse(sources["reconstruct.py"]))
                if isinstance(f, ast.FunctionDef) and f.name == "align_congruence")
    assert any(isinstance(n, ast.Dict) for n in ast.walk(home))   # the one block literal


def test_format_home_site_is_found():
    structure = ("@dataclass(frozen=True)\nclass ToleranceModel:\n"
                 "    def to_dict(self):\n        return {}\n"
                 "    @classmethod\n    def from_dict(cls, d):\n        return cls()\n")
    reconstruct = ("@dataclass(frozen=True)\nclass AlignmentResult:\n    max_distance: float\n"
                   "def align_congruence(t, d):\n    return {'max_distance': d, 'isometry': t}\n")
    cli = ("def _alignment_block(alignment):\n"
           "    return {'max_distance': alignment.max_distance}\n"
           "def to_dict(report):\n    return {'alignment': {}}\n")
    assert format_home_sites({"structure.py": structure, "reconstruct.py": reconstruct,
                              "cli.py": cli}) == [
        "cli.py:2", "reconstruct.py:AlignmentResult", "structure.py:from_dict",
        "structure.py:to_dict"]


# Every library option is one a command sets; the console entry point is exempt.
ENTRY_POINTS = (("cli.py", "main"),)


def unset_defaults(sources: dict) -> list:
    """``module:function(parameter)`` for each defaulted parameter of a module-level function
    of ``sources`` (module -> text) that they call by name but no such call sets, by keyword
    or by position.  A ``*`` or ``**`` splat sets nothing."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(node.func.id, []).append(node)
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in calls \
                    or (module, fn.name) in ENTRY_POINTS:
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            set_here = set()
            for call in calls[fn.name]:
                plain = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                             len(call.args))
                set_here |= {a.arg for a in positional[:plain]} | {k.arg for k in call.keywords}
            found += [f"{module}:{fn.name}({a.arg})" for a in defaulted if a.arg not in set_here]
    return sorted(found)


def test_every_library_option_is_set_by_a_caller():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unset_defaults(sources) == []


def test_unset_default_is_found():
    extract = ("def fixture(name, grid=None, **params):\n    return name\n"
               "def unused(a=1):\n    return a\n")
    reconstruct = "def rebuild(geom, tol, base=None, *, seed=None, rot=None):\n    return geom\n"
    cli = ("def main(argv=None):\n    return 0\n"
           "def cmd(args):\n    fixture('F1', **args)\n    rebuild(args, 1, seed=2)\n"
           "    rebuild(*args, rot=3)\n    return main()\n")
    assert unset_defaults({"extract.py": extract, "reconstruct.py": reconstruct,
                           "cli.py": cli}) == ["extract.py:fixture(grid)",
                                               "reconstruct.py:rebuild(base)"]


# Each datum pairing has one home: psi is paired with the rows in the extraction alone,
# and the rebuild reads its datum through it, never from the product's normals.
PSI_PAIRING_HOME = ("extract.py", "induced_structure")
REBUILD_UNNAMED = ("product_normals",)


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in {getattr(node.func, key, None)
                                                   for key in ("id", "attr")}


def datum_pairing_sites(sources: dict) -> list:
    """``module:line`` of a ``psi_flip`` call inside the arguments of a ``minkowski_gram`` call
    outside ``PSI_PAIRING_HOME``, and of a ``REBUILD_UNNAMED`` name in ``reconstruct.py``,
    over ``sources`` (module -> text)."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        home = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and (module, f.name) == PSI_PAIRING_HOME for n in ast.walk(f)}
        for node in ast.walk(tree):
            if _calls(node, "minkowski_gram"):
                found += [f"{module}:{sub.lineno}"
                          for arg in node.args + [kw.value for kw in node.keywords]
                          for sub in ast.walk(arg)
                          if _calls(sub, "psi_flip") and id(sub) not in home]
            if module == "reconstruct.py" and {getattr(node, "attr", None), getattr(
                    node, "id", None), getattr(node, "name", None)} & set(REBUILD_UNNAMED):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_each_datum_pairing_has_one_home():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert datum_pairing_sites(sources) == []
    assert datum_pairing_sites({"extract.py": sources["extract.py"].replace(
        "def induced_structure", "def moved")}) != []   # the one home is seen


def test_datum_pairing_site_is_found():
    extract = ("def induced_structure(k, rows):\n"
               "    return minkowski_gram(rows, psi_flip(rows, k))\n"
               "def other(k, rows):\n    return lorentz.minkowski_gram(lorentz.psi_flip(rows, k),"
               " rows)\n")
    reconstruct = ("from .lorentz import minkowski_gram, product_normals, psi_flip\n"
                   "def verify(points, rows, k):\n"
                   "    xi1, xi2 = lorentz.product_normals(points, k)\n"
                   "    flipped = psi_flip(rows, k)\n"
                   "    return minkowski_gram(rows, b=[psi_flip(rows, k)]), flipped\n")
    assert datum_pairing_sites({"extract.py": extract, "reconstruct.py": reconstruct}) == [
        "extract.py:4", "reconstruct.py:1", "reconstruct.py:3", "reconstruct.py:5"]

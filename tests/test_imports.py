"""Architecture rules of ``src/prodimm``, read off its syntax trees (``ast``) alone.

The rules "name X appears in ``src`` only inside Y" are the rows of ``HOMES``, each
with its one-line reason.  One scanner, ``mentions``, reads every row: a mention is a
``Name``, an ``Attribute``, an import alias or a ``def``/``class`` name, or for a "key"
row the string key of a dict literal.  Each row is run over ``src`` (nothing outside
its home, and the home is seen) and over its planted breach in ``BREACHES``; a new rule
of this kind is one row plus its planted breach.  The rules of another shape keep a
scanner each, with a planted breach each: unused imports, unread definitions, the
pairing idiom, None defaults, abs-axis reductions, stored copies, the rejection idiom,
the report layer, unset defaults, the datum pairing and the ``dataio`` imports.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prodimm"
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


class Home(NamedTuple):
    """``names`` appear in ``src`` only inside ``home``, in the modules of ``scope``.

    ``home`` is () for nowhere, ``(module,)`` or ``(module, function)``; ``scope`` () is
    every module; ``kind`` "key" reads ``names`` as string keys of dict literals.
    """
    why: str
    names: tuple
    home: tuple = ()
    scope: tuple = ()
    kind: str = "name"


HOMES = {
    "locators": Home("a node is located one way", ("unravel_index", "argwhere"),
                     ("fields.py", "argmax_node")),
    "pair_layout": Home("the direction pairs are laid out once", ("triu_indices",),
                        ("fields.py", "connection_curvature")),
    "definiteness": Home("the metric's definiteness test is the closed form of "
                         "fields.MetricField", ("eigvalsh",)),
    "inverse": Home("the metric's inverse is MetricField's; the one LU inverse is the frame "
                    "map's", ("inv",), ("reconstruct.py", "align_congruence")),
    "extract_pairing": Home("extraction lowers by lorentz.lower and writes no einsum",
                            ("eta", "einsum"), scope=("extract.py",)),
    "rebuild_einsum": Home("the rebuild writes no matrix product as einsum", ("einsum",),
                           scope=("reconstruct.py",)),
    "edge_indexing": Home("an edge table is read by slices; the one index array is the node "
                          "coordinates", ("take", "arange"), ("fields.py", "axis_coords"),
                          ("fields.py", "reconstruct.py", "extract.py")),
    "mesh_format": Home("the mesh table is read and its header laid out in dataio",
                        ("loadtxt", "immersion_csv_header"), ("dataio.py",)),
    "on_product_defect": Home("the on-product defect is the max of its record, not a stored "
                              "entry", ("on_product_defect",), kind="key"),
    "alignment_block": Home("the alignment block is built by its stage", ("max_distance",),
                            ("reconstruct.py", "align_congruence"), kind="key"),
    "retired": Home("a report is built one way: no second record builder or result class",
                    ("make_record", "magnitude_records", "curvature_report", "from_residuals",
                     "AlignmentResult")),
    "serializers": Home("dataio alone writes the formats", ("to_dict", "from_dict"),
                        scope=("structure.py",)),
    "product_normals": Home("the rebuild reads its datum through the extraction's pairings",
                            ("product_normals",), scope=("reconstruct.py",)),
}


def _named(node, kind: str) -> set:
    """What ``node`` mentions: for ``kind`` "key" the string keys of a dict literal, else an
    import alias, a ``def`` or ``class`` name, a Name or an Attribute."""
    if kind == "key":
        return {key.value for key in node.keys if isinstance(key, ast.Constant)} \
            if isinstance(node, ast.Dict) else set()
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    return {getattr(node, "id", None), getattr(node, "attr", None)}


def mentions(row: Home, sources: dict) -> tuple:
    """``module:line`` of each mention of ``row.names`` in the scope of ``row`` over ``sources``
    (module -> text): (those outside the row's home, those inside it)."""
    outside, inside = [], []
    for module, source in sources.items():
        if row.scope and module not in row.scope:
            continue
        tree = ast.parse(source)
        homes = [tree] if row.home == (module,) else [
            f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (module, f.name) == row.home]
        own = {id(n) for home in homes for n in ast.walk(home)}
        for node in ast.walk(tree):
            if _named(node, row.kind) & set(row.names):
                (inside if id(node) in own else outside).append((module, node.lineno))
    return tuple([f"{module}:{line}" for module, line in sorted(sites)]
                 for sites in (outside, inside))


@pytest.mark.parametrize("rule", HOMES)
def test_names_live_only_in_their_home(rule):
    outside, inside = mentions(HOMES[rule], SOURCES)
    assert outside == [], HOMES[rule].why
    assert inside or not HOMES[rule].home   # the home is seen


LOCATOR_BREACH = ("import numpy as np\nfrom numpy import argwhere\n"
                  "def argmax_node(v):\n    return np.unravel_index(0, v.shape)\n"
                  "def other(v):\n    return np.argwhere(v), argwhere(v)\n")
PAIR_LAYOUT_BREACH = (
    "import numpy as np\n"
    "def connection_curvature(grid):\n    return np.triu_indices(grid.ndim, 1)\n"
    "def expand_pairs(grid):\n    m, k = np.triu_indices(grid.ndim, 1)\n")
METRIC_ALGEBRA_BREACH = {
    "fields.py": ("import numpy as np\nclass MetricField:\n    def __post_init__(self):\n"
                  "        eigs = np.linalg.eigvalsh(self.values)\n"
                  "        self.inverse = np.linalg.inv(self.values)\n"),
    "reconstruct.py": ("import numpy as np\nfrom numpy.linalg import inv\n"
                       "def align_congruence(a, b):\n    return b @ np.linalg.inv(a)\n"
                       "def verify(g):\n    return inv(g)\n")}
PAIRING_BREACH = ("import numpy as np\nfrom .lorentz import eta, minkowski_dot\n"
                  "def f(x, y):\n    a = minkowski_dot(x[..., :, None, :], y)\n"
                  "    b = minkowski_dot(x, y[0]) + minkowski_dot(x[1:], y)\n"
                  "    c = lorentz.minkowski_dot(x, y[None])\n"
                  "    return np.einsum('ij->ji', eta(2)), a, b, c\n")
EDGE_INDEX_BREACH = (
    "import numpy as np\n"
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
_REBUILD_RECONSTRUCT = ("def reconstruct_immersion(report):\n"
                        "    block = {'k': 1, **{}, 'on_product_defect': report.max_abs}\n"
                        "    return block | dict(on_product_defect=0.0), {'on_product': 1}\n")
REBUILD_COPY_BREACH = {
    "dataio.py": ("import numpy as np\ndef immersion_csv_header(k, size):\n    return []\n"
                  "def load_rebuild(text):\n    return np.loadtxt(text)\n" + _REBUILD_RECONSTRUCT),
    "cli.py": ("import numpy as np\nfrom numpy import loadtxt\n"
               "from .dataio import immersion_csv_header\n"
               "def cmd_align(path):\n    return np.loadtxt(path), loadtxt(path)\n"),
    "reconstruct.py": _REBUILD_RECONSTRUCT}
FORMAT_HOME_BREACH = {
    "structure.py": ("@dataclass(frozen=True)\nclass ToleranceModel:\n"
                     "    def to_dict(self):\n        return {}\n"
                     "    @classmethod\n    def from_dict(cls, d):\n        return cls()\n"),
    "reconstruct.py": ("@dataclass(frozen=True)\nclass AlignmentResult:\n    max_distance: float\n"
                       "def align_congruence(t, d):\n"
                       "    return {'max_distance': d, 'isometry': t}\n"),
    "cli.py": ("def _alignment_block(alignment):\n"
               "    return {'max_distance': alignment.max_distance}\n"
               "def to_dict(report):\n    return {'alignment': {}}\n")}
REPORT_LAYER_BREACH = {
    "structure.py": ("@dataclass(frozen=True)\nclass ResidualReport:\n    records: tuple\n"
                     "def make_record(name, residual, grid, threshold):\n    return None\n"
                     "def magnitude_records(grid, tolerances, *named):\n    return None\n"
                     "def curvature_report(grid, tolerances, name, block):\n    return None\n"),
    "dataio.py": ("from .structure import ResidualReport\n"
                  "class Report(ResidualReport):\n"
                  "    @classmethod\n    def from_residuals(cls, grid, *reports):\n"
                  "        return cls()\n"
                  "def _take(doc, key):\n    return doc[key]\n"),
    "cli.py": ("from __future__ import annotations\nfrom . import dataio\n"
               "from .dataio import Report, _take\nfrom prodimm.fields import _neighbours\n"
               "from numpy import _private\n")}
DATUM_PAIRING_BREACH = {
    "extract.py": ("def induced_structure(k, rows):\n"
                   "    return minkowski_gram(rows, psi_flip(rows, k))\n"
                   "def other(k, rows):\n"
                   "    return lorentz.minkowski_gram(lorentz.psi_flip(rows, k), rows)\n"),
    "reconstruct.py": ("from .lorentz import minkowski_gram, product_normals, psi_flip\n"
                       "def verify(points, rows, k):\n"
                       "    xi1, xi2 = lorentz.product_normals(points, k)\n"
                       "    flipped = psi_flip(rows, k)\n"
                       "    return minkowski_gram(rows, b=[psi_flip(rows, k)]), flipped\n")}

# rule -> (planted sources, the mentions outside the rule's home they hold)
BREACHES = {
    "locators": ({"fields.py": LOCATOR_BREACH}, ["fields.py:2", "fields.py:6", "fields.py:6"]),
    "pair_layout": ({"fields.py": PAIR_LAYOUT_BREACH}, ["fields.py:5"]),
    "definiteness": (METRIC_ALGEBRA_BREACH, ["fields.py:4"]),
    "inverse": (METRIC_ALGEBRA_BREACH, ["fields.py:5", "reconstruct.py:2", "reconstruct.py:6"]),
    "extract_pairing": ({"extract.py": PAIRING_BREACH},
                        ["extract.py:2", "extract.py:7", "extract.py:7"]),
    "rebuild_einsum": ({"reconstruct.py": PAIRING_BREACH, "extract.py": PAIRING_BREACH},
                       ["reconstruct.py:7"]),
    "edge_indexing": ({"fields.py": EDGE_INDEX_BREACH, "lorentz.py": EDGE_INDEX_BREACH},
                      ["fields.py:5", "fields.py:9", "fields.py:10"]),
    "mesh_format": (REBUILD_COPY_BREACH, ["cli.py:2", "cli.py:3", "cli.py:5", "cli.py:5"]),
    "on_product_defect": (REBUILD_COPY_BREACH, ["dataio.py:7", "reconstruct.py:2"]),
    "alignment_block": (FORMAT_HOME_BREACH, ["cli.py:2"]),
    "retired": ({**REPORT_LAYER_BREACH, "reconstruct.py": FORMAT_HOME_BREACH["reconstruct.py"]},
                ["dataio.py:4", "reconstruct.py:2", "structure.py:4", "structure.py:6",
                 "structure.py:8"]),
    "serializers": (FORMAT_HOME_BREACH, ["structure.py:3", "structure.py:6"]),
    "product_normals": (DATUM_PAIRING_BREACH, ["reconstruct.py:1", "reconstruct.py:3"]),
}


@pytest.mark.parametrize("rule", HOMES)
def test_planted_breach_is_found(rule):
    sources, found = BREACHES[rule]
    outside, inside = mentions(HOMES[rule], sources)
    assert outside == found
    assert bool(inside) == bool(HOMES[rule].home)   # each planted source holds its home


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


@pytest.mark.parametrize("name", SOURCES)
def test_src_module_uses_every_import(name):
    assert unused_imports(SOURCES[name]) == []


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
    readers = {str(path): path.read_text() for folder in ("tests", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))}
    assert unread_definitions(SOURCES, readers) == []


def test_unread_definition_is_found():
    defining = {"a.py": "@property\ndef used():\n    return 1\n\n\n"
                        "class Dead:\n    'Dead'\n"}
    assert unread_definitions(defining, {"b.py": "from a import used\n"}) == ["a.py:Dead"]


def pairing_sites(source: str) -> list:
    """Lines of ``minkowski_dot`` calls with an argument indexed by None: a stack of pairings
    is ``minkowski_gram``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and {getattr(node.func, key, None)
                                           for key in ("id", "attr")} & {"minkowski_dot"}:
            if any(isinstance(sub, ast.Constant) and sub.value is None
                   for arg in node.args for item in ast.walk(arg)
                   if isinstance(item, ast.Subscript) for sub in ast.walk(item.slice)):
                lines.append(node.lineno)
    return sorted(lines)


def test_one_pairing_idiom():
    sites = {name: pairing_sites(source) for name, source in SOURCES.items()}
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_pairing_site_is_found():
    assert pairing_sites(PAIRING_BREACH) == [4, 6]


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
    assert none_defaults(SOURCES[name]) == []


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
    assert abs_axis_reductions(SOURCES[name]) == []


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
    assert stored_copies(SOURCES) == []
    assert dataclass_fields(SOURCES["flatbundle.py"])["Geometry"] == list(DATUM)   # the home


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
    assert rejection_sites(SOURCES) == []


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


def report_layer_sites(sources: dict) -> list:
    """The report classes and the breaches of the one report layer over ``sources``.

    ``module:Class`` for every class named ``*Report``; ``module:line:name`` for a
    ``_``-prefixed name imported from a sibling module (a relative import or one from
    ``prodimm``).
    """
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Report"):
                found.append(f"{module}:{node.name}")
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "prodimm"):
                found += [f"{module}:{node.lineno}:{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return sorted(found)


def test_one_report_layer():
    assert report_layer_sites(SOURCES) == ["structure.py:Report"]


def test_report_layer_site_is_found():
    assert report_layer_sites(REPORT_LAYER_BREACH) == [
        "cli.py:3:_take", "cli.py:4:_neighbours", "dataio.py:Report",
        "structure.py:ResidualReport"]


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
    assert unset_defaults(SOURCES) == []


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


# psi is paired with the rows in the extraction alone
PSI_PAIRING_HOME = ("extract.py", "induced_structure")


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in {getattr(node.func, key, None)
                                                   for key in ("id", "attr")}


def datum_pairing_sites(sources: dict) -> list:
    """``module:line`` of a ``psi_flip`` call inside the arguments of a ``minkowski_gram`` call
    outside ``PSI_PAIRING_HOME``, over ``sources`` (module -> text)."""
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
    return sorted(found)


def test_each_datum_pairing_has_one_home():
    assert datum_pairing_sites(SOURCES) == []
    assert datum_pairing_sites({"extract.py": SOURCES["extract.py"].replace(
        "def induced_structure", "def moved")}) != []   # the one home is seen


def test_datum_pairing_site_is_found():
    assert datum_pairing_sites(DATUM_PAIRING_BREACH) == ["extract.py:4", "reconstruct.py:5"]


# ``dataio`` holds the formats alone: the package modules it may import.
DATAIO_IMPORTS = {"errors", "fields", "flatbundle", "structure"}


def package_imports(source: str) -> list:
    """The ``prodimm`` modules ``source`` imports, relatively or by the package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "prodimm"):
            module = (node.module or "").removeprefix("prodimm").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("prodimm.")}
    return sorted(found)


def test_dataio_imports_the_formats_alone():
    imported = package_imports(SOURCES["dataio.py"])
    assert imported and set(imported) <= DATAIO_IMPORTS, imported


def test_package_import_is_found():
    source = ("import numpy as np\nimport prodimm.lorentz\nfrom .errors import SchemaError\n"
              "from . import extract\nfrom prodimm.reconstruct import align\n"
              "from prodimm import cli\nfrom numpy.linalg import inv\n")
    assert package_imports(source) == ["cli", "errors", "extract", "lorentz", "reconstruct"]

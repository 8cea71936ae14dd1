"""Rules on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import lumpedq

SOURCE = Path(lumpedq.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the quantizers of one transmon and of one line, in ``analysis``
STAGE_6_QUANTIZERS = {"_transmon_subsystem", "_line_subsystem"}
# the assembly and the eigensolve of the composite Hamiltonian
STAGE_7_SOLVERS = {"build_full_hamiltonian", "diagonalize"}


def numpy_linalg_uses(tree: ast.AST) -> list[str]:
    """Names reached through numpy.linalg in a parsed module: attributes of
    ``np.linalg`` / ``numpy.linalg`` and imports from it."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend("linalg" for alias in node.names if alias.name == "linalg")
        elif isinstance(node, ast.Import):
            found.extend("linalg" for alias in node.names if alias.name == "numpy.linalg")
    return found


def test_numpy_linalg_uses_are_seen():
    tree = ast.parse("import numpy as np\nnp.linalg.eigh(a)\nfrom numpy.linalg import inv\n"
                     "from numpy import linalg\nraise np.linalg.LinAlgError\n")
    assert sorted(numpy_linalg_uses(tree)) == ["LinAlgError", "eigh", "inv", "linalg"]


def test_dense_linear_algebra_uses_one_lapack():
    """numpy and scipy each bundle their own OpenBLAS, with a thread pool
    each; alternating between them makes each pool wait on the other. All
    dense linear algebra goes through scipy.linalg, and numpy.linalg is
    reached only for its exception class."""
    offenders = {
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in numpy_linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
        if name != "LinAlgError"
    }
    assert not offenders, sorted(offenders)


def scipy_imports(tree: ast.AST, package: str) -> list[str]:
    """Modules under ``package`` (``scipy.optimize``, say) that a parsed
    module imports, with ``from scipy import optimize`` counted as
    scipy.optimize."""
    def under(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names if under(alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if under(node.module):
                found.append(node.module)
            elif node.module == "scipy":
                found.extend(package for alias in node.names if under(f"scipy.{alias.name}"))
    return found


def test_scipy_optimize_imports_are_seen():
    tree = ast.parse("import scipy.optimize\nfrom scipy.optimize import brentq\n"
                     "from scipy import optimize, linalg\ndef f():\n"
                     "    from scipy.optimize._zeros_py import brentq\n")
    assert scipy_imports(tree, "scipy.optimize") == [
        "scipy.optimize", "scipy.optimize", "scipy.optimize", "scipy.optimize._zeros_py"]


def test_no_scipy_optimize_import():
    """scipy.optimize costs about 15 MB of resident memory to import, and
    lumpedq solves every root with its own routine (``roots.brent_root``)."""
    offenders = {
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in scipy_imports(ast.parse(path.read_text(encoding="utf-8")), "scipy.optimize")
    }
    assert not offenders, sorted(offenders)


def test_scipy_sparse_imports_are_seen():
    tree = ast.parse("import scipy.sparse as sp\nimport scipy.sparse.linalg\n"
                     "from scipy.sparse.csgraph import connected_components\n"
                     "from scipy import sparse, linalg\nimport scipy.sparsetools\n"
                     "def f():\n    from scipy.sparse import csr_array\n")
    assert scipy_imports(tree, "scipy.sparse") == [
        "scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.sparse",
        "scipy.sparse"]


def test_no_scipy_sparse_import():
    """Each cell condenses its private pads, so the device matrices are a
    few nodes and dense; scipy.sparse would cost about 5 MB of resident
    memory to import."""
    offenders = {
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in scipy_imports(ast.parse(path.read_text(encoding="utf-8")), "scipy.sparse")
    }
    assert not offenders, sorted(offenders)


def referrers(tree: ast.Module, names: set[str]) -> set[tuple[str, str]]:
    """(top-level definition, name) of each read of one of ``names`` in a
    parsed module, the definition being "<module>" for a read outside one."""
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        found.update((owner, node.id) for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id in names
                     and isinstance(node.ctx, ast.Load))
    return found


def test_subsystem_quantizer_referrers_are_seen():
    tree = ast.parse("def a():\n    _line_subsystem(x)\n"
                     "def b():\n    def inner():\n        return _transmon_subsystem\n"
                     "f = _line_subsystem\n_transmon_subsystem = None\n")
    assert referrers(tree, STAGE_6_QUANTIZERS) == {
        ("a", "_line_subsystem"), ("b", "_transmon_subsystem"), ("<module>", "_line_subsystem")}


def test_one_stage_6_path():
    """In ``analysis``, only ``_quantize_subsystem`` quantizes a transmon or
    a line: it is the one reader of a subsystem's C_eff or port loadings off
    a circuit's blocks, and a build and a swap both go through it, so no
    driver keeps a private stage 6."""
    tree = ast.parse((SOURCE / "analysis.py").read_text(encoding="utf-8"))
    assert {owner for owner, _ in referrers(tree, STAGE_6_QUANTIZERS)} == {"_quantize_subsystem"}


def test_one_stage_7_path():
    """In ``analysis``, only ``_composite_model`` assembles or diagonalizes
    the composite: a build, a swap and the budget's coupling row all run
    stage 7 through it."""
    tree = ast.parse((SOURCE / "analysis.py").read_text(encoding="utf-8"))
    assert {owner for owner, _ in referrers(tree, STAGE_7_SOLVERS)} == {"_composite_model"}


def bound_names(tree: ast.Module) -> set[str]:
    """Every name a parsed module binds, at any depth: by an import, a
    definition or an assignment."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def test_bound_names_are_seen():
    tree = ast.parse('"""doc"""\nimport numpy.linalg\nfrom .a import b as c\n'
                     "def f():\n    g = 1\nclass K: pass\nx = y = 2\n")
    assert bound_names(tree) == {"numpy", "c", "f", "g", "K", "x", "y"}


def test_package_root_binds_only_the_version():
    """The modules are the API: the package root re-exports none of them."""
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    assert bound_names(tree) == {"__version__"}


def yaml_loads(tree: ast.Module) -> set[tuple[str, str]]:
    """(top-level definition, name) of each loader of PyYAML a parsed module
    reaches: an attribute of ``yaml`` whose name holds "load", or such a
    name imported from it; the definition is "<module>" outside one."""
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and "load" in node.attr
                    and isinstance(node.value, ast.Name) and node.value.id == "yaml"):
                found.add((owner, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
                found.update((owner, alias.name) for alias in node.names if "load" in alias.name)
    return found


def test_yaml_loads_are_seen():
    tree = ast.parse("import yaml\nfrom yaml import safe_load, dump\n"
                     "def f(t):\n    return yaml.load(t, Loader=yaml.CSafeLoader)\n")
    assert yaml_loads(tree) == {("<module>", "safe_load"), ("f", "load")}


def test_one_yaml_reader():
    """Only ``config.read_yaml_file`` parses YAML, so every input file is
    read with the same loader and the same errors."""
    found = {(path.name, owner)
             for path in sorted(SOURCE.glob("*.py"))
             for owner, _ in yaml_loads(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("config.py", "read_yaml_file")}


def fresh_interpreter(script: str) -> list[str]:
    """The stdout lines of ``script`` run in a new interpreter that imports
    this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split("\n")


def test_analysis_leaves_scipy_sparse_unimported(tmp_path):
    """An analysis of the shipped device, in a fresh interpreter, loads no
    module of scipy.sparse."""
    script = (
        "import sys\n"
        "from lumpedq.analysis import run_analysis\n"
        "from lumpedq.benchmark import benchmark_config\n"
        f"run_analysis(benchmark_config({str(tmp_path)!r}))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    assert fresh_interpreter(script)[0] == "[]"


def test_calibration_leaves_scipy_optimize_unimported(tmp_path):
    """A junction calibration of the shipped device, in a fresh interpreter,
    solves its loaded lines and its L_j with ``roots.brent_root`` and loads
    no module of scipy.optimize."""
    script = (
        "import sys\n"
        "from lumpedq import loadedline, roots\n"
        "from lumpedq.analysis import calibrate_junction\n"
        "from lumpedq.benchmark import benchmark_config\n"
        "calls = {'loadedline': 0, 'roots': 0}\n"
        "def spy(module):\n"
        "    solve = module.brent_root\n"
        "    def counted(*args, **kwargs):\n"
        "        calls[module.__name__.split('.')[-1]] += 1\n"
        "        return solve(*args, **kwargs)\n"
        "    module.brent_root = counted\n"
        "spy(loadedline)\n"
        "spy(roots)\n"
        f"config = benchmark_config({str(tmp_path)!r})\n"
        "calibrate_junction(config, 'j1', 5.3e9, (10e-9, 14e-9))\n"
        "print(calls['loadedline'] > 0, calls['roots'] > 0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    assert fresh_interpreter(script)[:2] == ["True True", "[]"]


def test_perfbench_span_targets_resolve():
    """The benchmark times each stage by wrapping a (module, attribute) of
    its span table at run time, so every one of them must name an attribute
    of this package. The table is imported without writing bytecode under
    ``perfbench/``."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from spans import TARGETS
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    missing = [f"{module}.{attr}" for module, attr, _ in TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert TARGETS and not missing, missing

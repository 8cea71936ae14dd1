"""Rules on the package source itself."""

import ast
from pathlib import Path

import lumpedq

SOURCE = Path(lumpedq.__file__).parent


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

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import graphbands as gb

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

# The public API.  A name retired from the package leaves this set with
# it, so a stale ``__all__`` entry or an accidental export fails here.
PUBLIC = frozenset((
    "BandList", "BondSystem", "DensitySeries", "EXAMPLE_NAMES",
    "Edge", "FundamentalCell", "GraphError", "Identification",
    "InteriorResonanceError", "MagneticGraph", "ReferenceValue",
    "VolumeEstimate", "band_intervals", "bind_lengths", "bloch_reduce",
    "bond_matrices", "build_example", "core_shape", "density",
    "dihedral_density", "effective_reflection", "from_payload",
    "lasso_reference_density", "load_graph", "mc_volume", "merge_series",
    "membership_from_phases", "save_graph", "secular_values",
    "validate_cell", "with_random_lengths",
))


def test_all_names_resolve():
    assert [name for name in gb.__all__ if not hasattr(gb, name)] == []


def test_all_has_no_duplicates():
    assert len(gb.__all__) == len(set(gb.__all__))


def test_all_is_the_public_api():
    assert set(gb.__all__) == PUBLIC


def test_namespace_is_all_plus_submodules():
    # a name imported into the package but left out of ``__all__`` is
    # public all the same; only the submodules may stand beside it
    public = {name for name in vars(gb) if not name.startswith("_")}
    extra = {name for name in public - set(gb.__all__)
             if not isinstance(getattr(gb, name), types.ModuleType)}
    assert extra == set()


def test_numpy_is_the_only_dependency():
    # a fresh interpreter, so modules loaded by other tests do not count;
    # it imports the same package directory as this test
    code = ("import sys, graphbands, graphbands.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gb.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env).stdout
    assert out.strip() == "[]"


def test_bench_tracer_boundaries_resolve(monkeypatch):
    # the benchmark's per-layer metrics wrap these names at call time; a
    # name that moves away makes them read zero instead of failing
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer.BOUNDARIES
               if not hasattr(importlib.import_module(module), attr)]
    assert tracer.BOUNDARIES and missing == []


def unused_imports(path):
    """Names bound by the top-level imports of the module at ``path`` that
    the module never reads; a name listed in its ``__all__`` counts as
    read, and ``__future__`` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    found = [(str(path.relative_to(ROOT)), name)
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for name in unused_imports(path)]
    assert found == []

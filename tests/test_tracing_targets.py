"""The benchmark reaches the package by name: its tracer wraps package
functions and its child process calls them.  A rename or removal in the
package would otherwise drop a traced layer from ``--trace 1`` silently, or
fail only when the benchmark runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, module, attr in tracing.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{span}: {module}.{attr}")
    assert not missing, missing


def test_benchmark_child_reads_resolve():
    """Every name the child imports from hedge_iep, and every attribute it
    reads off one of them (``rigid.solve_rigid``), exists."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    bound = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hedge_iep":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hedge_iep":
            for alias in node.names:
                try:  # a submodule or a module attribute, as `from ... import` finds it
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name, None)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = obj
    assert {"rigid", "pth", "weights"} <= set(bound)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and not hasattr(bound[node.value.id], node.attr)
        ):
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not missing, missing


def test_tracer_rebound_names_are_the_package_functions():
    """The tracer rebinds a traced function in every module that holds it by
    name, and the benchmark's own tests read `eigenvalues_sym` and `build_C`
    in `cli`, `repro` and `pth`: each must stay bound there, at module level,
    to the function itself."""
    from hedge_iep import cli, lambdas, numeric, pth, repro

    for mod in (cli, repro, pth):
        assert mod.eigenvalues_sym is numeric.eigenvalues_sym, mod.__name__
        assert mod.build_C is lambdas.build_C, mod.__name__

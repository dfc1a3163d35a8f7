"""The package namespace is the union of its modules' `__all__` lists, it
holds no other module but the CLI, importing it stays light, and one
function decides on a second CPU."""

import ast
import subprocess
import sys
from pathlib import Path

import tsre

MODULES = (tsre.errors, tsre.genotype, tsre.simulate, tsre.sumstats, tsre.estimators,
           tsre.engine, tsre.theory, tsre.harness)


def test_reexports_every_module_name_once():
    names = [name for module in MODULES for name in module.__all__]
    # a later star import would silently shadow an earlier module's name
    assert len(set(names)) == len(names)
    assert tsre.__all__ == [*names, "__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tsre, name) is getattr(module, name), name


def test_package_holds_only_the_reexported_modules_and_the_cli():
    # each module is the CLI or part of the public namespace, so no helper
    # layer can sit beside them unnoticed
    package = Path(tsre.__file__).resolve().parent
    found = sorted(path.stem for path in package.glob("*.py"))
    want = ["__init__", "cli", *(module.__name__.rpartition(".")[2] for module in MODULES)]
    assert found == sorted(want)


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg adds about 50 ms to a fresh `import tsre`, and only the
    # packed-GRM fit needs it, so engine._grm_sums imports it on first use
    src = Path(tsre.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tsre; "
        "print(tsre.__file__); print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = out.stdout.split()
    assert Path(where).resolve() == Path(tsre.__file__).resolve()
    assert loaded == "False"


def _threading_calls(tree, owner=""):
    """(function, callee) for each call of _spare_cpu or ThreadPoolExecutor
    under tree; function is the dotted name of the outermost enclosing def,
    or "" at module level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _threading_calls(node, owner or node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("_spare_cpu", "ThreadPoolExecutor"):
                yield owner, name
        yield from _threading_calls(node, owner)


def test_only_share_out_decides_on_a_second_cpu():
    # _share_out is the one place that asks for a spare CPU and starts a
    # helper thread, so the policy can change in one function
    package = Path(tsre.__file__).resolve().parent
    found = [
        f"{path.stem}.{owner}: {name}"
        for path in sorted(package.glob("*.py"))
        for owner, name in _threading_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(set(found)) == [
        "genotype._share_out: ThreadPoolExecutor", "genotype._share_out: _spare_cpu"
    ]

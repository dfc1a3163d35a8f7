"""The package namespace is the union of its modules' `__all__` lists, it
holds no other module but the CLI, importing it loads neither SciPy nor a
pool module, one function decides on a second CPU, only the GRM builds
standardize a whole matrix, and no import or private name is left unused."""

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


def test_import_loads_no_scipy_or_pool_module():
    # scipy.special alone adds about 0.2 s to a fresh `import tsre`, and the
    # pool modules about 25 ms, so each is imported by the one function that
    # uses it: sumstats._records, genotype._spare_cpu and _share_out,
    # harness.run_scenario and engine._grm_sums
    src = Path(tsre.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tsre; "
        "print(tsre.__file__); print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = out.stdout.splitlines()
    assert Path(where).resolve() == Path(tsre.__file__).resolve()
    assert loaded == "[]"


def _package_trees():
    package = Path(tsre.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _calls(tree, callees, owner=""):
    """(function, callee) for each call of a name in callees under tree;
    function is the name of the outermost enclosing def, or "" at module
    level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(node, callees, owner or node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in callees:
                yield owner, name
        yield from _calls(node, callees, owner)


def _package_calls(*callees):
    return sorted({
        f"{stem}.{owner}: {name}"
        for stem, tree in _package_trees().items()
        for owner, name in _calls(tree, callees)
    })


def test_only_share_out_decides_on_a_second_cpu():
    # _share_out is the one place that asks for a spare CPU and starts a
    # helper thread, so the policy can change in one function
    assert _package_calls("_spare_cpu", "ThreadPoolExecutor") == [
        "genotype._share_out: ThreadPoolExecutor", "genotype._share_out: _spare_cpu"
    ]


def test_only_the_grm_builds_standardize_the_whole_matrix():
    # every fit, tsre_estimate on genotypes included, reads the int8
    # dosages in column blocks; the float64 n x m matrix is built only for a
    # GRM, by `tsre grm` and by --grm-cutoff without --grm
    assert _package_calls("standardize") == [
        "cli._cmd_grm: standardize", "harness.estimate_real: standardize"
    ]
    dense = {"StandardizedGenotypes", "per_variant_regression", "_row_norms"}
    assert dense & _read_names(_package_trees()["engine"]) == set()


def _read_names(tree):
    """The names code under tree reads: loaded names and attribute names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def _private_definitions(tree):
    """The _x names a module defines at top level: defs, classes, constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_import_is_used():
    # a deletion that leaves its imports behind fails here; __init__ imports
    # only to re-export
    unused = []
    for stem, tree in _package_trees().items():
        if stem == "__init__":
            continue
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused += [f"{stem}: {name}" for name in names if name not in read]
    assert unused == []


def test_every_private_name_is_used():
    # a private helper that only its own definition names is dead code
    trees = _package_trees()
    read = set().union(*map(_read_names, trees.values()))
    orphans = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert orphans == []

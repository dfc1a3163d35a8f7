"""The package namespace is the union of its modules' `__all__` lists, and
importing it stays light."""

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


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg adds about 50 ms to a fresh `import tsre`, and only the
    # packed-triangle kernel needs it, so kernels imports it on first use
    src = Path(tsre.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tsre; "
        "print(tsre.__file__); print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    where, loaded = out.stdout.split()
    assert Path(where).resolve() == Path(tsre.__file__).resolve()
    assert loaded == "False"

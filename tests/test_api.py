"""The package namespace is the union of its modules' `__all__` lists."""

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

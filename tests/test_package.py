import srlab


def test_star_import_defines_every_public_name():
    # a name deleted from the package but left in __all__ breaks `import *`
    namespace: dict = {}
    exec("from srlab import *", namespace)
    assert [name for name in srlab.__all__ if name not in namespace] == []

import inspect

import taylorpde
from taylorpde import TaylorPdeError, errors


def test_every_export_resolves():
    assert [name for name in taylorpde.__all__ if not hasattr(taylorpde, name)] == []


def test_every_error_class_is_exported_and_a_taylorpde_error():
    classes = {
        name: obj
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert TaylorPdeError in classes.values()
    for name, cls in classes.items():
        assert name in taylorpde.__all__
        assert getattr(taylorpde, name) is cls
        assert issubclass(cls, TaylorPdeError)

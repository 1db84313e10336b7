"""The public names of the package resolve their own annotations."""

import inspect
import typing

import gpkrylov


def test_public_type_hints_resolve():
    """typing.get_type_hints on every function and class in __all__ and on
    the functions each class defines."""
    targets = []
    for name in gpkrylov.__all__:
        obj = getattr(gpkrylov, name)
        if inspect.isclass(obj):
            targets += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                        if inspect.isfunction(member)]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            targets.append((name, obj))
    unresolved = []
    for name, obj in targets:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert len(targets) > 40 and unresolved == []

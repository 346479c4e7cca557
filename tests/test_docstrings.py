"""Every public class and function of every ``repro`` module has a docstring:
each public class and function a module defines, and each public method,
staticmethod, classmethod and property getter of those classes. The
docstring is the one durable statement of what a public name is for.
"""

import importlib
import inspect
import pkgutil

import repro


def _documented(obj):
    doc = (obj.__doc__ or "").strip()
    # @dataclass and NamedTuple fill a missing class docstring with the
    # signature, "Name(fields...)".
    return bool(doc) and not (inspect.isclass(obj) and doc.startswith(f"{obj.__name__}("))


def _members(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr) and attr.__qualname__ == f"{cls.__qualname__}.{name}":
            yield f"{cls.__qualname__}.{name}", attr


def _undocumented():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for member, fn in _members(obj):
                    if not _documented(fn):
                        yield f"{module.__name__}.{member}"
            elif not inspect.isfunction(inspect.unwrap(obj)):
                continue
            if not _documented(obj):
                yield f"{module.__name__}.{name}"


def test_every_public_name_has_a_docstring():
    assert list(_undocumented()) == []

"""Every exception a topoclass module raises by name is one of the package's types.

Bad input is a ``SpecError`` (or, from a file, a ``ParseError`` or
``SchemaError``), so a library caller catches one type for it and the CLI
maps every error to its exit code through ``exit_code``.  ``OSError`` is the
one outside type: ``data.write_files`` re-raises a failed write under the
caller's path.

No numpy error state is held across a ``yield``: ``np.errstate`` is a
context variable, so a generator suspended inside one would silence its
consumer's overflow warnings.
"""

import ast
import builtins
from pathlib import Path

import pytest

from topoclass import errors

SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))
TYPES = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.TopoclassError)
}


def raised_types(source):
    """``(line, name)`` of each exception type raised by name in ``source``.

    ``raise Name(...)``, ``raise module.Name(...)`` and ``raise Name`` name
    a type; a bare ``raise`` and ``raise variable`` re-raise an exception
    already made.
    """
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        if isinstance(node.exc, ast.Call):
            yield node.lineno, ast.unparse(node.exc.func).rpartition(".")[2]
        elif isinstance(node.exc, ast.Name):
            builtin = getattr(builtins, node.exc.id, None)
            is_builtin_type = isinstance(builtin, type) and issubclass(builtin, BaseException)
            if node.exc.id in TYPES or is_builtin_type:
                yield node.lineno, node.exc.id


def test_the_package_has_seven_error_types():
    assert TYPES == {
        "TopoclassError",
        "SpecError",
        "ParseError",
        "SchemaError",
        "NumericalError",
        "DisconnectedError",
        "WorkerError",
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_names_a_package_error_or_oserror(path):
    stray = [
        f"{path.name}:{line} raises {name}"
        for line, name in raised_types(path.read_text(encoding="utf-8"))
        if name not in TYPES | {"OSError"}
    ]
    assert not stray


@pytest.mark.parametrize(
    "source, expected",
    [
        ("raise SpecError('x')", [(1, "SpecError")]),
        ("raise errors.SpecError('x') from exc", [(1, "SpecError")]),
        ("raise np.linalg.LinAlgError('x')", [(1, "LinAlgError")]),
        ("raise ValueError", [(1, "ValueError")]),
        ("raise IndexError(f'{i}')", [(1, "IndexError")]),
        ("try:\n    pass\nexcept OSError:\n    raise", []),
        ("raise outcome", []),
    ],
)
def test_raised_types_finds_each_form(source, expected):
    assert list(raised_types(source)) == expected


def yields_under_errstate(source):
    """Line of each ``yield`` inside the body of a ``with ...errstate(...)`` block in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and ast.unparse(item.context_expr.func).rpartition(".")[2] == "errstate"
            for item in node.items
        ):
            for inner in (sub for stmt in node.body for sub in ast.walk(stmt)):
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    yield inner.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_yield_holds_a_numpy_error_state(path):
    assert not list(yields_under_errstate(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    with np.errstate(over='ignore'):\n        yield 1", [3]),
        ("def f():\n    with np.errstate(over='ignore'):\n        x = 1\n    yield x", []),
        ("def f():\n    with a, errstate():\n        for x in y:\n            yield from x", [4]),
        ("def f():\n    with open(p) as fh:\n        yield fh", []),
    ],
)
def test_yields_under_errstate_finds_each_form(source, expected):
    assert list(yields_under_errstate(source)) == expected

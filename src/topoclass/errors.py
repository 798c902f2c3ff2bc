"""Exception types shared by all topoclass modules, each with its CLI exit code.

Bad input is a ``SpecError``, unless it came from a file (``ParseError``,
``SchemaError``); all three exit 2.  The exit-1 types report a result that
fails its contract on valid input.
"""


class TopoclassError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2  # usage, schema or input; the quality failures below set 1


class SpecError(TopoclassError):
    """An argument violates its stated constraints: shape, domain, range or configuration."""


class ParseError(TopoclassError):
    """A file could not be parsed; the message names the line and column when known."""


class SchemaError(TopoclassError):
    """File contents parsed but violate a documented schema invariant."""


class NumericalError(TopoclassError):
    """A computation produced a result outside its numerical contract."""

    exit_code = 1


class DisconnectedError(TopoclassError):
    """A neighbor graph is disconnected; lists the components found."""

    exit_code = 1

    def __init__(self, components):
        sizes = sorted((len(c) for c in components), reverse=True)
        super().__init__(
            f"graph has {len(components)} connected components (sizes {sizes}); "
            "increase k or restrict to the largest component"
        )
        self.components = components


class WorkerError(TopoclassError):
    """A worker process ended without handing back its result."""

    exit_code = 1

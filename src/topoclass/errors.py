"""Exception types shared by all topoclass modules, each with its CLI exit code."""


class TopoclassError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2  # usage, schema or input; the quality failures below set 1


class DimensionError(TopoclassError):
    """Operands have incompatible shapes or dimensions."""


class ShapeError(TopoclassError):
    """A matrix does not have the structure an operation requires."""


class SpecError(TopoclassError):
    """A generator or graph parameter violates its stated constraints."""


class ParseError(TopoclassError):
    """A file could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(TopoclassError):
    """File contents parsed but violate a documented schema invariant."""


class ConfigError(TopoclassError):
    """A training configuration is inconsistent with the net or data."""


class EmptyInputError(TopoclassError):
    """An operation that needs at least one point received none."""


class SeparationError(TopoclassError):
    """Point sets that must be disjoint overlap."""


class NumericalError(TopoclassError):
    """A computation produced a result outside its numerical contract."""

    exit_code = 1


class DomainError(TopoclassError):
    """An input lies outside the mathematical domain of the operation."""


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

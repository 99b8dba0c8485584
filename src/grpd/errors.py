"""Shared exception types and the violation record used by validators."""

from dataclasses import dataclass, field


class GrpdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GrpdError):
    """Operands have incompatible dimensions or shapes."""


class PreconditionError(GrpdError):
    """An operation was called on input that breaks its stated contract."""


class UnsupportedError(GrpdError):
    """The input is outside the validity window of the algorithm."""


class SchemaError(GrpdError):
    """A JSON description does not match the expected schema."""


@dataclass
class Violation:
    """One broken axiom, with a witness.

    `rule` is a short class name ("P1", "inverse", "ideal", ...); `witness`
    pins down where it failed; `detail` is a human-readable note.
    """

    rule: str
    witness: tuple = field(default_factory=tuple)
    detail: str = ""

    def __str__(self):
        w = ", ".join(str(x) for x in self.witness)
        out = f"[{self.rule}] at ({w})"
        if self.detail:
            out += f": {self.detail}"
        return out

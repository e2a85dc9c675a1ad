"""Structured errors raised by the checking operations.

A `FinstackError` is a witness: a condition of the paper that fails at a
named point, or bad input named by where it fails (a site file's syntax, a
reference, a bound). It carries its witness data as attributes and exposes
it as a plain dict via payload(), which is what the CLI serializes into
reports.

Each error declares its fields once, as the class attribute `fields` (the
witness names, in argument order), with a `template` for its message
formatted over them; `FinstackError` holds the one `__init__`, `payload()`
and `__reduce__` for all of them. A caller's mismatched arguments, such as
maps that do not compose or an object over another base, are no witness:
they raise `ValueError`.
"""

from __future__ import annotations


class FinstackError(Exception):
    """Base class for all structured errors in this package."""

    fields = ()        # the witness names, in argument order
    template = None    # the message, formatted over the fields

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} values "
                            f"({', '.join(self.fields)}), got {len(values)}")
        for name, value in zip(self.fields, values):
            setattr(self, name, value)
        super().__init__(self.template.format_map(vars(self)))

    def __reduce__(self):
        # pickle and copy rebuild an error from its field values
        return type(self), tuple(getattr(self, name) for name in self.fields)

    def payload(self) -> dict:
        return {name: getattr(self, name) for name in self.fields}

    def kind(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------- finset ---

class SquareNotCommuting(FinstackError):
    """Mediating pair that fails f ∘ u = g ∘ v."""

    fields = ("point", "left", "right")
    template = "square does not commute at {point!r}: {left!r} != {right!r}"


class NotCoequalized(FinstackError):
    """Candidate map that does not coequalize the given pair."""

    fields = ("point", "left", "right")
    template = "map does not coequalize at {point!r}: {left!r} != {right!r}"


# ----------------------------------------------------------- group-action ---

class NotAssociative(FinstackError):
    fields = ("a", "b", "c")
    template = "(a*b)*c != a*(b*c) at a={a!r} b={b!r} c={c!r}"


class NoUnit(FinstackError):
    template = "no two-sided unit in table"


class NoInverse(FinstackError):
    fields = ("a",)
    template = "no inverse for {a!r}"


class AssocFail(FinstackError):
    """Action fails act(g*h, x) = act(g, act(h, x))."""

    fields = ("g", "h", "x")
    template = "action associativity fails at g={g!r} h={h!r} x={x!r}"


class UnitFail(FinstackError):
    fields = ("x",)
    template = "action unit law fails at x={x!r}"


class EquivarianceFail(FinstackError):
    fields = ("g", "x")
    template = "equivariance fails at g={g!r} x={x!r}"


# ---------------------------------------------------------- site-topology ---

class CoverNotCanonical(FinstackError):
    """The target atoms no leg hits (`topology.uncovered`), as check-cover."""

    fields = ("uncovered",)
    template = "cover not canonical, misses {uncovered!r}"


class BoundExceeded(FinstackError):
    fields = ("what", "size", "bound")
    template = "{what}: size {size} exceeds bound {bound}"


# ------------------------------------------------------------------ bundle ---

class TriangleFail(FinstackError):
    """A triangle over the base or over the action target fails to commute."""

    fields = ("point", "which")
    template = "{which} triangle fails at {point!r}"


# ----------------------------------------------------------------- descent ---

class OverlapMismatch(FinstackError):
    fields = ("i", "j", "point")
    template = "locals disagree on overlap ({i},{j}) at {point!r}"


class CocycleFail(FinstackError):
    fields = ("i", "j", "k", "point")
    template = "cocycle fails on triple overlap ({i},{j},{k}) at {point!r}"


class CocycleRequired(FinstackError):
    fields = ("cause",)
    template = "datum rejected, cocycle violated: {cause}"

    def payload(self):
        return {"cause": self.cause.payload() if isinstance(self.cause, FinstackError) else str(self.cause)}


class MissingOverlapIso(FinstackError):
    """A gap no cocycle fills, raised by `descent.DescentDatum` alone."""

    fields = ("i", "j")
    template = "no overlap iso supplied for ({i},{j}) and none is forced"


# --------------------------------------------------------------------- cli ---

class SiteSyntaxError(FinstackError):
    fields = ("message", "line", "col")
    template = "{line}:{col}: {message}"


class UnresolvedReference(FinstackError):
    fields = ("name", "line", "col")
    template = "{line}:{col}: unresolved reference {name!r}"


class ValidationError(FinstackError):
    """A declaration parsed but failed its module's check on load."""

    fields = ("decl", "cause")
    template = "declaration {decl!r} invalid: {cause}"

    def payload(self):
        inner = self.cause.payload() if isinstance(self.cause, FinstackError) else {}
        return {"decl": self.decl,
                "cause": type(self.cause).__name__,
                "witness": inner}


class UnknownCommand(FinstackError):
    fields = ("name",)
    template = "unknown command {name!r}"

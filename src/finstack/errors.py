"""Structured errors raised by the checking operations.

Every violation carries its witness data as attributes and exposes it as a
plain dict via payload(), which is what the CLI serializes into reports.
"""

from __future__ import annotations


class FinstackError(Exception):
    """Base class for all structured errors in this package."""

    def payload(self) -> dict:
        return {}

    def kind(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------- finset ---

class SrcDstMismatch(FinstackError):
    """Composition g ∘ f where dst(f) differs from src(g)."""


class CodomainMismatch(FinstackError):
    """Pullback legs with different codomains."""


class SrcMismatch(FinstackError):
    """Mediating pair (u, v) whose sources differ."""


class SquareNotCommuting(FinstackError):
    """Mediating pair that fails f ∘ u = g ∘ v."""

    def __init__(self, point, left, right):
        self.point, self.left, self.right = point, left, right
        super().__init__(f"square does not commute at {point!r}: {left!r} != {right!r}")

    def payload(self):
        return {"point": self.point, "left": self.left, "right": self.right}


class ShapeMismatch(FinstackError):
    """Coequalizer pair that is not parallel."""


class NotCoequalized(FinstackError):
    """Candidate map that does not coequalize the given pair."""

    def __init__(self, point, left, right):
        self.point, self.left, self.right = point, left, right
        super().__init__(f"map does not coequalize at {point!r}: {left!r} != {right!r}")

    def payload(self):
        return {"point": self.point, "left": self.left, "right": self.right}


class DanglingArrow(FinstackError):
    """Diagram arrow whose endpoints or table do not match the listed objects."""


# ----------------------------------------------------------- group-action ---

class NotAssociative(FinstackError):
    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c
        super().__init__(f"(a*b)*c != a*(b*c) at a={a!r} b={b!r} c={c!r}")

    def payload(self):
        return {"a": self.a, "b": self.b, "c": self.c}


class NoUnit(FinstackError):
    def __init__(self):
        super().__init__("no two-sided unit in table")


class NoInverse(FinstackError):
    def __init__(self, a):
        self.a = a
        super().__init__(f"no inverse for {a!r}")

    def payload(self):
        return {"a": self.a}


class AssocFail(FinstackError):
    """Action fails act(g*h, x) = act(g, act(h, x))."""

    def __init__(self, g, h, x):
        self.g, self.h, self.x = g, h, x
        super().__init__(f"action associativity fails at g={g!r} h={h!r} x={x!r}")

    def payload(self):
        return {"g": self.g, "h": self.h, "x": self.x}


class UnitFail(FinstackError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"action unit law fails at x={x!r}")

    def payload(self):
        return {"x": self.x}


class EquivarianceFail(FinstackError):
    def __init__(self, g, x):
        self.g, self.x = g, x
        super().__init__(f"equivariance fails at g={g!r} x={x!r}")

    def payload(self):
        return {"g": self.g, "x": self.x}


# ---------------------------------------------------------- site-topology ---

class TargetMismatch(FinstackError):
    """Covering family leg or tested map with the wrong codomain."""


class CoverNotCanonical(FinstackError):
    def __init__(self, detail=""):
        self.detail = detail
        super().__init__(f"cover not canonical{': ' + detail if detail else ''}")

    def payload(self):
        return {"detail": self.detail}


class BoundExceeded(FinstackError):
    def __init__(self, what, size, bound):
        self.what, self.size, self.bound = what, size, bound
        super().__init__(f"{what}: size {size} exceeds bound {bound}")

    def payload(self):
        return {"what": self.what, "size": self.size, "bound": self.bound}


# ------------------------------------------------------------------ bundle ---

class BaseMismatch(FinstackError):
    """Bundles or maps over different bases."""


class TriangleFail(FinstackError):
    """A triangle over the base or over the action target fails to commute."""

    def __init__(self, point, which="proj"):
        self.point, self.which = point, which
        super().__init__(f"{which} triangle fails at {point!r}")

    def payload(self):
        return {"point": self.point, "which": self.which}


# ----------------------------------------------------------------- descent ---

class OverlapMismatch(FinstackError):
    def __init__(self, i, j, point=None):
        self.i, self.j, self.point = i, j, point
        super().__init__(f"locals disagree on overlap ({i},{j}) at {point!r}")

    def payload(self):
        return {"i": self.i, "j": self.j, "point": self.point}


class CocycleFail(FinstackError):
    def __init__(self, i, j, k, point):
        self.i, self.j, self.k, self.point = i, j, k, point
        super().__init__(f"cocycle fails on triple overlap ({i},{j},{k}) at {point!r}")

    def payload(self):
        return {"i": self.i, "j": self.j, "k": self.k, "point": self.point}


class CocycleRequired(FinstackError):
    def __init__(self, cause):
        self.cause = cause
        super().__init__(f"datum rejected, cocycle violated: {cause}")

    def payload(self):
        return {"cause": self.cause.payload() if isinstance(self.cause, FinstackError) else str(self.cause)}


class MissingOverlapIso(FinstackError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"no overlap iso supplied for ({i},{j}) and none is forced")

    def payload(self):
        return {"i": self.i, "j": self.j}


# --------------------------------------------------------------------- cli ---

class SiteSyntaxError(FinstackError):
    def __init__(self, message, line, col):
        self.message, self.line, self.col = message, line, col
        super().__init__(f"{line}:{col}: {message}")

    def payload(self):
        return {"message": self.message, "line": self.line, "col": self.col}


class UnresolvedReference(FinstackError):
    def __init__(self, name, line, col):
        self.name, self.line, self.col = name, line, col
        super().__init__(f"{line}:{col}: unresolved reference {name!r}")

    def payload(self):
        return {"name": self.name, "line": self.line, "col": self.col}


class ValidationError(FinstackError):
    """A declaration parsed but failed its module's check on load."""

    def __init__(self, decl, cause):
        self.decl, self.cause = decl, cause
        super().__init__(f"declaration {decl!r} invalid: {cause}")

    def payload(self):
        inner = self.cause.payload() if isinstance(self.cause, FinstackError) else {}
        return {"decl": self.decl,
                "cause": type(self.cause).__name__,
                "witness": inner}


class UnknownCommand(FinstackError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown command {name!r}")

    def payload(self):
        return {"name": self.name}

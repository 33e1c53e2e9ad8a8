"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to catch gets its own class;
generic programming errors stay as ValueError/TypeError.
"""


class BoolpowError(Exception):
    pass


# finite algebras
class ArityMismatch(BoolpowError):
    pass


class OutOfRange(BoolpowError):
    pass


class DegenerateCarrier(BoolpowError):
    pass


class SearchBudgetExceeded(BoolpowError):
    pass


class SizeBudgetExceeded(BoolpowError):
    pass


class NoMalcevTerm(BoolpowError):
    pass


# Cantor space
class ContextMismatch(BoolpowError):
    pass


class EmptyInput(BoolpowError):
    pass


class NotGood(BoolpowError):
    pass


class TypeMismatch(BoolpowError):
    pass


class EmptyOrFull(BoolpowError):
    pass


class OverlappingDomains(BoolpowError):
    pass


class NotBijective(BoolpowError):
    pass


# Boolean powers
class FilterViolation(BoolpowError):
    pass


class EmptyRestriction(BoolpowError):
    pass


class NotAutomorphism(BoolpowError):
    pass


class IdempotentMismatch(BoolpowError):
    pass


class PointMismatch(BoolpowError):
    pass


# automorphism group
class PointNotFixed(BoolpowError):
    pass


class NotExtendable(BoolpowError):
    pass


class TailLabelViolation(BoolpowError):
    pass


class IllegalTriple(BoolpowError):
    pass


class NotSinglePoint(BoolpowError):
    pass


class NotStabilizing(BoolpowError):
    pass


class OrbitCollision(BoolpowError):
    pass


# embeddings / amalgamation
class NotEmbedding(BoolpowError):
    pass


class SourceMismatch(BoolpowError):
    pass


class ArityOrder(BoolpowError):
    pass


class ExtensionFailure(BoolpowError):
    pass


# free algebras
class NotIdempotentOnSk(BoolpowError):
    pass


class PatternMismatch(BoolpowError):
    pass


class NotLoopOrRing(BoolpowError):
    pass


# factorization
class NoPoints(BoolpowError):
    pass


class PreconditionNotGood(BoolpowError):
    pass


class TypeWitnessFailure(BoolpowError):
    pass


class EmptyGeneratorSet(BoolpowError):
    pass


class GeneratorNotActing(BoolpowError):
    pass


# cli
class ParseError(BoolpowError):
    pass

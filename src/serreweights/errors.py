"""Exception types shared across the package."""


class SerreWeightError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(SerreWeightError):
    """Invalid field parameters (non-prime ell, f < 1, or modulus too large)."""


class ParamMismatch(SerreWeightError):
    """Arithmetic attempted between objects with different parameters."""


class BadWeightDigits(SerreWeightError):
    """Weight digit vector outside {1..ell}^f or of the wrong length."""


class InvalidNiveauTwo(SerreWeightError):
    """Exponent n divisible by ell^f + 1, so the character does not extend to niveau 2 data."""


class WrongExtClass(SerreWeightError):
    """Operation requires a different extension class (split vs non-split-unknown)."""


class NotInLabeledSet(SerreWeightError):
    """Labeled weight does not belong to the labeled weight set of the given datum."""


class IllegalShape(SerreWeightError):
    """Rational shape with parameters outside its legal range."""


class InvalidFactorInput(SerreWeightError):
    """Local factor input fails validation (for example q = 0 mod ell)."""


class BudgetExceeded(SerreWeightError):
    """Requested verification sweep exceeds the work budget."""

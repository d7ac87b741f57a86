"""Exception types shared across the package."""


class CFKError(Exception):
    """Base class for computation errors raised by this package."""


class InvalidTorusParameters(CFKError):
    """Torus parameters must be coprime integers, both at least 2."""


class NotLSpaceForm(CFKError):
    """Polynomial is not an alternating unit-coefficient staircase polynomial."""


class IllegalBasisChange(CFKError):
    """A basis change violated the grading or filtration constraints."""


class InadmissiblePlan(CFKError):
    """Subset plan handed to remove_diagonals is not admissible."""


class NotAKnotComplex(CFKError):
    """Column homology is not one-dimensional in grading zero."""


class InvalidParameter(CFKError):
    """Numeric parameter outside the documented range."""

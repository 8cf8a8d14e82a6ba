"""Exception hierarchy shared by all kmaut modules."""


class KmautError(Exception):
    """Base class for every error raised by this package."""


class ConductorOverflow(KmautError):
    """An operation would need a cyclotomic conductor above the hard cap."""


class MalformedData(KmautError):
    """JSON data of the wrong shape or type: a coefficient count that is not
    phi(N), a non-numeric coefficient or conductor, a matrix that is not
    square, or a matrix of the wrong size."""


class OrderMismatch(KmautError):
    """A matrix or automorphism does not have the claimed finite order."""


class NotAntisymmetric(KmautError):
    pass


class OddDimension(KmautError):
    pass


class UnsupportedParam(KmautError):
    """Family/rank combination outside the supported ranges."""


class AlgebraMismatch(KmautError):
    """Operands live in different algebras."""


class MembershipError(KmautError):
    """A matrix is not an element of the algebra it was assigned to."""


class InvalidLabel(KmautError):
    pass


class OrderExceedsBound(KmautError):
    pass


class NotInvolution(KmautError):
    pass


class NonCommuting(KmautError):
    pass


class NoSignatureRule(KmautError):
    """No discrete component-signature rule exists for this case."""


class Unclassifiable(KmautError):
    """Input is outside the exactly classifiable set; a raw certificate applies."""


class TwistMismatch(KmautError):
    """Loop elements or automorphisms live over different twists/conductors."""


class WindowTooSmall(KmautError):
    pass


class PeriodicityViolation(KmautError):
    """Standard-automorphism data does not satisfy the periodicity condition."""


class InvalidLoopData(KmautError):
    """Standard-automorphism data out of range: scale <= 0 or l < 1."""


class WrongKind(KmautError):
    pass


class NotFiniteOrder(KmautError):
    pass


class InfiniteOrderScaling(KmautError):
    """Orientation-preserving automorphism with a nontrivial scale has infinite order."""


class ScalingNotExtendable(KmautError):
    pass


class ScalingNotRational(KmautError):
    """A scale interchange would need an irrational coefficient factor."""


class StaticOnlyAlgebra(KmautError):
    """Matrix work asked of static data: an algebra without a matrix model
    (`UnsupportedExceptional`) or a certificate invariant."""


class UnsupportedExceptional(StaticOnlyAlgebra):
    """Requested a matrix-level computation on a static exceptional algebra."""


class InvalidK(KmautError):
    pass


class NotCompactMode(KmautError):
    pass


class UnsupportedOrder(KmautError):
    pass

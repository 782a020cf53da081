"""Exception types shared across the package."""


class ShockLabError(Exception):
    """Base class for all package-specific errors."""


class EqualStates(ShockLabError):
    """Shock end states coincide."""


class WrongOrder(ShockLabError):
    """Shock end states violate the u_plus < u_minus convention."""


class TrivialCone(ShockLabError):
    """Admissibility cone reduces to {0}; no shock direction exists."""


class InadmissibleNormal(ShockLabError):
    """Requested front normal fails the chord admissibility test."""


class NotLipschitzInGauge(ShockLabError):
    """Front is not Lipschitz with ratio <= 1 relative to the cone gauge."""


class GaugeZero(ShockLabError):
    """Gauge of a displacement vanishes while the front value changes."""


class FrameMismatch(ShockLabError):
    """Profiles do not share the same end states and frame."""


class NotUNC(ShockLabError):
    """Operation requires a uniformly non-characteristic profile (ratio < 1)."""


class EmptyInterior(ShockLabError):
    """Dual cone has empty interior; no interior axis direction exists."""


class NoCrossing(ShockLabError):
    """Field never crosses the mid level; no front can be extracted."""


class CFLViolation(ShockLabError):
    """Evolved field left the invariant range; the monotone update is broken."""


class GridMismatch(ShockLabError):
    """Fields live on different grids."""


class DegenerateFlux(ShockLabError):
    """A flux the library cannot treat: a derivative or its roots overflow, or
    every 2-D direction is admissible, which non-degeneracy excludes."""


class RangeViolation(ShockLabError):
    """Initial data leave the interval spanned by the end states."""


class BoundaryContact(ShockLabError):
    """Perturbation support reached the domain boundary during a run."""


class EtaTooLarge(ShockLabError):
    """Overhead amplitude bound too large for a positive absorption rate."""


class Characteristic(ShockLabError):
    """Shock is characteristic; the absorption estimate does not apply."""


class BadMagic(ShockLabError):
    """Snapshot file does not start with the expected magic bytes."""


class TruncatedFile(ShockLabError):
    """Snapshot file ends before the declared payload is complete."""


class BadSnapshot(ShockLabError):
    """Snapshot header or cells do not form a finite field on a uniform grid,
    or bytes follow its payload."""


class ConfigError(ShockLabError):
    """Configuration text failed validation.

    Carries a list of (line, message) diagnostics.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.diagnostics)
        super().__init__(lines)

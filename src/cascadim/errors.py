"""Exception types shared across the package."""


class CascadimError(Exception):
    """Base class for all package errors."""


class CapExceeded(CascadimError):
    """An enumeration or pairing would exceed its configured budget."""

    def __init__(self, needed, cap, what="items"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"would need {needed} {what}, cap is {cap}")


class NotIrreducible(CascadimError):
    """The transition matrix is not irreducible."""


class ScaleBelowResolution(CascadimError):
    """A probe scale is finer than the discretization can support."""

    def __init__(self, scale, floor):
        self.scale = scale
        self.floor = floor
        super().__init__(f"scale {scale!r} is below the resolution floor {floor!r}")


class ZeroMassBall(CascadimError):
    """A queried ball carries no mass, so its log-mass is undefined."""


class DegenerateWindow(CascadimError):
    """Too few (or degenerate) points for a least-squares fit."""


class ConfigError(CascadimError):
    """An experiment configuration is malformed."""


class NonStationaryWarning(UserWarning):
    """A supplied Markov initial distribution was replaced by the stationary one."""

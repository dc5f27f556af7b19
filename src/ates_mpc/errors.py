"""Exception types shared across the toolkit."""


class AtesError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(AtesError):
    """Physical parameter, radial geometry or explicit time step outside its
    admissible range."""


class SolverError(AtesError):
    """QP solver failed to converge within its iteration cap."""


class ControllerFault(AtesError):
    """All candidate mode sequences infeasible; caller should fall back to u = 0."""


class ScenarioError(AtesError):
    """Malformed scenario config or demand data."""

"""Exception types shared across the toolkit."""


class AtesError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(AtesError):
    """Invalid radial geometry (nonpositive or inverted radii, bad cell count)."""


class ParameterError(AtesError):
    """Physical parameter outside its admissible range."""


class StabilityError(AtesError):
    """Explicit time step violates the diffusion stability limit."""


class SolverError(AtesError):
    """QP solver failed to converge within its iteration cap."""


class ControllerFault(AtesError):
    """All candidate mode sequences infeasible; caller should fall back to u = 0."""


class ScenarioError(AtesError):
    """Malformed scenario config or demand data."""

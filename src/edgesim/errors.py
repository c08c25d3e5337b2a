"""Exception types shared across the simulator."""


class EdgesimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(EdgesimError):
    """Invalid parameters or malformed configuration."""


class TimeRegressionError(EdgesimError):
    """An update was applied with a timestamp earlier than the last one."""


class RegistrationError(EdgesimError):
    """An operation referenced a task that was never registered."""


class AssignmentError(EdgesimError):
    """A request was routed to a node that cannot accept it (caller bug)."""


class AssignmentUnavailableError(EdgesimError):
    """No healthy, reachable node exists for the request right now."""

"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A run configuration or solver parameter violates a stated constraint."""


class NumericError(RuntimeError):
    """An iterative procedure failed to converge.

    The offending last iterate (if any) is attached as ``last_iterate``.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate

"""The error type that maps to the CLI's resource-limit exit code."""


class ResourceLimitError(RuntimeError):
    """A configured cap would be passed: the DP table cap or the oracle cap."""

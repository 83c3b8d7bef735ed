"""The error type that maps to the CLI's resource-limit exit code, and the
check every cap, budget and count runs on its limit before any work."""


class ResourceLimitError(RuntimeError):
    """A configured cap would be passed: the DP table cap or the oracle cap."""


def _check_nonnegative(value: int, what: str) -> None:
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")

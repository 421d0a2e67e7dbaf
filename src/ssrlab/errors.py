"""Error types: each has a stable code, and its class the CLI's exit code."""


class SsrError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConfigError(SsrError):
    """Bad configuration: unknown keys, out-of-range hyperparameters."""
    exit_code = 2


class DataError(SsrError):
    """Bad data: malformed datasets, files, or empty selections."""
    exit_code = 3


class NumericError(SsrError):
    """Numeric failure: zero norms, degenerate fits, non-finite inputs."""
    exit_code = 4

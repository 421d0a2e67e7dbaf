"""Error types. Every error carries a stable machine-readable code."""


class SsrError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConfigError(SsrError):
    """Bad configuration: unknown keys, out-of-range hyperparameters (exit 2)."""


class DataError(SsrError):
    """Bad data: malformed datasets, files, or empty selections (exit 3)."""


class NumericError(SsrError):
    """Numeric failure: zero norms, degenerate fits, non-finite inputs (exit 4)."""

"""Shared exception types and guard defaults.

Guard defaults live here, beside the error they raise, so the command line
can show them without importing the modules that enforce them.
"""

DEFAULT_CUBE_LIMIT = 14


class GuardLimitError(RuntimeError):
    """Raised when an operation would exceed a configured size guard.

    Guards protect against exponential blowups (exact search on too many
    vertices, full-joint enumeration over too many cells, parity samples
    with too many rows). The exact-search and cube limits can be raised
    explicitly by the caller.
    """

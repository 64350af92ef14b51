"""The error every exact check in weilkit raises.

A check is a claim the code has just proven or refuted by exact
computation (a table is integral, F V = q, an index is p^4).  It raises
`VerificationError` rather than using `assert`, so it still runs under
`python -O`.
"""


class VerificationError(AssertionError):
    """An exact check failed."""


def verify(ok, message):
    if not ok:
        raise VerificationError(message)

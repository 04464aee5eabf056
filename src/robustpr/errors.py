"""Exception types mapped to CLI exit codes: ParseError 4, DomainError 3 (see ``cli``)."""


class ParseError(ValueError):
    """A structured document (instance JSON, PGM header, ...) is malformed."""


class DomainError(Exception):
    """A request is well-formed but outside the operation's domain."""

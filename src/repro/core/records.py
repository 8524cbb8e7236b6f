"""Input record model.

"Each item in the stream is simply expected to be using a JSON format
with only two fields: service (the source system) from where the message
originated and the unaltered log message." (paper §III)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LogRecord", "new_record"]


@dataclass(slots=True, frozen=True)
class LogRecord:
    """One item of the composite input stream."""

    service: str
    message: str

    def to_json_dict(self) -> dict[str, str]:
        return {"service": self.service, "message": self.message}


_new = object.__new__
_set_service = LogRecord.__dict__["service"].__set__
_set_message = LogRecord.__dict__["message"].__set__


def new_record(service: str, message: str) -> LogRecord:
    """``LogRecord(service, message)`` without the frozen ``__init__``.

    The slot descriptors write the two fields directly, skipping the
    per-field ``object.__setattr__`` a frozen dataclass pays (about half
    the cost).  The result is an ordinary :class:`LogRecord`: equality,
    hash, repr and pickle are the dataclass's own.  The feeds that build
    records by the hundred thousand (the JSON decoder, the pool worker)
    use it.
    """
    record = _new(LogRecord)
    _set_service(record, service)
    _set_message(record, message)
    return record

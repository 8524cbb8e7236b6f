"""Small shared utilities used across the Sequence-RTG reproduction."""

from repro._util.hashing import pattern_id
from repro._util.sampling import ZipfSampler

__all__ = ["pattern_id", "ZipfSampler"]

"""Delta-encoding substrate: Vdelta-style differ, wire codec, compression.

Quick use::

    from repro.delta import make_delta, apply_delta

    delta = make_delta(base, target)        # compact wire bytes
    assert apply_delta(delta, base) == target

The substrate exposes three cost/precision tiers used by the class-based
layer above it:

* :class:`VdeltaEncoder` — the full differ (4-byte chunks, forward and
  backward match extension) used to produce deltas sent to clients;
* :class:`LightEstimator` — the paper's "light version" (larger chunks,
  forward-only) used to *estimate* closeness during grouping;
* :func:`delta_size` — wire-size of a full diff without serializing, used
  by the base-file selection algorithm which only compares sizes.
"""

from __future__ import annotations

from repro.delta.apply import apply_delta, replay
from repro.delta.codec import (
    DEFAULT_MAX_TARGET_LENGTH,
    ContentKey,
    checksum,
    content_key,
    decode_delta,
    encode_delta,
    encoded_size,
)
from repro.delta.compress import compress, compressed_size, decompress
from repro.delta.errors import BaseMismatchError, CorruptDeltaError, DeltaError
from repro.delta.instructions import (
    Add,
    Copy,
    Instruction,
    Run,
    added_bytes,
    base_coverage,
    copied_bytes,
    optimize_runs,
    target_length,
)
from repro.delta.light import LightEstimator
from repro.delta.vdelta import BaseIndex, EncodeResult, MatchStats, VdeltaEncoder

_DEFAULT_ENCODER = VdeltaEncoder()


def diff(base: bytes, target: bytes, encoder: VdeltaEncoder | None = None) -> EncodeResult:
    """Diff ``target`` against ``base`` with the full Vdelta-style encoder."""
    return (encoder or _DEFAULT_ENCODER).encode(base, target)


def make_delta(
    base: bytes, target: bytes, encoder: VdeltaEncoder | None = None
) -> bytes:
    """Produce serialized (uncompressed) delta wire bytes."""
    encoder = encoder or _DEFAULT_ENCODER
    return bytes(encoder.encode_wire_with_index(encoder.index(base), target))


def delta_size(
    base: bytes, target: bytes, encoder: VdeltaEncoder | None = None
) -> int:
    """Wire size of the delta between ``base`` and ``target``, in bytes."""
    encoder = encoder or _DEFAULT_ENCODER
    return len(encoder.encode_wire_with_index(encoder.index(base), target))


__all__ = [
    "Add",
    "BaseIndex",
    "DEFAULT_MAX_TARGET_LENGTH",
    "BaseMismatchError",
    "ContentKey",
    "Copy",
    "CorruptDeltaError",
    "DeltaError",
    "EncodeResult",
    "Instruction",
    "LightEstimator",
    "MatchStats",
    "Run",
    "VdeltaEncoder",
    "added_bytes",
    "apply_delta",
    "base_coverage",
    "checksum",
    "compress",
    "compressed_size",
    "content_key",
    "copied_bytes",
    "decode_delta",
    "decompress",
    "delta_size",
    "diff",
    "encode_delta",
    "encoded_size",
    "make_delta",
    "optimize_runs",
    "replay",
    "target_length",
]

"""Protobuf wire-format primitives: varints, tags, bounded field reading.

Only the pieces needed to read and write the model files are here.  The
reader never trusts declared lengths: every access is bounds-checked and
errors carry the absolute byte offset of the offending position.
"""

from __future__ import annotations

import struct

from ..errors import ModelFormatError

WIRE_VARINT = 0
WIRE_FIXED64 = 1
WIRE_LEN = 2
WIRE_FIXED32 = 5

_MAX_VARINT_BYTES = 10  # enough for any 64-bit value


def encode_varint(value: int) -> bytes:
    if value < 0:
        # 64-bit two's complement, the protobuf convention for negatives
        value &= (1 << 64) - 1
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0, end: int = None) -> tuple:
    """Little-endian base-128 decode starting at ``offset``.

    Returns ``(value, new_offset)``.  Rejects truncation and encodings
    longer than ten bytes.
    """
    if end is None:
        end = len(data)
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= end:
            raise ModelFormatError("truncated varint", byte_offset=pos)
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        if pos - offset >= _MAX_VARINT_BYTES:
            raise ModelFormatError(
                "varint runs past ten bytes", byte_offset=offset
            )
        shift += 7


def to_signed64(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


class WireReader:
    """Sequential field reader over a window of ``data``.

    Nested messages reuse the same buffer with a narrower window, so
    reported offsets are always absolute file positions.
    """

    def __init__(self, data: bytes, start: int = 0, end: int = None):
        self._data = data
        self._pos = start
        self._end = len(data) if end is None else end

    @property
    def offset(self) -> int:
        return self._pos

    def at_end(self) -> bool:
        return self._pos >= self._end

    def read_varint(self) -> int:
        value, self._pos = decode_varint(self._data, self._pos, self._end)
        return value

    def read_tag(self) -> tuple:
        tag = self.read_varint()
        field_number = tag >> 3
        wire_type = tag & 0x7
        if field_number < 1:
            raise ModelFormatError(
                f"invalid field number {field_number}", byte_offset=self._pos
            )
        return field_number, wire_type

    def read_len_window(self) -> tuple:
        """Length-delimited payload as a (start, end) window."""
        length = self.read_varint()
        start = self._pos
        stop = start + length
        if stop > self._end:
            raise ModelFormatError(
                f"declared length {length} runs past the buffer",
                byte_offset=start,
            )
        self._pos = stop
        return start, stop

    def read_bytes(self) -> bytes:
        start, stop = self.read_len_window()
        return self._data[start:stop]

    def read_string(self) -> str:
        raw = self.read_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(
                "string field is not valid UTF-8", byte_offset=self._pos
            ) from None

    def read_fixed32(self) -> bytes:
        stop = self._pos + 4
        if stop > self._end:
            raise ModelFormatError("truncated fixed32", byte_offset=self._pos)
        raw = self._data[self._pos:stop]
        self._pos = stop
        return raw

    def read_fixed64(self) -> bytes:
        stop = self._pos + 8
        if stop > self._end:
            raise ModelFormatError("truncated fixed64", byte_offset=self._pos)
        raw = self._data[self._pos:stop]
        self._pos = stop
        return raw

    def read_float32(self) -> float:
        return struct.unpack("<f", self.read_fixed32())[0]

    def skip(self, wire_type: int) -> None:
        if wire_type == WIRE_VARINT:
            self.read_varint()
        elif wire_type == WIRE_FIXED64:
            self.read_fixed64()
        elif wire_type == WIRE_LEN:
            self.read_len_window()
        elif wire_type == WIRE_FIXED32:
            self.read_fixed32()
        else:
            raise ModelFormatError(
                f"unsupported wire type {wire_type}", byte_offset=self._pos
            )


# ---------------------------------------------------------------------------
# writing helpers

def encode_tag(field_number: int, wire_type: int) -> bytes:
    return encode_varint((field_number << 3) | wire_type)


def field_varint(field_number: int, value: int) -> bytes:
    return encode_tag(field_number, WIRE_VARINT) + encode_varint(value)


def field_len(field_number: int, payload: bytes) -> bytes:
    return (
        encode_tag(field_number, WIRE_LEN)
        + encode_varint(len(payload))
        + payload
    )


def field_string(field_number: int, text: str) -> bytes:
    return field_len(field_number, text.encode("utf-8"))


def field_float32(field_number: int, value: float) -> bytes:
    return encode_tag(field_number, WIRE_FIXED32) + struct.pack("<f", value)


def packed_varints(field_number: int, values) -> bytes:
    payload = b"".join(encode_varint(v) for v in values)
    return field_len(field_number, payload)

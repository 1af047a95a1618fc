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


# How each field kind reads a payload of each wire type it accepts.  A
# varint payload is its value and any other payload a (start, end) window
# of ``data``; each reading returns the list of values the field holds.
def _int64(data, value):
    return [to_signed64(value)]


def _packed_int64s(data, window):
    values = []
    pos, end = window
    while pos < end:
        value, pos = decode_varint(data, pos, end)
        values.append(to_signed64(value))
    return values


def _float32(data, window):
    return [struct.unpack_from("<f", data, window[0])[0]]


def _raw_bytes(data, window):
    return [data[window[0]:window[1]]]


def _utf8(data, window):
    try:
        return [str(data[window[0]:window[1]], "utf-8")]
    except UnicodeDecodeError:
        raise ModelFormatError(
            "string field is not valid UTF-8", byte_offset=window[1]
        ) from None


def _window(data, window):
    return [window]


KINDS = {
    "int": {WIRE_VARINT: _int64},
    "ints": {WIRE_VARINT: _int64, WIRE_LEN: _packed_int64s},
    "float": {WIRE_FIXED32: _float32},
    "floats": {WIRE_FIXED32: _raw_bytes, WIRE_LEN: _raw_bytes},
    "string": {WIRE_LEN: _utf8},
    "bytes": {WIRE_LEN: _window},
    "message": {WIRE_LEN: _window},
}
_FIXED_SIZES = {WIRE_FIXED64: 8, WIRE_FIXED32: 4}


def read_fields(data, start, end, numbers) -> dict:
    """The known fields of the message in ``data[start:end]``, by name.

    ``numbers`` maps a field number to its name and ``KINDS`` entry.  Each
    field read maps to the list of its values in wire order, and the dict
    holds the fields in the order of their last occurrence, so of a oneof
    the member read last comes last.  A field whose number is unknown, or
    whose wire type its kind does not accept, is skipped.
    """
    fields = {}
    pos = start
    while pos < end:
        tag, pos = decode_varint(data, pos, end)
        number, wire_type = tag >> 3, tag & 0x7
        if number < 1:
            raise ModelFormatError(
                f"invalid field number {number}", byte_offset=pos
            )
        if wire_type == WIRE_VARINT:
            payload, pos = decode_varint(data, pos, end)
        elif wire_type == WIRE_LEN:
            length, pos = decode_varint(data, pos, end)
            if pos + length > end:
                raise ModelFormatError(
                    f"declared length {length} runs past the buffer",
                    byte_offset=pos,
                )
            payload, pos = (pos, pos + length), pos + length
        elif wire_type in _FIXED_SIZES:
            size = _FIXED_SIZES[wire_type]
            if pos + size > end:
                raise ModelFormatError(
                    f"truncated fixed{8 * size}", byte_offset=pos
                )
            payload, pos = (pos, pos + size), pos + size
        else:
            raise ModelFormatError(
                f"unsupported wire type {wire_type}", byte_offset=pos
            )
        name, readings = numbers.get(number, (None, {}))
        read = readings.get(wire_type)
        if read is not None:
            values = fields.pop(name, [])
            values += read(data, payload)
            fields[name] = values
    return fields


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


# How each field kind writes one value; "ints" writes a packed run.
WRITERS = {
    "int": field_varint,
    "ints": packed_varints,
    "float": field_float32,
    "string": field_string,
    "bytes": field_len,
    "message": field_len,
}

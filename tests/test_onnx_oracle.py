"""The table-driven model decoder against the field loops it replaced.

The oracle below is the decoder that walked each message with its own
hand-written loop over tags; it lives only here, with the sequential
reader it used.  On every seeded mutation of a serialized model the
package must return records equal field by field, or both must reject
the bytes with the same error class.  Reading a message's fields before
its nested messages can change which of two faults is reported first,
so only the class is compared.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from bnnverify.arch import (
    build_arch_a,
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.errors import (
    BnnVerifyError,
    InvalidModelError,
    ModelFormatError,
    UnsupportedOpError,
)
from bnnverify.onnx_io import codec, decode_model, serialize_model, wire
from bnnverify.onnx_io.codec import (
    ONNX_OPSET,
    TENSOR_FLOAT,
    TENSOR_INT64,
    AttrRecord,
    GraphRecord,
    ModelRecord,
    NodeRecord,
    TensorRecord,
    ValueInfoRecord,
)
from bnnverify.onnx_io.wire import decode_varint, to_signed64

WIRE_VARINT, WIRE_FIXED64, WIRE_LEN, WIRE_FIXED32 = 0, 1, 2, 5


class OracleReader:
    def __init__(self, data, start=0, end=None):
        self._data = data
        self._pos = start
        self._end = len(data) if end is None else end

    @property
    def offset(self):
        return self._pos

    def at_end(self):
        return self._pos >= self._end

    def read_varint(self):
        value, self._pos = decode_varint(self._data, self._pos, self._end)
        return value

    def read_tag(self):
        tag = self.read_varint()
        if tag >> 3 < 1:
            raise ModelFormatError(f"invalid field number {tag >> 3}",
                                   byte_offset=self._pos)
        return tag >> 3, tag & 0x7

    def read_len_window(self):
        length = self.read_varint()
        start, stop = self._pos, self._pos + length
        if stop > self._end:
            raise ModelFormatError(
                f"declared length {length} runs past the buffer",
                byte_offset=start)
        self._pos = stop
        return start, stop

    def read_bytes(self):
        start, stop = self.read_len_window()
        return self._data[start:stop]

    def read_string(self):
        raw = self.read_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("string field is not valid UTF-8",
                                   byte_offset=self._pos) from None

    def read_fixed(self, size):
        stop = self._pos + size
        if stop > self._end:
            raise ModelFormatError(f"truncated fixed{8 * size}",
                                   byte_offset=self._pos)
        raw = self._data[self._pos:stop]
        self._pos = stop
        return raw

    def skip(self, wire_type):
        if wire_type == WIRE_VARINT:
            self.read_varint()
        elif wire_type == WIRE_FIXED64:
            self.read_fixed(8)
        elif wire_type == WIRE_LEN:
            self.read_len_window()
        elif wire_type == WIRE_FIXED32:
            self.read_fixed(4)
        else:
            raise ModelFormatError(f"unsupported wire type {wire_type}",
                                   byte_offset=self._pos)


def oracle_packed_int64s(data, start, end):
    values = []
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        values.append(to_signed64(reader.read_varint()))
    return values


def oracle_opset(data, start, end):
    domain = ""
    version = None
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_LEN:
            domain = reader.read_string()
        elif fnum == 2 and wtype == WIRE_VARINT:
            version = to_signed64(reader.read_varint())
        else:
            reader.skip(wtype)
    return domain, version


def oracle_attr(data, start, end):
    attr = AttrRecord()
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_LEN:
            attr.name = reader.read_string()
        elif fnum == 2 and wtype == WIRE_FIXED32:
            attr.f = float(struct.unpack("<f", reader.read_fixed(4))[0])
        elif fnum == 3 and wtype == WIRE_VARINT:
            attr.i = to_signed64(reader.read_varint())
        elif fnum == 4 and wtype == WIRE_LEN:
            raw = reader.read_bytes()
            try:
                attr.s = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ModelFormatError(
                    "attribute string is not valid UTF-8",
                    byte_offset=reader.offset) from None
        elif fnum == 8 and wtype == WIRE_LEN:
            sub = reader.read_len_window()
            attr.ints = (attr.ints or []) + oracle_packed_int64s(data, *sub)
        elif fnum == 8 and wtype == WIRE_VARINT:
            attr.ints = (attr.ints or []) + [to_signed64(reader.read_varint())]
        else:
            reader.skip(wtype)
    return attr


def oracle_node(data, start, end):
    node = NodeRecord()
    inputs = []
    outputs = []
    domain = ""
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_LEN:
            inputs.append(reader.read_string())
        elif fnum == 2 and wtype == WIRE_LEN:
            outputs.append(reader.read_string())
        elif fnum == 3 and wtype == WIRE_LEN:
            node.name = reader.read_string()
        elif fnum == 4 and wtype == WIRE_LEN:
            node.op_type = reader.read_string()
        elif fnum == 5 and wtype == WIRE_LEN:
            attr = oracle_attr(data, *reader.read_len_window())
            if attr.name in node.attrs:
                raise ModelFormatError(
                    f"duplicate attribute '{attr.name}' on node '{node.name}'")
            node.attrs[attr.name] = attr
        elif fnum == 7 and wtype == WIRE_LEN:
            domain = reader.read_string()
        else:
            reader.skip(wtype)
    if domain not in ("", "ai.onnx"):
        raise UnsupportedOpError(f"{domain}::{node.op_type or '?'}")
    node.inputs = tuple(inputs)
    node.outputs = tuple(outputs)
    return node


def oracle_tensor(data, start, end):
    dims = []
    data_type = None
    name = ""
    raw = None
    floats = None
    int64s = None
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_VARINT:
            dims.append(to_signed64(reader.read_varint()))
        elif fnum == 1 and wtype == WIRE_LEN:
            dims.extend(oracle_packed_int64s(data, *reader.read_len_window()))
        elif fnum == 2 and wtype == WIRE_VARINT:
            data_type = reader.read_varint()
        elif fnum == 4 and wtype == WIRE_LEN:
            payload = reader.read_bytes()
            if len(payload) % 4:
                raise ModelFormatError(
                    f"packed float data of tensor '{name}' has odd length",
                    byte_offset=reader.offset)
            chunk = np.frombuffer(payload, dtype="<f4")
            floats = chunk if floats is None else np.concatenate([floats, chunk])
        elif fnum == 4 and wtype == WIRE_FIXED32:
            value = np.frombuffer(reader.read_fixed(4), dtype="<f4")
            floats = value if floats is None else np.concatenate([floats, value])
        elif fnum == 7 and wtype == WIRE_LEN:
            got = oracle_packed_int64s(data, *reader.read_len_window())
            int64s = (int64s or []) + got
        elif fnum == 7 and wtype == WIRE_VARINT:
            int64s = (int64s or []) + [to_signed64(reader.read_varint())]
        elif fnum == 8 and wtype == WIRE_LEN:
            name = reader.read_string()
        elif fnum == 9 and wtype == WIRE_LEN:
            start, stop = reader.read_len_window()
            raw = memoryview(data)[start:stop]
        elif fnum == 13 and wtype == WIRE_LEN:
            raise ModelFormatError(
                f"tensor '{name}' uses external data, which is not supported",
                byte_offset=reader.offset)
        elif fnum == 14 and wtype == WIRE_VARINT:
            if reader.read_varint() != 0:
                raise ModelFormatError(
                    f"tensor '{name}' is stored outside the model file")
        else:
            reader.skip(wtype)

    for d in dims:
        if d < 0:
            raise ModelFormatError(f"tensor '{name}' has negative dimension {d}")
    count = 1
    for d in dims:
        count *= d

    if data_type == TENSOR_FLOAT:
        if raw is not None:
            if len(raw) % 4:
                raise ModelFormatError(
                    f"raw data of float tensor '{name}' has odd length")
            values = np.frombuffer(raw, dtype="<f4")
        elif floats is not None:
            values = floats
        else:
            raise ModelFormatError(f"float tensor '{name}' carries no data")
        kind = "float"
    elif data_type == TENSOR_INT64:
        if raw is not None:
            if len(raw) % 8:
                raise ModelFormatError(
                    f"raw data of int64 tensor '{name}' has odd length")
            values = np.frombuffer(raw, dtype="<i8").astype(np.int64)
        elif int64s is not None:
            values = np.asarray(int64s, dtype=np.int64)
        else:
            raise ModelFormatError(f"int64 tensor '{name}' carries no data")
        kind = "int64"
    else:
        raise ModelFormatError(
            f"tensor '{name}' has unsupported data type {data_type}")

    if values.size != count:
        raise ModelFormatError(
            f"tensor '{name}' declares {count} elements but carries {values.size}")
    return TensorRecord(name=name, dims=tuple(dims), kind=kind,
                        data=values.reshape(tuple(dims)))


def oracle_dim(data, start, end):
    value = None
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_VARINT:
            value = to_signed64(reader.read_varint())
        elif fnum == 2 and wtype == WIRE_LEN:
            reader.read_bytes()  # symbolic dimension name
            value = None
        else:
            reader.skip(wtype)
    return value


def oracle_len_windows(data, start, end, number):
    windows = []
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == number and wtype == WIRE_LEN:
            windows.append(reader.read_len_window())
        else:
            reader.skip(wtype)
    return windows


def oracle_value_info(data, start, end):
    name = ""
    for s, e in oracle_len_windows(data, start, end, 1):
        try:
            name = data[s:e].decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("value name is not valid UTF-8",
                                   byte_offset=s) from None
    dims = None
    for type_window in oracle_len_windows(data, start, end, 2):
        for tensor_window in oracle_len_windows(data, *type_window, 1):
            for shape_window in oracle_len_windows(data, *tensor_window, 2):
                dims = [oracle_dim(data, *window)
                        for window in oracle_len_windows(data, *shape_window, 1)]
    return ValueInfoRecord(name=name, dims=None if dims is None else tuple(dims))


def oracle_graph(data, start, end):
    graph = GraphRecord()
    reader = OracleReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_LEN:
            graph.nodes.append(oracle_node(data, *reader.read_len_window()))
        elif fnum == 2 and wtype == WIRE_LEN:
            graph.name = reader.read_string()
        elif fnum == 5 and wtype == WIRE_LEN:
            tensor = oracle_tensor(data, *reader.read_len_window())
            if tensor.name in graph.initializers:
                raise InvalidModelError(f"duplicate initializer '{tensor.name}'")
            graph.initializers[tensor.name] = tensor
        elif fnum == 11 and wtype == WIRE_LEN:
            graph.inputs.append(oracle_value_info(data, *reader.read_len_window()))
        elif fnum == 12 and wtype == WIRE_LEN:
            graph.outputs.append(oracle_value_info(data, *reader.read_len_window()))
        elif fnum == 15 and wtype == WIRE_LEN:
            raise ModelFormatError("sparse initializers are not supported",
                                   byte_offset=reader.offset)
        else:
            reader.skip(wtype)
    return graph


def oracle_decode_model(data):
    data = bytes(data)
    ir_version = None
    opsets = []
    graph_window = None
    reader = OracleReader(data)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == WIRE_VARINT:
            ir_version = to_signed64(reader.read_varint())
        elif fnum == 7 and wtype == WIRE_LEN:
            if graph_window is not None:
                raise ModelFormatError("more than one graph in the model",
                                       byte_offset=reader.offset)
            graph_window = reader.read_len_window()
        elif fnum == 8 and wtype == WIRE_LEN:
            opsets.append(oracle_opset(data, *reader.read_len_window()))
        else:
            reader.skip(wtype)

    if graph_window is None:
        raise ModelFormatError("model carries no graph")
    if ir_version is not None and ir_version < 3:
        raise ModelFormatError(f"unsupported ir_version {ir_version}")
    opset_version = None
    for domain, version in opsets:
        if domain in ("", "ai.onnx"):
            opset_version = version
        else:
            raise ModelFormatError(f"operator set domain '{domain}' is not supported")
    if opset_version != ONNX_OPSET:
        raise ModelFormatError(
            f"operator set version {opset_version} is not supported; "
            f"this codec handles opset {ONNX_OPSET} only")
    return ModelRecord(ir_version=ir_version, opset_version=opset_version,
                       graph=oracle_graph(data, *graph_window))


# ---------------------------------------------------------------------------
# the differential check


def canonical(value):
    """``value`` as nested tuples that compare equal exactly when the
    records do: arrays by dtype, shape and bytes, floats by their bits."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return ("dict",) + tuple((k, canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(canonical(v) for v in value)
    return value


def outcome(decode, data):
    try:
        return canonical(decode(data))
    except BnnVerifyError as exc:
        return type(exc)


def mutate(base, rng):
    """One flip, delete, insert or truncate edit of ``base``, drawn from
    ``rng``."""
    data = bytearray(base)
    kind = rng.integers(0, 4)
    if kind == 0:  # flip a byte
        pos = int(rng.integers(0, len(data)))
        data[pos] = int(rng.integers(0, 256))
    elif kind == 1:  # delete a slice
        start = int(rng.integers(0, len(data)))
        stop = min(len(data), start + int(rng.integers(1, 16)))
        del data[start:stop]
    elif kind == 2:  # insert junk
        pos = int(rng.integers(0, len(data)))
        junk = bytes(rng.integers(0, 256, size=int(rng.integers(1, 8)),
                                  dtype=np.uint8))
        data[pos:pos] = junk
    else:  # truncate
        data = data[:int(rng.integers(0, len(data)))]
    return bytes(data)


def arch_model(build, side):
    return serialize_model(with_random_weights(build(side, side),
                                               np.random.default_rng(0)))


ARCHS = {"A": (build_arch_a, 64), "B": (build_arch_b, 48),
         "XNOR": (build_arch_xnor, 30)}


@pytest.mark.parametrize("seed", range(20))
def test_tiny_mutations_decode_as_the_oracle(seed):
    base = serialize_model(random_tiny_network(np.random.default_rng(seed)))
    assert outcome(decode_model, base) == outcome(oracle_decode_model, base)
    rng = np.random.default_rng(1000 + seed)
    kinds = set()
    for _ in range(100):
        data = mutate(base, rng)
        got = outcome(decode_model, data)
        assert got == outcome(oracle_decode_model, data), data
        kinds.add(got if isinstance(got, type) else "ok")
    assert "ok" in kinds and ModelFormatError in kinds


@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_arch_mutations_decode_as_the_oracle(arch):
    base = arch_model(*ARCHS[arch])
    assert outcome(decode_model, base) == outcome(oracle_decode_model, base)
    rng = np.random.default_rng(len(base))
    for _ in range(10):
        data = mutate(base, rng)
        assert outcome(decode_model, data) == outcome(oracle_decode_model, data)


# ---------------------------------------------------------------------------
# hand-built messages that random edits seldom produce

W = codec._float_tensor_bytes("w", np.ones((4, 3)))
FLATTEN = codec._node_bytes("Flatten", "f", ["input"], ["t0"],
                            attrs=[codec._attr_int_bytes("axis", 1)])
MATMUL = codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"])
INPUT = codec._value_info_bytes("input", (1, 1, 2, 2))


def model(nodes=(FLATTEN, MATMUL), inits=(W,), entry=INPUT, graph_tail=b"",
          model_tail=b""):
    graph = b"".join(wire.field_len(1, n) for n in nodes)
    graph += wire.field_string(2, "g")
    graph += b"".join(wire.field_len(5, t) for t in inits)
    graph += wire.field_len(11, entry)
    graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
    graph += graph_tail
    return (wire.field_varint(1, codec.IR_VERSION) + wire.field_len(7, graph)
            + wire.field_len(8, wire.field_varint(2, ONNX_OPSET)) + model_tail)


def entry_with_dims(*dims):
    """The input's value info with one dimension message per argument."""
    shape = b"".join(wire.field_len(1, d) for d in dims)
    tensor_type = wire.field_varint(1, TENSOR_FLOAT) + wire.field_len(2, shape)
    return (wire.field_string(1, "input")
            + wire.field_len(2, wire.field_len(1, tensor_type)))


VALUE = [wire.field_varint(1, d) for d in (1, 1, 2, 2)]
PARAM = wire.field_string(2, "N")
INT64_SHAPE = (wire.packed_varints(1, [2]) + wire.field_varint(2, TENSOR_INT64)
               + wire.field_string(8, "s")
               + wire.field_len(9, np.array([1, -1], "<i8").tobytes()))
FLOATS_ONE_BY_ONE = (wire.packed_varints(1, [4, 3])
                     + wire.field_varint(2, TENSOR_FLOAT)
                     + b"".join(wire.field_float32(4, 1.0) for _ in range(12))
                     + wire.field_string(8, "w"))
MIXED_INTS = (wire.field_string(1, "k") + wire.field_varint(8, 5)
              + wire.packed_varints(8, [6, -7]) + wire.field_varint(8, -8))

HAND_BUILT = {
    "dim_value after dim_param": (
        model(entry=entry_with_dims(PARAM + VALUE[0], *VALUE[1:])), "ok"),
    "dim_param after dim_value": (
        model(entry=entry_with_dims(VALUE[0], VALUE[1] + PARAM, *VALUE[2:])),
        "ok"),
    "dim_value, dim_param, dim_value": (
        model(entry=entry_with_dims(VALUE[0] + PARAM + VALUE[0], *VALUE[1:])),
        "ok"),
    "float_data one field per value": (model(inits=(FLOATS_ONE_BY_ONE,)), "ok"),
    "raw_data wins over float_data": (
        model(inits=(W + wire.field_len(4, b"\0" * 8),)), "ok"),
    "odd float_data on an int64 tensor": (
        model(inits=(W, INT64_SHAPE + wire.field_len(4, b"\0" * 3))),
        ModelFormatError),
    "attribute ints packed and not": (
        model(nodes=(FLATTEN + wire.field_len(5, MIXED_INTS), MATMUL)), "ok"),
    "node name as a varint": (
        model(nodes=(FLATTEN + wire.field_varint(3, 9), MATMUL)), "ok"),
    "node domain": (
        model(nodes=(FLATTEN + wire.field_string(7, "com.x"), MATMUL)),
        UnsupportedOpError),
    "duplicate attribute": (
        model(nodes=(FLATTEN + wire.field_len(5, codec._attr_int_bytes("axis", 1)),
                     MATMUL)), ModelFormatError),
    "attribute string not UTF-8": (
        model(nodes=(FLATTEN + wire.field_len(
            5, wire.field_string(1, "x") + wire.field_len(4, b"\xff")), MATMUL)),
        ModelFormatError),
    "duplicate initializer": (model(inits=(W, W)), InvalidModelError),
    "sparse initializer": (
        model(graph_tail=wire.field_len(15, b"")), ModelFormatError),
    "external data": (
        model(inits=(W + wire.field_len(13, b""),)), ModelFormatError),
    "data_location 1": (
        model(inits=(W + wire.field_varint(14, 1),)), ModelFormatError),
    "ir_version given twice, last 2": (
        model(model_tail=wire.field_varint(1, 2)), ModelFormatError),
    "two graphs": (model(model_tail=wire.field_len(7, b"")), ModelFormatError),
    "foreign opset domain": (
        model(model_tail=wire.field_len(8, wire.field_string(1, "com.x"))),
        ModelFormatError),
    "unknown fixed64 field": (
        model(model_tail=wire.encode_tag(99, wire.WIRE_FIXED64) + b"\0" * 8),
        "ok"),
    "wire type 3": (model(model_tail=wire.encode_tag(99, 3)), ModelFormatError),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_message_decodes_as_the_oracle(case):
    data, expected = HAND_BUILT[case]
    got = outcome(decode_model, data)
    assert got == outcome(oracle_decode_model, data)
    assert (got if isinstance(got, type) else "ok") == expected


def test_later_dim_member_decides():
    dims = [decode_model(HAND_BUILT[case][0]).graph.inputs[0].dims
            for case in ("dim_value after dim_param", "dim_param after dim_value",
                         "dim_value, dim_param, dim_value")]
    assert dims == [(1, 1, 2, 2), (1, None, 2, 2), (1, 1, 2, 2)]


# sha256 of serialize_model's bytes, pinned so that no change to the
# encoder can change a written file unnoticed
SERIALIZED_DIGESTS = {
    "A": "444b85c86ac9c5cb081a20abcd32c15d99ca1df4050a6de0720960b2ba0b9da6",
    "B": "e4c86ee0e63fff221c4c3cfd2dfe870253c026bd30662b2c2dbe474f4b4e46f8",
    "XNOR": "8ca260e22db661ec0efa8ffe26de0c429c2fb4826217affb416899779d4b6a55",
    "tiny 0-49": "e25c76d14a1e6a2b1762252ca1d66a457a04c0623bfe8a79bc86240835ce24de",
}


def test_serialized_bytes_are_pinned():
    got = {arch: hashlib.sha256(arch_model(*ARCHS[arch])).hexdigest()
           for arch in ARCHS}
    tiny = hashlib.sha256()
    for seed in range(50):
        tiny.update(serialize_model(random_tiny_network(np.random.default_rng(seed))))
    got["tiny 0-49"] = tiny.hexdigest()
    assert got == SERIALIZED_DIGESTS

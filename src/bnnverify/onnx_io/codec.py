"""Model file codec for the operator subset the networks here need.

Supported graph shape: a single chain of
Conv / Sign / MaxPool / BatchNormalization / Flatten (or an equivalent
Reshape) / MatMul (or a plain Gemm), starting at one rank-4 input laid
out channel-first.  The internal representation is channel-last, so
convolution weights are transposed and the weight rows of the first
dense layer after a flatten are permuted at this boundary.

Float tensors stay 32-bit; a ``raw_data`` payload is a read-only ``<f4``
view of the model bytes.  Each layer constructor is the one +-1 check and
takes the one private copy (float32 for +-1 weights, float64 for
batch-norm vectors), and ``layers.output_shape`` tracks and
checks the activation shape.  The codec checks a shape itself only where
its own indexing needs it: batch-norm vector lengths, and the dense input
length before the flatten row permutation.

Exactly one operator-set version is accepted; anything else is rejected
with a structured error rather than guessed at.  See docs/onnx-subset.md
for the wire-level field map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import __version__
from ..errors import (
    InvalidModelError,
    ModelFormatError,
    UnsupportedOpError,
)
from ..layers import (
    DEFAULT_BN_EPS,
    BatchNorm,
    Flatten,
    MaxPool,
    QConv,
    QDense,
    output_shape,
)
from ..network import Network
from . import wire
from .wire import WireReader, to_signed64

ONNX_OPSET = 13
IR_VERSION = 7

TENSOR_FLOAT = 1
TENSOR_INT64 = 7

ATTR_FLOAT = 1
ATTR_INT = 2
ATTR_STRING = 3
ATTR_INTS = 7


# ---------------------------------------------------------------------------
# decoded records


@dataclass
class AttrRecord:
    name: str = ""
    f: Optional[float] = None
    i: Optional[int] = None
    s: Optional[str] = None
    ints: Optional[list] = None


@dataclass
class NodeRecord:
    op_type: str = ""
    name: str = ""
    inputs: tuple = ()
    outputs: tuple = ()
    attrs: dict = field(default_factory=dict)

    def attr(self, name):
        return self.attrs.get(name)


@dataclass
class TensorRecord:
    name: str
    dims: tuple
    kind: str  # "float" or "int64"
    data: np.ndarray  # int64 or "<f4", already shaped to dims


@dataclass
class ValueInfoRecord:
    name: str
    dims: Optional[tuple]  # entries may be None for symbolic dims


@dataclass
class GraphRecord:
    name: str = ""
    nodes: list = field(default_factory=list)
    initializers: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


@dataclass
class ModelRecord:
    ir_version: Optional[int]
    opset_version: Optional[int]
    graph: GraphRecord


# ---------------------------------------------------------------------------
# wire -> records


def _read_packed_int64s(data, start, end):
    values = []
    reader = WireReader(data, start, end)
    while not reader.at_end():
        values.append(to_signed64(reader.read_varint()))
    return values


def _parse_opset(data, start, end):
    domain = ""
    version = None
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_LEN:
            domain = reader.read_string()
        elif fnum == 2 and wtype == wire.WIRE_VARINT:
            version = to_signed64(reader.read_varint())
        else:
            reader.skip(wtype)
    return domain, version


def _parse_attr(data, start, end):
    attr = AttrRecord()
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_LEN:
            attr.name = reader.read_string()
        elif fnum == 2 and wtype == wire.WIRE_FIXED32:
            attr.f = float(reader.read_float32())
        elif fnum == 3 and wtype == wire.WIRE_VARINT:
            attr.i = to_signed64(reader.read_varint())
        elif fnum == 4 and wtype == wire.WIRE_LEN:
            raw = reader.read_bytes()
            try:
                attr.s = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ModelFormatError(
                    "attribute string is not valid UTF-8",
                    byte_offset=reader.offset,
                ) from None
        elif fnum == 8 and wtype == wire.WIRE_LEN:
            sub = reader.read_len_window()
            attr.ints = (attr.ints or []) + _read_packed_int64s(data, *sub)
        elif fnum == 8 and wtype == wire.WIRE_VARINT:
            attr.ints = (attr.ints or []) + [to_signed64(reader.read_varint())]
        else:
            reader.skip(wtype)
    return attr


def _parse_node(data, start, end):
    node = NodeRecord()
    inputs = []
    outputs = []
    domain = ""
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_LEN:
            inputs.append(reader.read_string())
        elif fnum == 2 and wtype == wire.WIRE_LEN:
            outputs.append(reader.read_string())
        elif fnum == 3 and wtype == wire.WIRE_LEN:
            node.name = reader.read_string()
        elif fnum == 4 and wtype == wire.WIRE_LEN:
            node.op_type = reader.read_string()
        elif fnum == 5 and wtype == wire.WIRE_LEN:
            attr = _parse_attr(data, *reader.read_len_window())
            if attr.name in node.attrs:
                raise ModelFormatError(
                    f"duplicate attribute '{attr.name}' on node '{node.name}'"
                )
            node.attrs[attr.name] = attr
        elif fnum == 7 and wtype == wire.WIRE_LEN:
            domain = reader.read_string()
        else:
            reader.skip(wtype)
    if domain not in ("", "ai.onnx"):
        raise UnsupportedOpError(f"{domain}::{node.op_type or '?'}")
    node.inputs = tuple(inputs)
    node.outputs = tuple(outputs)
    return node


def _parse_tensor(data, start, end):
    dims = []
    data_type = None
    name = ""
    raw = None
    floats = None
    int64s = None
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_VARINT:
            dims.append(to_signed64(reader.read_varint()))
        elif fnum == 1 and wtype == wire.WIRE_LEN:
            dims.extend(_read_packed_int64s(data, *reader.read_len_window()))
        elif fnum == 2 and wtype == wire.WIRE_VARINT:
            data_type = reader.read_varint()
        elif fnum == 4 and wtype == wire.WIRE_LEN:
            payload = reader.read_bytes()
            if len(payload) % 4:
                raise ModelFormatError(
                    f"packed float data of tensor '{name}' has odd length",
                    byte_offset=reader.offset,
                )
            chunk = np.frombuffer(payload, dtype="<f4")
            floats = chunk if floats is None else np.concatenate([floats, chunk])
        elif fnum == 4 and wtype == wire.WIRE_FIXED32:
            value = np.frombuffer(reader.read_fixed32(), dtype="<f4")
            floats = value if floats is None else np.concatenate([floats, value])
        elif fnum == 7 and wtype == wire.WIRE_LEN:
            got = _read_packed_int64s(data, *reader.read_len_window())
            int64s = (int64s or []) + got
        elif fnum == 7 and wtype == wire.WIRE_VARINT:
            int64s = (int64s or []) + [to_signed64(reader.read_varint())]
        elif fnum == 8 and wtype == wire.WIRE_LEN:
            name = reader.read_string()
        elif fnum == 9 and wtype == wire.WIRE_LEN:
            start, stop = reader.read_len_window()
            raw = memoryview(data)[start:stop]
        elif fnum == 13 and wtype == wire.WIRE_LEN:
            raise ModelFormatError(
                f"tensor '{name}' uses external data, which is not supported",
                byte_offset=reader.offset,
            )
        elif fnum == 14 and wtype == wire.WIRE_VARINT:
            if reader.read_varint() != 0:
                raise ModelFormatError(
                    f"tensor '{name}' is stored outside the model file"
                )
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
                    f"raw data of float tensor '{name}' has odd length"
                )
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
                    f"raw data of int64 tensor '{name}' has odd length"
                )
            values = np.frombuffer(raw, dtype="<i8").astype(np.int64)
        elif int64s is not None:
            values = np.asarray(int64s, dtype=np.int64)
        else:
            raise ModelFormatError(f"int64 tensor '{name}' carries no data")
        kind = "int64"
    else:
        raise ModelFormatError(
            f"tensor '{name}' has unsupported data type {data_type}"
        )

    if values.size != count:
        raise ModelFormatError(
            f"tensor '{name}' declares {count} elements but carries {values.size}"
        )
    return TensorRecord(name=name, dims=tuple(dims), kind=kind,
                        data=values.reshape(tuple(dims)))


def _parse_dim(data, start, end):
    value = None
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_VARINT:
            value = to_signed64(reader.read_varint())
        elif fnum == 2 and wtype == wire.WIRE_LEN:
            reader.read_bytes()  # symbolic dimension name
            value = None
        else:
            reader.skip(wtype)
    return value


def _parse_value_info(data, start, end):
    name = ""
    dims = None
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_LEN:
            name = reader.read_string()
        elif fnum == 2 and wtype == wire.WIRE_LEN:
            type_reader = WireReader(data, *reader.read_len_window())
            while not type_reader.at_end():
                tnum, twt = type_reader.read_tag()
                if tnum == 1 and twt == wire.WIRE_LEN:  # tensor_type
                    tensor_reader = WireReader(data, *type_reader.read_len_window())
                    while not tensor_reader.at_end():
                        snum, swt = tensor_reader.read_tag()
                        if snum == 2 and swt == wire.WIRE_LEN:  # shape
                            dims = []
                            shape_reader = WireReader(
                                data, *tensor_reader.read_len_window()
                            )
                            while not shape_reader.at_end():
                                dnum, dwt = shape_reader.read_tag()
                                if dnum == 1 and dwt == wire.WIRE_LEN:
                                    dims.append(
                                        _parse_dim(
                                            data, *shape_reader.read_len_window()
                                        )
                                    )
                                else:
                                    shape_reader.skip(dwt)
                        else:
                            tensor_reader.skip(swt)
                else:
                    type_reader.skip(twt)
        else:
            reader.skip(wtype)
    return ValueInfoRecord(name=name, dims=None if dims is None else tuple(dims))


def _parse_graph(data, start, end):
    graph = GraphRecord()
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_LEN:
            graph.nodes.append(_parse_node(data, *reader.read_len_window()))
        elif fnum == 2 and wtype == wire.WIRE_LEN:
            graph.name = reader.read_string()
        elif fnum == 5 and wtype == wire.WIRE_LEN:
            tensor = _parse_tensor(data, *reader.read_len_window())
            if tensor.name in graph.initializers:
                raise InvalidModelError(
                    f"duplicate initializer '{tensor.name}'"
                )
            graph.initializers[tensor.name] = tensor
        elif fnum == 11 and wtype == wire.WIRE_LEN:
            graph.inputs.append(_parse_value_info(data, *reader.read_len_window()))
        elif fnum == 12 and wtype == wire.WIRE_LEN:
            graph.outputs.append(_parse_value_info(data, *reader.read_len_window()))
        elif fnum == 15 and wtype == wire.WIRE_LEN:
            raise ModelFormatError(
                "sparse initializers are not supported",
                byte_offset=reader.offset,
            )
        else:
            reader.skip(wtype)
    return graph


def decode_model(data: bytes) -> ModelRecord:
    """Decode the protobuf container into structured records.

    Checks the operator-set version; graph semantics are validated later
    by ``network_from_records``.
    """
    data = bytes(data)
    ir_version = None
    opsets = []
    graph_window = None
    reader = WireReader(data)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == 1 and wtype == wire.WIRE_VARINT:
            ir_version = to_signed64(reader.read_varint())
        elif fnum == 7 and wtype == wire.WIRE_LEN:
            if graph_window is not None:
                raise ModelFormatError(
                    "more than one graph in the model", byte_offset=reader.offset
                )
            graph_window = reader.read_len_window()
        elif fnum == 8 and wtype == wire.WIRE_LEN:
            opsets.append(_parse_opset(data, *reader.read_len_window()))
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
            raise ModelFormatError(
                f"operator set domain '{domain}' is not supported"
            )
    if opset_version != ONNX_OPSET:
        raise ModelFormatError(
            f"operator set version {opset_version} is not supported; "
            f"this codec handles opset {ONNX_OPSET} only"
        )

    graph = _parse_graph(data, *graph_window)
    return ModelRecord(ir_version=ir_version, opset_version=opset_version,
                       graph=graph)


# ---------------------------------------------------------------------------
# records -> Network


def _attr_ints(node, name, default=None):
    attr = node.attr(name)
    if attr is None:
        return default
    if attr.ints is None:
        raise ModelFormatError(
            f"attribute '{name}' of node '{node.name}' carries no int list"
        )
    return list(attr.ints)


def _attr_int(node, name, default=None):
    attr = node.attr(name)
    if attr is None:
        return default
    # proto3 omits zero scalars on the wire, so a present-but-empty
    # attribute means the value 0
    return attr.i if attr.i is not None else 0


def _attr_float(node, name, default=None):
    attr = node.attr(name)
    if attr is None:
        return default
    return attr.f if attr.f is not None else 0.0


def _attr_string(node, name, default=""):
    attr = node.attr(name)
    if attr is None:
        return default
    return attr.s if attr.s is not None else ""


def _reject_unknown_attrs(node, known):
    for name in node.attrs:
        if name not in known:
            raise UnsupportedOpError(
                f"{node.op_type} with attribute '{name}'"
            )


def _require_auto_pad_off(node):
    pad = _attr_string(node, "auto_pad", "NOTSET")
    if pad not in ("", "NOTSET", "VALID"):
        raise UnsupportedOpError(f"{node.op_type} with auto_pad={pad}")


def _initializer(graph, node, tensor_name):
    tensor = graph.initializers.get(tensor_name)
    if tensor is None:
        raise InvalidModelError(
            f"node '{node.name}' references unknown tensor '{tensor_name}'"
        )
    return tensor


def _weight(graph, node, rank):
    tensor = _initializer(graph, node, node.inputs[1])
    if tensor.kind != "float" or len(tensor.dims) != rank:
        raise InvalidModelError(
            f"{node.op_type} weight '{tensor.name}' must be a rank-{rank} "
            "float tensor"
        )
    return tensor


def _binary_layer(cls, weight, **fields):
    """``cls(**fields)``.  Its shape fields come from the tensor's own
    dims, so the constructor can only fail its +-1 check or its fan-in
    limit; the error is re-raised naming the tensor."""
    try:
        return cls(**fields)
    except InvalidModelError as exc:
        raise InvalidModelError(f"weight tensor '{weight.name}': {exc}") from None


def _bn_vector(graph, node, tensor_name, channels, role):
    tensor = _initializer(graph, node, tensor_name)
    if tensor.kind != "float" or len(tensor.dims) != 1:
        raise InvalidModelError(
            f"normalization {role} '{tensor.name}' must be a float vector"
        )
    if tensor.dims[0] != channels:
        raise InvalidModelError(
            f"normalization {role} '{tensor.name}' has {tensor.dims[0]} "
            f"entries, expected {channels}"
        )
    return tensor.data


def _flatten_permutation(h, w, c):
    """Row map taking channel-first flat order to channel-last flat order."""
    return np.arange(c * h * w).reshape(c, h, w).transpose(1, 2, 0).ravel()


def _inverse_flatten_permutation(h, w, c):
    return np.arange(h * w * c).reshape(h, w, c).transpose(2, 0, 1).ravel()


def network_from_records(model: ModelRecord) -> Network:
    graph = model.graph
    if not graph.nodes:
        raise InvalidModelError("graph has no nodes")

    real_inputs = [vi for vi in graph.inputs
                   if vi.name not in graph.initializers]
    if len(real_inputs) != 1:
        raise InvalidModelError(
            f"expected exactly one graph input, found {len(real_inputs)}"
        )
    if len(graph.outputs) != 1:
        raise InvalidModelError(
            f"expected exactly one graph output, found {len(graph.outputs)}"
        )
    entry = real_inputs[0]
    exit_name = graph.outputs[0].name
    if not entry.name:
        raise InvalidModelError("graph input has no name")

    if entry.dims is None or len(entry.dims) != 4:
        rank = "unknown" if entry.dims is None else len(entry.dims)
        raise InvalidModelError(
            f"graph input must be rank-4 channel-first, got rank {rank}"
        )
    batch, chan, height, width = entry.dims
    if batch not in (None, 1):
        raise InvalidModelError(f"batch dimension must be 1, got {batch}")
    for d in (chan, height, width):
        if d is None or d < 1:
            raise InvalidModelError(
                f"graph input has non-concrete shape {entry.dims}"
            )

    consumers = {}
    for node in graph.nodes:
        if not node.op_type:
            raise InvalidModelError(f"node '{node.name}' is missing op_type")
        if not node.inputs:
            raise InvalidModelError(f"node '{node.name}' has no inputs")
        if len(node.outputs) != 1:
            raise UnsupportedOpError(
                f"{node.op_type} with {len(node.outputs)} outputs"
            )
        if node.outputs[0] in graph.initializers:
            raise InvalidModelError(
                f"node '{node.name}' writes initializer '{node.outputs[0]}'"
            )
        if node.inputs[0] in consumers:
            raise InvalidModelError(
                f"tensor '{node.inputs[0]}' is consumed twice; "
                "the graph is not a single chain"
            )
        consumers[node.inputs[0]] = node

    layers = []
    shape = (height, width, chan)  # channel-last, as output_shape reports it
    pending_sign = False
    perm = None  # pending row map for the first dense after a flatten
    current = entry.name
    visited = 0

    def expect_inputs(node, low, high):
        if not low <= len(node.inputs) <= high:
            raise InvalidModelError(
                f"{node.op_type} node '{node.name}' has {len(node.inputs)} "
                f"inputs, expected {low}..{high}"
            )

    while current != exit_name:
        node = consumers.get(current)
        if node is None:
            raise InvalidModelError(
                f"no node consumes tensor '{current}'; broken chain"
            )
        visited += 1
        if visited > len(graph.nodes):
            raise InvalidModelError("graph chain loops back on itself")
        op = node.op_type
        layer = None

        if op == "Sign":
            expect_inputs(node, 1, 1)
            _reject_unknown_attrs(node, ())
            if pending_sign:
                raise UnsupportedOpError("consecutive Sign nodes")
            pending_sign = True

        elif op == "Conv":
            expect_inputs(node, 2, 3)
            _reject_unknown_attrs(node, ("auto_pad", "dilations", "group",
                                         "kernel_shape", "pads", "strides"))
            _require_auto_pad_off(node)
            if _attr_int(node, "group", 1) != 1:
                raise UnsupportedOpError("Conv with group != 1")
            if any(d != 1 for d in _attr_ints(node, "dilations", [1, 1])):
                raise UnsupportedOpError("Conv with dilation")
            if any(s != 1 for s in _attr_ints(node, "strides", [1, 1])):
                raise UnsupportedOpError("Conv with stride != 1")
            if any(p != 0 for p in _attr_ints(node, "pads", [0, 0, 0, 0])):
                raise UnsupportedOpError("Conv with padding")
            weight = _weight(graph, node, 4)
            out_ch, _, kh, kw = weight.dims
            ks = _attr_ints(node, "kernel_shape", [kh, kw])
            if list(ks) != [kh, kw]:
                raise InvalidModelError(
                    f"kernel_shape {ks} disagrees with weight dims "
                    f"{[kh, kw]} on node '{node.name}'"
                )
            if len(node.inputs) == 3 and node.inputs[2]:
                bias = _initializer(graph, node, node.inputs[2])
                if bias.kind != "float" or np.any(bias.data != 0.0):
                    raise UnsupportedOpError("Conv with non-zero bias")
            layer = _binary_layer(
                QConv, weight, out_channels=out_ch, kernel_h=kh, kernel_w=kw,
                weights=weight.data.transpose(2, 3, 1, 0),  # (kh, kw, in, out)
                quantize_input=pending_sign)
            pending_sign = False

        elif op == "MaxPool":
            expect_inputs(node, 1, 1)
            _reject_unknown_attrs(node, ("auto_pad", "ceil_mode", "dilations",
                                         "kernel_shape", "pads", "strides",
                                         "storage_order"))
            _require_auto_pad_off(node)
            if pending_sign:
                raise UnsupportedOpError("Sign feeding MaxPool")
            if _attr_int(node, "ceil_mode", 0) != 0:
                raise UnsupportedOpError("MaxPool with ceil_mode")
            if _attr_int(node, "storage_order", 0) != 0:
                raise UnsupportedOpError("MaxPool with storage_order")
            if any(d != 1 for d in _attr_ints(node, "dilations", [1, 1])):
                raise UnsupportedOpError("MaxPool with dilation")
            if any(p != 0 for p in _attr_ints(node, "pads", [0, 0, 0, 0])):
                raise UnsupportedOpError("MaxPool with padding")
            ks = _attr_ints(node, "kernel_shape", None)
            if ks is None:
                raise InvalidModelError(
                    f"MaxPool node '{node.name}' is missing kernel_shape"
                )
            strides = _attr_ints(node, "strides", [1, 1])
            if ks != [2, 2] or strides != [2, 2]:
                raise UnsupportedOpError(
                    f"MaxPool with kernel {ks} and stride {strides}; only "
                    "kernel [2, 2] with stride [2, 2] is supported"
                )
            layer = MaxPool()

        elif op == "BatchNormalization":
            expect_inputs(node, 5, 5)
            _reject_unknown_attrs(node, ("epsilon", "momentum", "spatial",
                                         "training_mode"))
            if pending_sign:
                raise UnsupportedOpError("Sign feeding BatchNormalization")
            if _attr_int(node, "training_mode", 0) != 0:
                raise UnsupportedOpError("BatchNormalization in training mode")
            if _attr_int(node, "spatial", 1) != 1:
                raise UnsupportedOpError("BatchNormalization with spatial=0")
            eps_attr = node.attr("epsilon")
            if eps_attr is None:
                epsilon = float(np.float32(1e-5))
            elif eps_attr.f is None:
                raise ModelFormatError(
                    f"epsilon of node '{node.name}' carries no float value"
                )
            else:
                epsilon = eps_attr.f
            channels = shape[-1]
            gamma = _bn_vector(graph, node, node.inputs[1], channels, "scale")
            beta = _bn_vector(graph, node, node.inputs[2], channels, "shift")
            mean = _bn_vector(graph, node, node.inputs[3], channels, "mean")
            var = _bn_vector(graph, node, node.inputs[4], channels, "variance")
            if perm is not None:
                gamma, beta = gamma[perm], beta[perm]
                mean, var = mean[perm], var[perm]
            layer = BatchNorm(gamma=gamma, beta=beta, moving_mean=mean,
                              moving_variance=var, eps=epsilon)

        elif op in ("Flatten", "Reshape"):
            if len(shape) != 3:
                raise InvalidModelError(f"{op} applied to a flattened tensor")
            h, w, c = shape
            if op == "Flatten":
                expect_inputs(node, 1, 1)
                _reject_unknown_attrs(node, ("axis",))
                if _attr_int(node, "axis", 1) not in (0, 1):
                    raise UnsupportedOpError(
                        f"Flatten with axis={_attr_int(node, 'axis')}"
                    )
            else:
                expect_inputs(node, 2, 2)
                _reject_unknown_attrs(node, ("allowzero",))
                if _attr_int(node, "allowzero", 0) != 0:
                    raise UnsupportedOpError("Reshape with allowzero")
                shape_tensor = _initializer(graph, node, node.inputs[1])
                if shape_tensor.kind != "int64" or len(shape_tensor.dims) != 1:
                    raise InvalidModelError(
                        f"Reshape shape '{shape_tensor.name}' must be an "
                        "int64 vector"
                    )
                target = _resolve_reshape(
                    [int(v) for v in shape_tensor.data],
                    (1, c, h, w), node.name,
                )
                if target != (1, c * h * w):
                    raise UnsupportedOpError(
                        f"Reshape to {target}; only flattening to "
                        f"(1, {c * h * w}) is supported"
                    )
            layer = Flatten()
            perm = _flatten_permutation(h, w, c)
            # a pending Sign commutes with reshaping; leave it pending

        elif op in ("MatMul", "Gemm"):
            if op == "MatMul":
                expect_inputs(node, 2, 2)
                _reject_unknown_attrs(node, ())
            else:
                expect_inputs(node, 2, 3)
                _reject_unknown_attrs(node, ("alpha", "beta", "transA",
                                             "transB"))
                if _attr_float(node, "alpha", 1.0) != 1.0:
                    raise UnsupportedOpError("Gemm with alpha != 1")
                if _attr_int(node, "transA", 0) != 0:
                    raise UnsupportedOpError("Gemm with transA")
                if len(node.inputs) == 3 and node.inputs[2]:
                    beta = _attr_float(node, "beta", 1.0)
                    bias = _initializer(graph, node, node.inputs[2])
                    if beta != 0.0 and (bias.kind != "float"
                                        or np.any(bias.data != 0.0)):
                        raise UnsupportedOpError("Gemm with non-zero bias")
            weight = _weight(graph, node, 2)
            matrix = weight.data
            if op == "Gemm" and _attr_int(node, "transB", 0) == 1:
                matrix = matrix.T
            k, m = matrix.shape
            if shape != (k,):
                raise InvalidModelError(
                    f"{op} weight '{weight.name}' expects {k} inputs, "
                    f"tensor has shape {shape}"
                )
            if perm is not None:
                matrix = matrix[perm, :]
                perm = None
            layer = _binary_layer(QDense, weight, out_features=m,
                                  weights=matrix, quantize_input=pending_sign)
            pending_sign = False

        else:
            raise UnsupportedOpError(op)

        if layer is not None:
            layers.append(layer)
            shape = output_shape(layer, shape, len(layers) - 1)
        current = node.outputs[0]

    if visited != len(graph.nodes):
        raise InvalidModelError(
            f"{len(graph.nodes) - visited} node(s) unreachable from the input"
        )
    if pending_sign:
        raise UnsupportedOpError("trailing Sign after the last layer")
    net = Network(input_shape=(height, width, chan), layers=tuple(layers),
                  num_classes=shape[-1])

    declared = graph.outputs[0].dims
    if declared is not None and (len(declared) != 2
                                 or declared[0] not in (None, 1)
                                 or declared[1] not in (None, net.num_classes)):
        raise InvalidModelError(
            f"declared output shape {declared} does not match "
            f"computed (1, {net.num_classes})"
        )
    return net


def _resolve_reshape(values, in_dims, node_name):
    if values.count(-1) > 1:
        raise InvalidModelError(
            f"Reshape node '{node_name}' has multiple -1 entries"
        )
    total = 1
    for d in in_dims:
        total *= d
    resolved = []
    for pos, v in enumerate(values):
        if v == 0:
            if pos >= len(in_dims):
                raise InvalidModelError(
                    f"Reshape node '{node_name}' copies a missing dimension"
                )
            resolved.append(in_dims[pos])
        else:
            resolved.append(v)
    if -1 in resolved:
        known = 1
        for v in resolved:
            if v != -1:
                known *= v
        if known <= 0 or total % known:
            raise InvalidModelError(
                f"Reshape node '{node_name}' target {values} does not "
                f"divide {total} elements"
            )
        resolved[resolved.index(-1)] = total // known
    return tuple(resolved)


def parse_model(data: bytes) -> Network:
    """Decode model bytes and build the executable network."""
    return network_from_records(decode_model(data))


# ---------------------------------------------------------------------------
# Network -> wire


def _attr_float_bytes(name, value):
    return (wire.field_string(1, name)
            + wire.field_float32(2, value)
            + wire.field_varint(20, ATTR_FLOAT))


def _attr_int_bytes(name, value):
    return (wire.field_string(1, name)
            + wire.field_varint(3, value)
            + wire.field_varint(20, ATTR_INT))


def _attr_ints_bytes(name, values):
    return (wire.field_string(1, name)
            + wire.packed_varints(8, values)
            + wire.field_varint(20, ATTR_INTS))


def _node_bytes(op_type, name, inputs, outputs, attrs=()):
    body = b"".join(wire.field_string(1, t) for t in inputs)
    body += b"".join(wire.field_string(2, t) for t in outputs)
    body += wire.field_string(3, name)
    body += wire.field_string(4, op_type)
    body += b"".join(wire.field_len(5, a) for a in attrs)
    return body


def _float_tensor_bytes(name, array):
    array = np.ascontiguousarray(array, dtype="<f4")
    body = wire.packed_varints(1, array.shape)
    body += wire.field_varint(2, TENSOR_FLOAT)
    body += wire.field_string(8, name)
    body += wire.field_len(9, array.tobytes())
    return body


def _value_info_bytes(name, dims):
    dim_blobs = b"".join(
        wire.field_len(1, wire.field_varint(1, d)) for d in dims
    )
    shape = wire.field_len(2, dim_blobs)
    tensor_type = wire.field_varint(1, TENSOR_FLOAT) + shape
    type_proto = wire.field_len(1, tensor_type)
    return wire.field_string(1, name) + wire.field_len(2, type_proto)


def serialize_model(net: Network, *, graph_name: str = "bnn") -> bytes:
    """Encode ``net`` as model bytes parseable by :func:`parse_model`.

    Weights and normalization statistics are written as 32-bit floats,
    the layout convention of the interchange format; values that are not
    representable at that precision are rounded.
    """
    h, w, c = net.input_shape
    shapes = net.layer_shapes()
    nodes = []
    inits = []
    current = "input"
    next_id = 0
    flat_src = None  # channel-last shape feeding the pending permutation

    def fresh():
        nonlocal next_id
        name = f"t{next_id}"
        next_id += 1
        return name

    for i, layer in enumerate(net.layers):
        if isinstance(layer, (QConv, QDense)) and layer.quantize_input:
            out = fresh()
            nodes.append(_node_bytes("Sign", f"sign_{i}", [current], [out]))
            current = out

        if isinstance(layer, QConv):
            weight_name = f"conv{i}_w"
            kernel = layer.weights.transpose(3, 2, 0, 1)  # to (out, in, kh, kw)
            inits.append(_float_tensor_bytes(weight_name, kernel))
            out = fresh()
            nodes.append(_node_bytes(
                "Conv", f"conv_{i}", [current, weight_name], [out],
                attrs=[
                    _attr_ints_bytes("dilations", [1, 1]),
                    _attr_int_bytes("group", 1),
                    _attr_ints_bytes("kernel_shape",
                                     [layer.kernel_h, layer.kernel_w]),
                    _attr_ints_bytes("pads", [0, 0, 0, 0]),
                    _attr_ints_bytes("strides", [1, 1]),
                ],
            ))
            current = out

        elif isinstance(layer, MaxPool):
            out = fresh()
            nodes.append(_node_bytes(
                "MaxPool", f"pool_{i}", [current], [out],
                attrs=[
                    _attr_ints_bytes("kernel_shape", [2, 2]),
                    _attr_ints_bytes("pads", [0, 0, 0, 0]),
                    _attr_ints_bytes("strides", [2, 2]),
                ],
            ))
            current = out

        elif isinstance(layer, BatchNorm):
            names = [f"bn{i}_scale", f"bn{i}_shift", f"bn{i}_mean", f"bn{i}_var"]
            for tensor_name, vec in zip(names, (layer.gamma, layer.beta,
                                                layer.moving_mean,
                                                layer.moving_variance)):
                inits.append(_float_tensor_bytes(tensor_name, vec))
            out = fresh()
            nodes.append(_node_bytes(
                "BatchNormalization", f"bn_{i}", [current] + names, [out],
                attrs=[_attr_float_bytes("epsilon", layer.eps)],
            ))
            current = out

        elif isinstance(layer, Flatten):
            out = fresh()
            nodes.append(_node_bytes(
                "Flatten", f"flatten_{i}", [current], [out],
                attrs=[_attr_int_bytes("axis", 1)],
            ))
            current = out
            flat_src = shapes[i]  # (h, w, c) feeding this flatten

        elif isinstance(layer, QDense):
            weight_name = f"dense{i}_w"
            matrix = layer.weights
            if flat_src is not None:
                fh, fw, fc = flat_src
                matrix = matrix[_inverse_flatten_permutation(fh, fw, fc), :]
                flat_src = None
            inits.append(_float_tensor_bytes(weight_name, matrix))
            out = fresh()
            nodes.append(_node_bytes(
                "MatMul", f"dense_{i}", [current, weight_name], [out],
            ))
            current = out

        else:
            raise InvalidModelError(
                f"cannot serialize layer of type {type(layer).__name__}"
            )

    graph = b"".join(wire.field_len(1, n) for n in nodes)
    graph += wire.field_string(2, graph_name)
    graph += b"".join(wire.field_len(5, t) for t in inits)
    graph += wire.field_len(11, _value_info_bytes("input", (1, c, h, w)))
    graph += wire.field_len(12, _value_info_bytes(current,
                                                  (1, net.num_classes)))

    opset = wire.field_varint(2, ONNX_OPSET)
    model = wire.field_varint(1, IR_VERSION)
    model += wire.field_string(2, "bnnverify")
    model += wire.field_string(3, __version__)
    model += wire.field_len(7, graph)
    model += wire.field_len(8, opset)
    return model

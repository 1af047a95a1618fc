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

``OPERATORS`` states the accepted operators, with their input counts and
attributes, and every node is checked against it.  Exactly one
operator-set version is accepted; anything else is rejected with a
structured error rather than guessed at.  See docs/onnx-subset.md for
the wire-level field map.
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


def _len_windows(data, start, end, number):
    """The (start, end) windows of every length-delimited field ``number``."""
    windows = []
    reader = WireReader(data, start, end)
    while not reader.at_end():
        fnum, wtype = reader.read_tag()
        if fnum == number and wtype == wire.WIRE_LEN:
            windows.append(reader.read_len_window())
        else:
            reader.skip(wtype)
    return windows


def _parse_value_info(data, start, end):
    name = ""
    for s, e in _len_windows(data, start, end, 1):
        try:
            name = data[s:e].decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(
                "value name is not valid UTF-8", byte_offset=s
            ) from None
    dims = None
    for type_window in _len_windows(data, start, end, 2):
        for tensor_window in _len_windows(data, *type_window, 1):  # tensor_type
            for shape_window in _len_windows(data, *tensor_window, 2):  # shape
                dims = [_parse_dim(data, *window)
                        for window in _len_windows(data, *shape_window, 1)]
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


# The operator subset, stated once.  Each op maps to its fewest and most
# inputs and to its attributes; each attribute maps to its default (None:
# required) and its accepted values (None: any).  An attribute's kind is
# its default's type: int, float, str or a list of ints.  The one required
# attribute, MaxPool's kernel_shape, is a list of ints.
_PADDING_OFF = ("", "NOTSET", "VALID")
OPERATORS = {
    "Sign": (1, 1, {}),
    "Conv": (2, 3, {
        "auto_pad": ("NOTSET", _PADDING_OFF),
        "dilations": ([1, 1], ([1, 1],)),
        "group": (1, (1,)),
        "kernel_shape": ([], None),  # [] means: the weight's kernel dims
        "pads": ([0, 0, 0, 0], ([0, 0, 0, 0],)),
        "strides": ([1, 1], ([1, 1],)),
    }),
    "MaxPool": (1, 1, {
        "auto_pad": ("NOTSET", _PADDING_OFF),
        "ceil_mode": (0, (0,)),
        "dilations": ([1, 1], ([1, 1],)),
        "kernel_shape": (None, None),
        "pads": ([0, 0, 0, 0], ([0, 0, 0, 0],)),
        "storage_order": (0, (0,)),
        "strides": ([1, 1], None),
    }),
    "BatchNormalization": (5, 5, {
        "epsilon": (float(np.float32(1e-5)), None),
        "momentum": (0.9, None),
        "spatial": (1, (1,)),
        "training_mode": (0, (0,)),
    }),
    "Flatten": (1, 1, {"axis": (1, (0, 1))}),
    "Reshape": (2, 2, {"allowzero": (0, (0,))}),
    "MatMul": (2, 2, {}),
    "Gemm": (2, 3, {
        "alpha": (1.0, (1.0,)),
        "beta": (1.0, None),
        "transA": (0, (0,)),
        "transB": (0, (0, 1)),
    }),
}


def _node_attrs(node):
    """Check ``node`` against ``OPERATORS``; return every attribute of its
    op, typed, with the defaults filled in."""
    if node.op_type not in OPERATORS:
        raise UnsupportedOpError(node.op_type)
    low, high, table = OPERATORS[node.op_type]
    if not low <= len(node.inputs) <= high:
        raise InvalidModelError(
            f"{node.op_type} node '{node.name}' has {len(node.inputs)} "
            f"inputs, expected {low}..{high}"
        )
    for name in node.attrs:
        if name not in table:
            raise UnsupportedOpError(f"{node.op_type} with attribute '{name}'")
    values = {}
    for name, (default, accepted) in table.items():
        attr = node.attrs.get(name)
        if attr is None:
            if default is None:
                raise InvalidModelError(
                    f"{node.op_type} node '{node.name}' is missing {name}"
                )
            value = default
        elif default is None or isinstance(default, list):
            if attr.ints is None:
                raise ModelFormatError(
                    f"attribute '{name}' of node '{node.name}' carries no "
                    "int list"
                )
            value = list(attr.ints)
        else:
            kind = type(default)
            value = {int: attr.i, float: attr.f, str: attr.s}[kind]
            # proto3 omits zero scalars on the wire, so a present-but-empty
            # attribute means 0, 0.0 or ""
            value = kind() if value is None else value
        if accepted is not None and value not in accepted:
            raise UnsupportedOpError(f"{node.op_type} with {name}={value}")
        values[name] = value
    return values


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


def _nonzero_bias(graph, node):
    """Whether the optional third input names a bias that is not all
    float zeros."""
    if len(node.inputs) < 3 or not node.inputs[2]:
        return False
    bias = _initializer(graph, node, node.inputs[2])
    return bias.kind != "float" or bool(np.any(bias.data != 0.0))


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
        attrs = _node_attrs(node)
        layer = None

        if op == "Sign":
            if pending_sign:
                raise UnsupportedOpError("consecutive Sign nodes")
            pending_sign = True

        elif op == "Conv":
            weight = _weight(graph, node, 4)
            out_ch, _, kh, kw = weight.dims
            ks = attrs["kernel_shape"]
            if ks not in ([], [kh, kw]):
                raise InvalidModelError(
                    f"kernel_shape {ks} disagrees with weight dims "
                    f"{[kh, kw]} on node '{node.name}'"
                )
            if _nonzero_bias(graph, node):
                raise UnsupportedOpError("Conv with non-zero bias")
            layer = _binary_layer(
                QConv, weight, out_channels=out_ch, kernel_h=kh, kernel_w=kw,
                weights=weight.data.transpose(2, 3, 1, 0),  # (kh, kw, in, out)
                quantize_input=pending_sign)
            pending_sign = False

        elif op == "MaxPool":
            if pending_sign:
                raise UnsupportedOpError("Sign feeding MaxPool")
            ks, strides = attrs["kernel_shape"], attrs["strides"]
            if ks != [2, 2] or strides != [2, 2]:
                raise UnsupportedOpError(
                    f"MaxPool with kernel {ks} and stride {strides}; only "
                    "kernel [2, 2] with stride [2, 2] is supported"
                )
            layer = MaxPool()

        elif op == "BatchNormalization":
            if pending_sign:
                raise UnsupportedOpError("Sign feeding BatchNormalization")
            if "epsilon" in node.attrs and node.attrs["epsilon"].f is None:
                raise ModelFormatError(
                    f"epsilon of node '{node.name}' carries no float value"
                )
            channels = shape[-1]
            gamma = _bn_vector(graph, node, node.inputs[1], channels, "scale")
            beta = _bn_vector(graph, node, node.inputs[2], channels, "shift")
            mean = _bn_vector(graph, node, node.inputs[3], channels, "mean")
            var = _bn_vector(graph, node, node.inputs[4], channels, "variance")
            if perm is not None:
                gamma, beta = gamma[perm], beta[perm]
                mean, var = mean[perm], var[perm]
            layer = BatchNorm(gamma=gamma, beta=beta, moving_mean=mean,
                              moving_variance=var, eps=attrs["epsilon"])

        elif op in ("Flatten", "Reshape"):
            if len(shape) != 3:
                raise InvalidModelError(f"{op} applied to a flattened tensor")
            h, w, c = shape
            if op == "Reshape":
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

        else:  # MatMul, or Gemm: the only op here with a bias and transB
            if _nonzero_bias(graph, node) and attrs["beta"] != 0.0:
                raise UnsupportedOpError("Gemm with non-zero bias")
            weight = _weight(graph, node, 2)
            matrix = weight.data.T if attrs.get("transB") else weight.data
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

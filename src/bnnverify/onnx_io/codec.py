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
attributes, and every node is checked against it.  ``FIELDS`` states
every protobuf field that is read or written, and the decoder and the
serializer both take their field numbers from it.  Exactly one
operator-set version is accepted; anything else is rejected with a
structured error rather than guessed at.  docs/onnx-subset.md restates
both tables: its operator table restates ``OPERATORS`` and its field-map
block restates ``FIELDS``, and tests check that each matches.
"""

from __future__ import annotations

import math
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

ONNX_OPSET = 13
IR_VERSION = 7

TENSOR_FLOAT = 1
TENSOR_INT64 = 7

ATTR_FLOAT = 1
ATTR_INT = 2
ATTR_STRING = 3
ATTR_INTS = 7


# Every protobuf field the codec reads or writes: message -> field name ->
# (wire number, kind), with the kinds of ``wire.KINDS``.  A "bytes" field
# is kept as a window and never decoded.  The field map in
# docs/onnx-subset.md restates this table.
FIELDS = {
    "ModelProto": {
        "ir_version": (1, "int"), "producer_name": (2, "bytes"),
        "producer_version": (3, "bytes"), "graph": (7, "message"),
        "opset_import": (8, "message")},
    "OperatorSetIdProto": {"domain": (1, "string"), "version": (2, "int")},
    "GraphProto": {
        "node": (1, "message"), "name": (2, "string"),
        "initializer": (5, "message"), "input": (11, "message"),
        "output": (12, "message"), "sparse_initializer": (15, "message")},
    "NodeProto": {
        "input": (1, "string"), "output": (2, "string"), "name": (3, "string"),
        "op_type": (4, "string"), "attribute": (5, "message"),
        "domain": (7, "string")},
    "AttributeProto": {
        "name": (1, "string"), "f": (2, "float"), "i": (3, "int"),
        "s": (4, "string"), "ints": (8, "ints"), "type": (20, "int")},
    "TensorProto": {
        "dims": (1, "ints"), "data_type": (2, "int"),
        "float_data": (4, "floats"), "int64_data": (7, "ints"),
        "name": (8, "string"), "raw_data": (9, "bytes"),
        "external_data": (13, "message"), "data_location": (14, "int")},
    "ValueInfoProto": {"name": (1, "string"), "type": (2, "message")},
    "TypeProto": {"tensor_type": (1, "message")},
    "TypeProto.Tensor": {"elem_type": (1, "int"), "shape": (2, "message")},
    "TensorShapeProto": {"dim": (1, "message")},
    "TensorShapeProto.Dimension": {"dim_value": (1, "int"),
                                   "dim_param": (2, "bytes")},
}
_NUMBERS = {
    message: {number: (name, wire.KINDS[kind])
              for name, (number, kind) in fields.items()}
    for message, fields in FIELDS.items()
}


def _read(data, window, message):
    """The fields of ``message`` in ``data[window]``, each a list of values
    in wire order; a singular field holds the last one,
    ``f.get(name, [default])[-1]``."""
    return wire.read_fields(data, *window, _NUMBERS[message])


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


def _parse_attr(data, window):
    f = _read(data, window, "AttributeProto")
    return AttrRecord(name=f.get("name", [""])[-1], f=f.get("f", [None])[-1],
                      i=f.get("i", [None])[-1], s=f.get("s", [None])[-1],
                      ints=f.get("ints"))


def _parse_node(data, window):
    f = _read(data, window, "NodeProto")
    node = NodeRecord(op_type=f.get("op_type", [""])[-1],
                      name=f.get("name", [""])[-1],
                      inputs=tuple(f.get("input", ())),
                      outputs=tuple(f.get("output", ())))
    for attr_window in f.get("attribute", ()):
        attr = _parse_attr(data, attr_window)
        if attr.name in node.attrs:
            raise ModelFormatError(
                f"duplicate attribute '{attr.name}' on node '{node.name}'"
            )
        node.attrs[attr.name] = attr
    domain = f.get("domain", [""])[-1]
    if domain not in ("", "ai.onnx"):
        raise UnsupportedOpError(f"{domain}::{node.op_type or '?'}")
    return node


def _parse_tensor(data, window):
    f = _read(data, window, "TensorProto")
    name = f.get("name", [""])[-1]
    if "external_data" in f:
        raise ModelFormatError(
            f"tensor '{name}' uses external data, which is not supported",
            byte_offset=f["external_data"][0][0],
        )
    if any(f.get("data_location", ())):
        raise ModelFormatError(f"tensor '{name}' is stored outside the model file")
    if any(len(chunk) % 4 for chunk in f.get("float_data", ())):
        raise ModelFormatError(
            f"packed float data of tensor '{name}' has odd length"
        )
    dims = tuple(f.get("dims", ()))
    for d in dims:
        if d < 0:
            raise ModelFormatError(f"tensor '{name}' has negative dimension {d}")

    data_type = f.get("data_type", [None])[-1]
    if data_type == TENSOR_FLOAT:
        kind, dtype, size, listed = "float", "<f4", 4, "float_data"
    elif data_type == TENSOR_INT64:
        kind, dtype, size, listed = "int64", "<i8", 8, "int64_data"
    else:
        raise ModelFormatError(
            f"tensor '{name}' has unsupported data type {data_type}"
        )
    if "raw_data" in f:
        start, stop = f["raw_data"][-1]
        if (stop - start) % size:
            raise ModelFormatError(
                f"raw data of {kind} tensor '{name}' has odd length"
            )
        values = np.frombuffer(memoryview(data)[start:stop], dtype=dtype)
    elif listed not in f:
        raise ModelFormatError(f"{kind} tensor '{name}' carries no data")
    elif kind == "float":
        values = np.frombuffer(b"".join(f[listed]), dtype=dtype)
    else:
        values = np.asarray(f[listed], dtype=np.int64)

    if values.size != math.prod(dims):
        raise ModelFormatError(f"tensor '{name}' declares {math.prod(dims)} "
                               f"elements but carries {values.size}")
    return TensorRecord(name=name, dims=dims, kind=kind,
                        data=values.reshape(dims))


def _parse_dim(data, window):
    f = _read(data, window, "TensorShapeProto.Dimension")
    # dim_value and dim_param are a oneof: the one read last holds, and a
    # symbolic dimension is unknown
    return f["dim_value"][-1] if list(f)[-1:] == ["dim_value"] else None


def _parse_value_info(data, window):
    f = _read(data, window, "ValueInfoProto")
    dims = None
    for type_window in f.get("type", ()):
        for tensor in _read(data, type_window, "TypeProto").get("tensor_type", ()):
            for shape in _read(data, tensor, "TypeProto.Tensor").get("shape", ()):
                dims = tuple(
                    _parse_dim(data, dim)
                    for dim in _read(data, shape, "TensorShapeProto").get("dim", ())
                )
    return ValueInfoRecord(name=f.get("name", [""])[-1], dims=dims)


def _parse_graph(data, window):
    f = _read(data, window, "GraphProto")
    graph = GraphRecord(
        name=f.get("name", [""])[-1],
        nodes=[_parse_node(data, w) for w in f.get("node", ())],
    )
    for tensor_window in f.get("initializer", ()):
        tensor = _parse_tensor(data, tensor_window)
        if tensor.name in graph.initializers:
            raise InvalidModelError(f"duplicate initializer '{tensor.name}'")
        graph.initializers[tensor.name] = tensor
    graph.inputs = [_parse_value_info(data, w) for w in f.get("input", ())]
    graph.outputs = [_parse_value_info(data, w) for w in f.get("output", ())]
    if "sparse_initializer" in f:
        raise ModelFormatError(
            "sparse initializers are not supported",
            byte_offset=f["sparse_initializer"][0][0],
        )
    return graph


def decode_model(data: bytes) -> ModelRecord:
    """Decode the protobuf container into structured records.

    Checks the operator-set version; graph semantics are validated later
    by ``network_from_records``.
    """
    data = bytes(data)
    f = _read(data, (0, len(data)), "ModelProto")
    graphs = f.get("graph", ())
    if len(graphs) > 1:
        raise ModelFormatError(
            "more than one graph in the model", byte_offset=graphs[1][0]
        )
    opsets = [_read(data, w, "OperatorSetIdProto")
              for w in f.get("opset_import", ())]
    if not graphs:
        raise ModelFormatError("model carries no graph")
    ir_version = f.get("ir_version", [None])[-1]
    if ir_version is not None and ir_version < 3:
        raise ModelFormatError(f"unsupported ir_version {ir_version}")

    opset_version = None
    for opset in opsets:
        domain = opset.get("domain", [""])[-1]
        if domain not in ("", "ai.onnx"):
            raise ModelFormatError(
                f"operator set domain '{domain}' is not supported"
            )
        opset_version = opset.get("version", [None])[-1]
    if opset_version != ONNX_OPSET:
        raise ModelFormatError(
            f"operator set version {opset_version} is not supported; "
            f"this codec handles opset {ONNX_OPSET} only"
        )
    return ModelRecord(ir_version=ir_version, opset_version=opset_version,
                       graph=_parse_graph(data, graphs[0]))


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


def _encode(message, **values):
    """The fields ``values`` of ``message``, in the order given.  An
    "ints" field is written packed; a list under any other field writes
    one field per item."""
    out = []
    for name, value in values.items():
        number, kind = FIELDS[message][name]
        items = value if isinstance(value, list) and kind != "ints" else [value]
        out.extend(wire.WRITERS[kind](number, item) for item in items)
    return b"".join(out)


def _attr_float_bytes(name, value):
    return _encode("AttributeProto", name=name, f=value, type=ATTR_FLOAT)


def _attr_int_bytes(name, value):
    return _encode("AttributeProto", name=name, i=value, type=ATTR_INT)


def _attr_ints_bytes(name, values):
    return _encode("AttributeProto", name=name, ints=values, type=ATTR_INTS)


def _node_bytes(op_type, name, inputs, outputs, attrs=()):
    return _encode("NodeProto", input=list(inputs), output=list(outputs),
                   name=name, op_type=op_type, attribute=list(attrs))


def _float_tensor_bytes(name, array):
    array = np.ascontiguousarray(array, dtype="<f4")
    return _encode("TensorProto", dims=array.shape, data_type=TENSOR_FLOAT,
                   name=name, raw_data=array.tobytes())


def _value_info_bytes(name, dims):
    dim_list = [_encode("TensorShapeProto.Dimension", dim_value=d) for d in dims]
    tensor_type = _encode("TypeProto.Tensor", elem_type=TENSOR_FLOAT,
                          shape=_encode("TensorShapeProto", dim=dim_list))
    return _encode("ValueInfoProto", name=name,
                   type=_encode("TypeProto", tensor_type=tensor_type))


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

    graph = _encode("GraphProto", node=nodes, name=graph_name,
                    initializer=inits,
                    input=_value_info_bytes("input", (1, c, h, w)),
                    output=_value_info_bytes(current, (1, net.num_classes)))
    return _encode("ModelProto", ir_version=IR_VERSION,
                   producer_name=b"bnnverify",
                   producer_version=__version__.encode(),
                   graph=graph,
                   opset_import=_encode("OperatorSetIdProto",
                                        version=ONNX_OPSET))

"""Self-contained codec for the model interchange subset used here."""

from .codec import (
    ONNX_OPSET,
    decode_model,
    network_from_records,
    parse_model,
    serialize_model,
)

__all__ = [
    "ONNX_OPSET",
    "decode_model",
    "network_from_records",
    "parse_model",
    "serialize_model",
]

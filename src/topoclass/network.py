"""MLPs as explicit layer lists, plus batched evaluation and tracing.

A layer is an affine map followed by one of three coordinate-wise moves:
relu, identity, or (only as the last layer) softmax.  Forward evaluation of
a single point delegates to the batched path, so per-point and batched
results are bit-identical by construction.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParseError, SchemaError
from .numerics import as_matrix, as_vector

RELU = "relu"
SOFTMAX = "softmax"
IDENTITY = "identity"
ACTIVATIONS = (RELU, SOFTMAX, IDENTITY)

# Layer widths of the six-layer demonstration net: five relu layers
# 2->5->5->2->2->2 capped by a 2->2 softmax.
PAPER_NET_DIMS = (2, 5, 5, 2, 2, 2, 2)


@dataclass(frozen=True)
class LayerSpec:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        weight = as_matrix(self.weight, "weight")
        bias = as_vector(self.bias, "bias")
        if weight.shape[0] != bias.shape[0]:
            raise DimensionError(
                f"weight has {weight.shape[0]} rows but bias has length {bias.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


@dataclass(frozen=True)
class Mlp:
    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionError("net must have at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise DimensionError(
                    f"layer {i + 1} outputs {layers[i].out_dim} values but layer "
                    f"{i + 2} expects {layers[i + 1].in_dim}"
                )
        for i, layer in enumerate(layers):
            if layer.activation == SOFTMAX and i != len(layers) - 1:
                raise DimensionError("softmax is allowed only as the final layer")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class ActivationTrace:
    """Per-stage point clouds for a batch: the input plus one per layer."""

    stages: tuple  # ((name, (n, dim) array), ...)
    labels: np.ndarray

    def stage_names(self):
        return [name for name, _ in self.stages]

    def stage_dims(self):
        return [pts.shape[1] for _, pts in self.stages]

    def stage_points(self, index):
        return self.stages[index][1]


def relu(v):
    """Coordinate-wise max(0, x)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def _softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax(v):
    """Exponentiate then normalize onto the open simplex.

    Uses max-subtraction; the formula is shift-invariant, so this changes
    nothing mathematically and keeps exp() in range.
    """
    v = as_vector(v, "v")
    if v.size == 0:
        raise DimensionError("softmax needs a nonempty vector")
    return _softmax_rows(v[np.newaxis, :])[0]


def _apply_layer(layer, acts):
    """The one place a layer is applied: returns (pre-activation z, activation)."""
    z = acts @ layer.weight.T + layer.bias
    if layer.activation == RELU:
        return z, np.maximum(z, 0.0)
    if layer.activation == SOFTMAX:
        return z, _softmax_rows(z)
    return z, z


def forward_batch(net, xs):
    """Evaluate the net on an (n, input_dim) batch."""
    acts = as_matrix(xs, "xs")
    if acts.shape[1] != net.input_dim:
        raise DimensionError(
            f"net expects inputs of dim {net.input_dim}, got {acts.shape[1]}"
        )
    for layer in net.layers:
        _, acts = _apply_layer(layer, acts)
    return acts


def forward(net, x):
    """Evaluate the net on a single point."""
    x = as_vector(x, "x")
    return forward_batch(net, x[np.newaxis, :])[0]


def forward_trace(net, cloud, include_pre=False):
    """Record the image of the cloud after every layer.

    Stage 0 is the input; stage i the post-activation image under layer i.
    With ``include_pre`` the affine pre-activation clouds are interleaved as
    extra stages (named ``layer{i}_pre``).
    """
    if cloud.dim != net.input_dim:
        raise DimensionError(
            f"net expects inputs of dim {net.input_dim}, cloud has dim {cloud.dim}"
        )
    stages = [("input", cloud.points.copy())]
    acts = cloud.points
    for i, layer in enumerate(net.layers, start=1):
        z, acts = _apply_layer(layer, acts)
        if include_pre:
            stages.append((f"layer{i}_pre", z.copy()))
        stages.append((f"layer{i}_{layer.activation}", acts.copy()))
    return ActivationTrace(stages=tuple(stages), labels=cloud.labels.copy())


def strict_argmax(y, tol=1e-12):
    """Index of the strict maximum coordinate, or None on a tie within tol."""
    y = np.asarray(y, dtype=np.float64)
    top = y.max()
    winners = np.nonzero(y >= top - tol)[0]
    if winners.size != 1:
        return None
    return int(winners[0])


def strict_argmax_batch(ys, tol=1e-12):
    """Batched strict_argmax: (predictions, tie mask); prediction -1 on ties."""
    ys = np.asarray(ys, dtype=np.float64)
    top = ys.max(axis=1)
    ties = (ys >= (top - tol)[:, np.newaxis]).sum(axis=1) != 1
    preds = ys.argmax(axis=1).astype(np.int64)
    preds[ties] = -1
    return preds, ties


def he_uniform_init(rng, out_dim, in_dim):
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


# narrow relu layers die easily when every unit starts at z <= 0; a small
# positive bias keeps them alive through early training
HIDDEN_BIAS_INIT = 0.1


def build_relu_net(dims, rng, hidden_bias=HIDDEN_BIAS_INIT):
    """Relu layers along ``dims`` with a softmax on the last pair.

    ``dims`` is the full width chain including input and output, e.g.
    (2, 5, 2): a 2->5 relu layer followed by a 5->2 softmax.  Relu layers
    get He-style uniform weights in +-sqrt(6/fan_in) and bias
    ``hidden_bias``; the softmax head starts at exactly zero, so a fresh
    net outputs the uniform distribution for every input.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DimensionError("dims must list at least two positive widths")
    layers = []
    for i in range(len(dims) - 1):
        if i == len(dims) - 2:
            layers.append(
                LayerSpec(
                    weight=np.zeros((dims[i + 1], dims[i])),
                    bias=np.zeros(dims[i + 1]),
                    activation=SOFTMAX,
                )
            )
        else:
            weight = he_uniform_init(rng, dims[i + 1], dims[i])
            bias = np.full(dims[i + 1], hidden_bias)
            layers.append(LayerSpec(weight=weight, bias=bias, activation=RELU))
    return Mlp(layers=tuple(layers))


def build_paper_net(rng):
    """The fixed six-layer 2-D classifier used by the flagship experiment."""
    return build_relu_net(PAPER_NET_DIMS, rng)


def save_model(net, path):
    payload = {
        "layers": [
            {
                "activation": layer.activation,
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in net.layers
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(payload, dict) or "layers" not in payload:
        raise SchemaError("model file must be an object with a 'layers' key")
    raw_layers = payload["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise SchemaError("model must contain at least one layer")
    layers = []
    for i, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise SchemaError(f"layer {i} must be an object")
        for key in ("activation", "weight", "bias"):
            if key not in raw:
                raise SchemaError(f"layer {i} is missing key {key!r}")
        if raw["activation"] not in ACTIVATIONS:
            raise SchemaError(f"layer {i} has unknown activation {raw['activation']!r}")
        try:
            layers.append(
                LayerSpec(
                    weight=np.array(raw["weight"], dtype=np.float64),
                    bias=np.array(raw["bias"], dtype=np.float64),
                    activation=raw["activation"],
                )
            )
        except (DimensionError, NumericalError, ValueError) as exc:
            raise SchemaError(f"layer {i} is malformed: {exc}") from exc
    try:
        return Mlp(layers=tuple(layers))
    except DimensionError as exc:
        raise SchemaError(f"model layers are inconsistent: {exc}") from exc

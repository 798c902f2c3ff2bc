"""MLPs as explicit layer lists, plus batched evaluation and tracing.

A layer is an affine map followed by one of three coordinate-wise moves:
relu, identity, or (only as the last layer) softmax.  Forward evaluation of
a single point delegates to the batched path, so per-point and batched
results are bit-identical by construction.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .data import fields, json_text, numbers, read_json, write_files
from .errors import NumericalError, SchemaError, SpecError
from .numerics import as_matrix, as_vector, is_integer

RELU = "relu"
SOFTMAX = "softmax"
IDENTITY = "identity"
ACTIVATIONS = (RELU, SOFTMAX, IDENTITY)

# outputs within this of a row's maximum tie with it (strict_argmax)
TIE_TOL = 1e-12

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
            raise SpecError(
                f"weight has {weight.shape[0]} rows but bias has length {bias.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise SpecError(f"unknown activation {self.activation!r}")
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
            raise SpecError("net must have at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise SpecError(
                    f"layer {i + 1} outputs {layers[i].out_dim} values but layer "
                    f"{i + 2} expects {layers[i + 1].in_dim}"
                )
        for i, layer in enumerate(layers):
            if layer.activation == SOFTMAX and i != len(layers) - 1:
                raise SpecError("softmax is allowed only as the final layer")
        object.__setattr__(self, "layers", layers)

    def to_jsonable(self):
        """The JSON model format; weights and biases round-trip bit-exactly."""
        return {
            "layers": [
                {
                    "activation": layer.activation,
                    "weight": layer.weight.tolist(),
                    "bias": layer.bias.tolist(),
                }
                for layer in self.layers
            ]
        }

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

    def stage_dims(self):
        return [pts.shape[1] for _, pts in self.stages]

    def stage_points(self, index):
        return self.stages[index][1]


def relu(v):
    """Coordinate-wise max(0, x)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def _columns(a):
    """The columns of ``a``'s last axis, each kept as a length-1 axis."""
    return [a[..., j : j + 1] for j in range(a.shape[-1])]


def _maximum(a, b, out):
    # np.maximum takes ``out`` only by keyword (a third positional is deprecated)
    return np.maximum(a, b, out=out)


# relu's operand as a 0-d array: numpy converts a Python 0.0 on every call
_ZERO = np.zeros(())


def _fold_columns(ufunc, a, out):
    """Calls that fold ``a``'s class columns into ``out`` in class order.

    Returns (calls, folded): ``folded`` is ``out``, or ``a``'s one column.
    """
    cols = _columns(a)
    if len(cols) == 1:
        return [], cols[0]
    return [(ufunc, (cols[0], cols[1], out))] + [(ufunc, (out, col, out)) for col in cols[2:]], out


def _softmax_buffers(shape):
    """Scratch for a softmax over rows of ``shape``: their max, exps and sum."""
    column = shape[:-1] + (1,)
    return np.empty(column), np.empty(shape), np.empty(column)


def _softmax_calls(z, buffers, probs):
    # maximum and sum over the class axis by columns, in class order (see training)
    top, exps, total = buffers
    fold, top = _fold_columns(_maximum, z, top)
    calls = fold + [(np.subtract, (z, top, exps)), (np.exp, (exps, exps))]
    fold, total = _fold_columns(np.add, exps, total)
    return calls + fold + [(np.divide, (exps, total, probs))]


def _layer_calls(layer, below, z, act, softmax):
    """A layer applied to ``below`` as a list of (ufunc, args) calls.

    The one place a layer's arithmetic is written; ``_chain_calls`` chains
    it for evaluation and training alike.  The calls write the
    pre-activation into ``z`` and the activation into ``act``, which may be
    ``z`` itself and is ``z`` for identity; a softmax layer also needs
    ``softmax``, from ``_softmax_buffers(z.shape)``.
    Works on one layer (weight (out, in), bias (out,)) or on a stack of S
    layers (weights (S, out, in), biases (S, 1, out)); rows stay rows.
    """
    # the weight's (in, out) view is the right factor of a row batch
    calls = [(np.matmul, (below, layer.weight.swapaxes(-1, -2), z)), (np.add, (z, layer.bias, z))]
    if layer.activation == RELU:
        calls.append((_maximum, (z, _ZERO, act)))
    elif layer.activation == SOFTMAX:
        calls += _softmax_calls(z, softmax, act)
    return calls


def _chain_calls(layers, below, zs, acts, softmax):
    """``_layer_calls`` for each layer in turn, fed the activation of the one before.

    Layer i writes into ``zs[i]`` and ``acts[i]``, buffers the caller
    supplies; ``below`` is the first layer's input.
    """
    calls = []
    for layer, z, act in zip(layers, zs, acts, strict=True):
        calls += _layer_calls(layer, below, z, act, softmax)
        below = act
    return calls


def _run(calls):
    for f, args in calls:
        f(*args)


def _softmax_rows(z):
    probs = np.empty(z.shape)
    _run(_softmax_calls(z, _softmax_buffers(z.shape), probs))
    return probs


def softmax(v):
    """Exponentiate then normalize onto the open simplex.

    Uses max-subtraction; the formula is shift-invariant, so this changes
    nothing mathematically and keeps exp() in range.
    """
    v = as_vector(v, "v")
    if v.size == 0:
        raise SpecError("softmax needs a nonempty vector")
    return _softmax_rows(v[np.newaxis, :])[0]


def _forward(layers, xs):
    """Each layer's pre-activation and activation on the (n, in) batch ``xs``, as new arrays.

    An overflow is left in the arrays: each caller checks what it returns.
    """
    zs = [np.empty((len(xs), layer.out_dim)) for layer in layers]
    acts = [z if layer.activation == IDENTITY else np.empty(z.shape) for layer, z in zip(layers, zs)]
    softmax = _softmax_buffers(zs[-1].shape) if layers[-1].activation == SOFTMAX else None
    with np.errstate(over="ignore", invalid="ignore"):
        _run(_chain_calls(layers, xs, zs, acts, softmax))
    return zs, acts


def require_fit(net, dim, classes=None):
    """SpecError unless the net fits data of ``dim`` coordinates and, if given, ``classes`` classes.

    A net fits when it takes ``dim`` inputs and, given ``classes``, ends in
    a softmax with one output per class.  Evaluation, training and the
    separability criteria all check a net against its data here.
    """
    if dim != net.input_dim:
        raise SpecError(f"net expects inputs of dim {net.input_dim}, data has dim {dim}")
    if classes is None:
        return
    if net.layers[-1].activation != SOFTMAX:
        raise SpecError("net needs a softmax final layer")
    if net.output_dim != classes:
        raise SpecError(f"net has {net.output_dim} outputs but data has {classes} classes")


def forward_batch(net, xs):
    """Evaluate the net on an (n, input_dim) batch; other widths fail ``require_fit``.

    Outputs that are not finite (an affine map overflowed float64) raise
    NumericalError; an overflow that a relu maps to 0 is exact and stays.
    """
    acts = as_matrix(xs, "xs")
    require_fit(net, acts.shape[1])
    acts = _forward(net.layers, acts)[1][-1]
    if not np.isfinite(acts).all():
        raise NumericalError("net outputs are not finite: activations overflow float64")
    return acts


def forward(net, x):
    """Evaluate the net on a single point."""
    x = as_vector(x, "x")
    return forward_batch(net, x[np.newaxis, :])[0]


def forward_trace(net, cloud, include_pre=False):
    """Record the image of the cloud after every layer; another dim fails ``require_fit``.

    Stage 0 is the input; stage i the post-activation image under layer i.
    With ``include_pre`` the affine pre-activation clouds are interleaved as
    extra stages (named ``layer{i}_pre``).  A stage that is not finite (an
    affine map overflowed float64) raises NumericalError.
    """
    require_fit(net, cloud.dim)
    stages = [("input", cloud.points.copy())]
    zs, acts = _forward(net.layers, cloud.points)
    for i, (layer, z, act) in enumerate(zip(net.layers, zs, acts), start=1):
        if include_pre:
            stages.append((f"layer{i}_pre", z.copy()))
        stages.append((f"layer{i}_{layer.activation}", act.copy()))
    if not all(np.isfinite(points).all() for _, points in stages):
        raise NumericalError("a traced stage is not finite: activations overflow float64")
    return ActivationTrace(stages=tuple(stages), labels=cloud.labels.copy())


def strict_argmax(y):
    """Index of the strict maximum coordinate, or None on a tie within TIE_TOL."""
    pred = int(strict_argmax_batch(np.asarray(y)[np.newaxis])[0])
    return None if pred < 0 else pred


def strict_argmax_batch(ys):
    """Batched strict_argmax: each row's prediction, -1 on a tie.

    A row ties unless exactly one entry is within TIE_TOL of its max (NaN: none).
    """
    cols = np.asarray(ys, dtype=np.float64).T
    floor = reduce(np.maximum, cols) - TIE_TOL
    near = [col >= floor for col in cols]
    return np.where(sum(near) != 1, -1, sum(j * hit for j, hit in enumerate(near)))


def he_uniform_init(rng, out_dim, in_dim):
    bound = np.sqrt(6.0 / in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


# narrow relu layers die easily when every unit starts at z <= 0; a small
# positive bias keeps them alive through early training
HIDDEN_BIAS_INIT = 0.1


def build_relu_net(dims, rng):
    """Relu layers along ``dims`` with a softmax on the last pair.

    ``dims`` is the full chain of integer widths, input and output included,
    e.g. (2, 5, 2): a 2->5 relu layer followed by a 5->2 softmax.  Relu layers
    get He-style uniform weights in +-sqrt(6/fan_in) and bias
    ``HIDDEN_BIAS_INIT``; the softmax head starts at exactly zero, so a fresh
    net outputs the uniform distribution for every input.
    """
    dims = tuple(dims)
    if len(dims) < 2 or not all(is_integer(d) and d >= 1 for d in dims):
        raise SpecError(f"dims must list at least two positive widths, as integers: got {dims}")
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
            bias = np.full(dims[i + 1], HIDDEN_BIAS_INIT)
            layers.append(LayerSpec(weight=weight, bias=bias, activation=RELU))
    return Mlp(layers=tuple(layers))


def build_paper_net(rng):
    """The fixed six-layer 2-D classifier used by the flagship experiment."""
    return build_relu_net(PAPER_NET_DIMS, rng)


def save_model(net, path):
    write_files([(path, json_text(net.to_jsonable()))])


def load_model(path):
    """Read a JSON model, raising ParseError/SchemaError on bad files."""
    (raw_layers,) = fields(read_json(path), "model file", ("layers",))
    if not isinstance(raw_layers, list):
        raise SchemaError("layers must be a list")
    layers = []
    for i, raw in enumerate(raw_layers):
        what = f"layer {i}"
        activation, weight, bias = fields(raw, what, ("activation", "weight", "bias"))
        weight, bias = numbers(weight, f"{what} weight"), numbers(bias, f"{what} bias")
        try:
            layers.append(LayerSpec(weight, bias, activation))
        except (SpecError, NumericalError) as exc:
            raise SchemaError(f"{what} is malformed: {exc}") from exc
    try:
        return Mlp(layers=tuple(layers))
    except SpecError as exc:
        raise SchemaError(f"model layers are inconsistent: {exc}") from exc

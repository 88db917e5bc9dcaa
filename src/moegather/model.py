"""Desk-scale classifier models.

A model is an input projection, a stack of residual blocks, a mean pool, and
a linear head. Each block applies a fixed (non-trainable, seeded) linear token
mixer followed by a per-token feed-forward stage, both behind layer norms.
Every block shares one feed-forward stage, as in WideNet. It is either a
single dense :class:`FeedForward` or an :class:`MoELayer` that routes every
token to its top-k experts.

``forward_batch`` is the one forward implementation and ``router_probs`` the
one router gate, for any number of token rows. ``log_softmax`` is the one
softmax: the gate exponentiates it, and both training losses in
:mod:`moegather.training` read it. The forward pass is
forward-only by default: scoring, the frozen teacher's logits and the balance
measurement compute activation values alone and keep only the routing arrays.
Only a training step asks for ``need_grad=True``, which also computes the
activation derivatives and caches every intermediate the backward pass reads.
Both modes evaluate the values in the same operation order, so their logits
are bit-identical.

A forward-only pass without router noise over more than ``FORWARD_BLOCK``
sequences runs in the blocks of ``row_blocks`` and concatenates the
logits, pooled features and routing arrays in row order. At the default
shapes (seq_len 8, d_ff 128) each FFN intermediate of a 512-sequence pass is
4 MB of float64, past a 2 MB per-core L2, while a 64-sequence block's is
512 KB, so the three the value-only GELU allocates stay in cache. A row's
logits have the same bits in any forward of two or more sequences, whichever
rows share it (a lone sequence may differ in the last bit), and every block
holds at least half of ``FORWARD_BLOCK``, so the blocked result equals the
unblocked one. A training step stays one pass, because its backward sums
over all rows, and so does a noisy pass, because the noise is drawn per call.

An MoE stage dispatches its tokens with one stable sort. A token's k
selected experts, in ascending order, fill its k slots, and slot (t, j) is
row t*k + j of the flattened selection. A stable argsort of the flattened
expert ids groups the slots by expert, with ascending tokens inside each
group, and ``searchsorted`` gives each group's bounds. The stage gathers the
inputs into that order once, runs each expert on its contiguous slice,
scatters the outputs back into slot order once, and sums gate times output
over the slots, in slot order, onto zeros. The backward pass gathers the
gated output gradient into the same order, runs each expert's backward on
its slice and scatters the input gradients back once. This is exact: each
expert gets the same rows in the same order that a per-expert mask would
select, so the same BLAS and activation calls run on the same data, and as
the selection is sorted within each token, slot order is expert order, so a
token's output is still (0 + g_a*y_a) + g_b*y_b, bit for bit. The
activation runs per expert slice; one call over all slots would keep 1 MB
temporaries per 64-sequence block alive and ran slower end to end.

The kernels here and in :mod:`moegather.training` write in place only into
arrays they allocated themselves, never into an argument or an array a cache
holds. An in-place kernel applies the same IEEE operations to each element,
in the same order, as the out-of-place expression it stands for; where an
operand order flips, it is one ``+`` or ``*``, which IEEE 754 makes
commutative, and every reduction keeps its array and axes. So the results
are bit-identical to the expressions, which ``tests/`` keeps as oracles.
Layer norm allocates two full-size arrays (``xhat`` and ``y``), the GELU
with its derivative five, and the feed-forward stage adds its bias to the
product in place.

Every "same bits" here compares two computations on one BLAS kernel.
Another kernel, such as OpenBLAS's under another ``OPENBLAS_CORETYPE``,
moves results in their last bits, so ``tests/test_reference_run.py`` checks
a tiny run against pinned numbers with a tolerance rather than by bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from itertools import islice

import numpy as np

from .numerics import NumericalError, Rng, ShapeError, as_array, check_number, top_k_indices

LAYER_NORM_EPS = 1e-5
FORWARD_BLOCK = 64  # most sequences per forward-only block; see the module docstring
_LAYER_NORMS = ("ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias")  # tensor names within a block, in order
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray) -> np.ndarray:
    # Tanh-form GELU value, in the operation order of _gelu_with_grad.
    inner = x * x
    inner *= _GELU_A
    inner += 1.0
    t = _GELU_C * x
    t *= inner
    np.tanh(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def _gelu_with_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Tanh-form GELU; value and derivative share one tanh evaluation. Written
    # in place, but every product and sum keeps the order of the expressions
    #   y  = 0.5 * x * (1 + t)
    #   dy = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * A * x * x)
    # so the results are bit-identical to evaluating them directly. Once t is
    # formed, ``inner`` holds 1 + t and ``t`` holds 1 - t * t.
    x2 = x * x
    inner = _GELU_A * x2
    inner += 1.0
    t = _GELU_C * x
    t *= inner
    np.tanh(t, out=t)
    dy = np.add(t, 1.0, out=inner)
    half_x = 0.5 * x
    y = half_x * dy
    dy *= 0.5
    t *= t
    np.subtract(1.0, t, out=t)
    half_x *= t
    half_x *= _GELU_C
    x2 *= 3.0 * _GELU_A
    x2 += 1.0
    half_x *= x2
    dy += half_x
    return y, dy


_ACTIVATIONS = {"gelu": _gelu}
_ACTIVATIONS_WITH_GRAD = {"gelu": _gelu_with_grad}


def _lookup(table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")


def activation_value(name: str):
    """Return f(x) -> value for the named activation."""
    return _lookup(_ACTIVATIONS, name)


def activation_with_grad(name: str):
    """Return f(x) -> (value, derivative) for the named activation."""
    return _lookup(_ACTIVATIONS_WITH_GRAD, name)


@dataclass
class FeedForward:
    """Two linear layers around a nonlinearity.

    Serves both as one expert inside an MoE layer and as the dense stage of a
    student model; the two roles share shapes by construction.
    """

    w1: np.ndarray  # (d_model, d_ff)
    b1: np.ndarray  # (d_ff,)
    w2: np.ndarray  # (d_ff, d_model)
    b2: np.ndarray  # (d_model,)
    activation: str = "gelu"

    def __post_init__(self):
        self.w1, self.b1, self.w2, self.b2 = (
            as_array(t, f"feed-forward {name}") for name, t in self.tensors().items()
        )
        if self.w1.ndim != 2:
            raise ShapeError(f"feed-forward w1 must be 2-D, got shape {self.w1.shape}")
        d, h = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h, d) or self.b2.shape != (d,):
            raise ShapeError(
                f"inconsistent feed-forward shapes: w1={self.w1.shape} b1={self.b1.shape} "
                f"w2={self.w2.shape} b2={self.b2.shape}"
            )
        activation_value(self.activation)

    @property
    def d_model(self) -> int:
        return self.w1.shape[0]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[1]

    def copy(self) -> "FeedForward":
        return FeedForward(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.activation)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class Router:
    """Linear gate over experts. Training adds Gaussian exploration noise of
    std 1/num_experts to its logits (see ``router_probs``)."""

    weight: np.ndarray  # (d_model, num_experts)
    top_k: int

    def __post_init__(self):
        self.weight = as_array(self.weight, "router weight")
        if self.weight.ndim != 2:
            raise ShapeError("router weight must be 2-D")
        check_number("top_k", self.top_k, integer=True, positive=True)
        if self.top_k > self.num_experts:
            raise ValueError(f"top_k={self.top_k} out of range for {self.num_experts} experts")

    @property
    def num_experts(self) -> int:
        return self.weight.shape[1]


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def router_probs(x: np.ndarray, router: Router, rng: Rng | None = None) -> np.ndarray:
    """Gate probabilities for a (..., d_model) array of token rows. Noise of
    std 1/num_experts is drawn iff an rng is supplied (evaluation passes
    rng=None)."""
    x = as_array(x, "token rows")
    if x.shape[-1] != router.weight.shape[0]:
        raise ShapeError(f"token width {x.shape[-1]} != router input {router.weight.shape[0]}")
    logits = x @ router.weight
    if not np.isfinite(logits).all():
        raise NumericalError("router logits are non-finite: the input holds or overflows to inf/NaN")
    if rng is not None:
        logits = logits + rng.normal(size=logits.shape, scale=1.0 / router.num_experts)
    probs = log_softmax(logits)
    return np.exp(probs, out=probs)


@dataclass
class MoELayer:
    experts: list[FeedForward]
    router: Router

    def __post_init__(self):
        if not self.experts:
            raise ShapeError("MoE layer needs at least one expert")
        d, h = self.experts[0].d_model, self.experts[0].d_ff
        for i, e in enumerate(self.experts):
            if (e.d_model, e.d_ff) != (d, h):
                raise ShapeError(f"expert {i} shape {(e.d_model, e.d_ff)} != expert 0 shape {(d, h)}")
        if self.router.num_experts != len(self.experts):
            raise ShapeError(
                f"router width {self.router.num_experts} != expert count {len(self.experts)}"
            )

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def d_model(self) -> int:
        return self.experts[0].d_model

    @property
    def d_ff(self) -> int:
        return self.experts[0].d_ff


@dataclass(frozen=True)
class Architecture:
    """Shape description of a classifier; serializable for checkpoints."""

    d_model: int
    d_ff: int
    seq_len: int
    num_classes: int
    num_blocks: int = 2
    activation: str = "gelu"
    stage: str = "dense"  # "dense" | "moe"
    num_experts: int = 1
    top_k: int = 1

    def __post_init__(self):
        for name in ("d_model", "d_ff", "seq_len", "num_classes", "num_blocks", "num_experts", "top_k"):
            check_number(name, getattr(self, name), integer=True, positive=True)
        if self.stage not in ("dense", "moe"):
            raise ValueError(f"stage must be 'dense' or 'moe', got {self.stage!r}")
        if self.stage == "moe" and not 1 <= self.top_k <= self.num_experts:
            raise ValueError(f"top_k={self.top_k} out of range for {self.num_experts} experts")
        activation_value(self.activation)

    def dense_twin(self) -> "Architecture":
        """Same shapes with the MoE stage collapsed to a single dense stage."""
        return replace(self, stage="dense", num_experts=1, top_k=1)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Architecture":
        return Architecture(**d)


@dataclass
class Block:
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    mixer: np.ndarray  # (seq_len, seq_len), fixed at build time
    stage: FeedForward | MoELayer


@dataclass
class ClassifierModel:
    arch: Architecture
    embed: np.ndarray  # (d_model, d_model) input projection
    blocks: list[Block]
    head_w: np.ndarray  # (d_model, num_classes)
    head_b: np.ndarray  # (num_classes,)

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor of the model, named and ordered by ``tensor_layout``:
        the parameters, then the fixed (non-trainable) mixers, which a
        checkpoint still holds. The shared stage appears once."""
        [(_, stage)] = self.stages()
        moe = isinstance(stage, MoELayer)
        arrays = [
            self.embed,
            *(t for b in self.blocks for t in (b.ln1_gain, b.ln1_bias, b.ln2_gain, b.ln2_bias)),  # _LAYER_NORMS order
            *([stage.router.weight] if moe else []),
            *(t for ffn in (stage.experts if moe else [stage]) for t in ffn.tensors().values()),
            self.head_w,
            self.head_b,
            *(b.mixer for b in self.blocks),
        ]
        return {name: t for (name, _), t in zip(tensor_layout(self.arch), arrays, strict=True)}

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable tensors, in canonical order: all but the mixers."""
        return {name: t for name, t in self.tensors().items() if not name.endswith(".mixer")}

    def stages(self) -> list[tuple[str, FeedForward | MoELayer]]:
        """The one feed-forward stage that every block shares (WideNet-style
        parameter sharing), with its parameter-name prefix."""
        return [("stage", self.blocks[0].stage)]


def _init_linear(rng: Rng, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(size=(d_in, d_out), scale=np.sqrt(2.0 / (d_in + d_out)))


def _expert_prefixes(arch: Architecture) -> list[str]:
    """Name prefix of each feed-forward network in the stage, in order."""
    if arch.stage == "dense":
        return ["stage."]
    return [f"stage.expert{e}." for e in range(arch.num_experts)]


def tensor_layout(arch: Architecture):
    """Yield ``(name, shape)`` for every tensor of a model built from
    ``arch``, in ``ClassifierModel.tensors()`` order, from the shapes alone.
    Lazy, so a caller comparing against it stops at the first difference."""
    d, h, c, s = arch.d_model, arch.d_ff, arch.num_classes, arch.seq_len
    yield "embed", (d, d)
    yield from ((f"block{i}.{name}", (d,)) for i in range(arch.num_blocks) for name in _LAYER_NORMS)
    if arch.stage == "moe":
        yield "stage.router", (d, arch.num_experts)
    for prefix in _expert_prefixes(arch):
        yield from ((prefix + "w1", (d, h)), (prefix + "b1", (h,)), (prefix + "w2", (h, d)), (prefix + "b2", (d,)))
    yield from (("head.w", (d, c)), ("head.b", (c,)))
    yield from ((f"block{i}.mixer", (s, s)) for i in range(arch.num_blocks))


def model_from_tensors(arch: Architecture, tensors: dict[str, np.ndarray]) -> ClassifierModel:
    """The inverse of ``ClassifierModel.tensors()``: a model of ``arch`` made
    of the arrays in ``tensors``, keyed by the names of ``tensor_layout(arch)``
    in any order. It takes them without copying; a caller copies what it
    borrows. Every block holds the one stage. A missing, extra or misshaped
    tensor is a :class:`ShapeError`."""
    layout = dict(islice(tensor_layout(arch), len(tensors) + 1))  # a walk no longer than the input
    for name in dict.fromkeys([*layout, *tensors]):
        given, implied = np.shape(tensors[name]) if name in tensors else "none", layout.get(name, "none")
        if given != implied:
            raise ShapeError(f"tensor {name!r} has shape {given}, but the architecture implies {implied}")
    t = tensors
    ffns = [
        FeedForward(t[p + "w1"], t[p + "b1"], t[p + "w2"], t[p + "b2"], arch.activation)
        for p in _expert_prefixes(arch)
    ]
    stage = ffns[0] if arch.stage == "dense" else MoELayer(ffns, Router(t["stage.router"], arch.top_k))
    blocks = [
        Block(*(t[f"block{i}.{name}"] for name in (*_LAYER_NORMS, "mixer")), stage)
        for i in range(arch.num_blocks)
    ]
    return ClassifierModel(arch, t["embed"], blocks, t["head.w"], t["head.b"])


def build_classifier(arch: Architecture, rng: Rng) -> ClassifierModel:
    """Construct and initialize a model; deterministic given the rng seed.
    Draws the embedding, each expert's w1 and w2, the router, each block's
    mixer and the head weight, in that order; the layer-norm gains start at
    one and every other tensor at zero. Every block holds the same stage."""
    d, h, s = arch.d_model, arch.d_ff, arch.seq_len
    t = {"embed": _init_linear(rng, d, d)}
    for p in _expert_prefixes(arch):
        t[p + "w1"], t[p + "w2"] = _init_linear(rng, d, h), _init_linear(rng, h, d)
    if arch.stage == "moe":
        t["stage.router"] = rng.normal(size=(d, arch.num_experts), scale=0.02)
    for i in range(arch.num_blocks):
        t[f"block{i}.mixer"] = rng.normal(size=(s, s), scale=1.0 / np.sqrt(s))
    t["head.w"] = _init_linear(rng, d, arch.num_classes)
    for name, shape in tensor_layout(arch):
        t.setdefault(name, (np.ones if name.endswith(".gain") else np.zeros)(shape))
    return model_from_tensors(arch, t)


def count_parameters(model: ClassifierModel) -> int:
    return sum(t.size for t in model.parameters().values())


def state_hash(model: ClassifierModel) -> str:
    """SHA-256 over all tensors (trainable and fixed) in canonical order."""
    h = hashlib.sha256()
    for name, tensor in model.tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    return h.hexdigest()


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-token layer norm over the last axis; returns (y, xhat, inv_std).

    The operations per element are those of
    ``gain * ((x - mean) * inv_std) + bias``, with
    ``mean = sum(x) / d`` and ``inv_std = 1 / sqrt(sum(c * c) / d + eps)``;
    ``xhat`` is written into the centered array and ``y`` into the square's.
    """
    # np.mean is this reduce followed by a divide by the count; calling the
    # ufunc directly gives the same bits without numpy's Python wrapper.
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    xhat = x - mean
    y = xhat * xhat
    inv_std = np.add.reduce(y, axis=-1, keepdims=True)
    inv_std /= d
    inv_std += LAYER_NORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(gain, xhat, out=y)
    y += bias
    return y, xhat, inv_std


def _activate(name: str, pre: np.ndarray, need_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Activation values, and their derivative when a backward pass will need it."""
    if need_grad:
        return activation_with_grad(name)(pre)
    return activation_value(name)(pre), None


def _stage_forward_dense(stage: FeedForward, x: np.ndarray, need_grad: bool) -> tuple[np.ndarray, dict]:
    pre = x @ stage.w1
    pre += stage.b1
    h_act, h_grad = _activate(stage.activation, pre, need_grad)
    cache = {"x": x, "h_act": h_act, "h_grad": h_grad} if need_grad else {}
    out = h_act @ stage.w2
    out += stage.b2
    return out, cache


def _stage_forward_moe(
    stage: MoELayer, x: np.ndarray, rng: Rng | None, need_grad: bool
) -> tuple[np.ndarray, dict]:
    n, k = len(x), stage.router.top_k
    probs = router_probs(x, stage.router, rng)
    sel = top_k_indices(probs, k)
    gates = probs[np.arange(n)[:, None], sel]
    # Slots (token t, rank j) flattened to t*k + j, grouped by expert with
    # ascending tokens inside each group; see the module docstring.
    order = np.argsort(sel.ravel(), kind="stable")
    bounds = np.searchsorted(sel.ravel()[order], np.arange(stage.num_experts + 1))
    xs = x[order // k]
    ys = np.empty_like(xs) if need_grad else xs  # forward-only: outputs replace their inputs
    per_expert: dict[int, dict] = {}
    for e, expert in enumerate(stage.experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo == hi:
            continue
        ys[lo:hi], ffn_cache = _stage_forward_dense(expert, xs[lo:hi], need_grad)
        if need_grad:
            per_expert[e] = ffn_cache
    y = np.empty_like(ys)
    y[order] = ys
    del xs, ys
    y = y.reshape(n, k, x.shape[1])
    gated = y * gates[:, :, None]
    out = np.zeros_like(x)
    for j in range(k):
        out += gated[:, j]
    cache = {"probs": probs, "sel": sel}
    if need_grad:
        cache.update(x=x, experts=per_expert, order=order, bounds=bounds, gates=gates, y=y)
    return out, cache


def row_blocks(n: int) -> list[slice]:
    """Rows 0..n-1 split into ⌈n/FORWARD_BLOCK⌉ near-equal slices, in order:
    slice i of k is rows n*i//k to n*(i+1)//k. With two or more slices each
    holds at least FORWARD_BLOCK // 2 rows (see the module docstring)."""
    k = -(-n // FORWARD_BLOCK)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def forward_batch(
    model: ClassifierModel,
    tokens: np.ndarray,
    rng: Rng | None = None,
    *,
    need_grad: bool = False,
) -> tuple[np.ndarray, dict]:
    """Run a (batch, seq_len, d_model) token array, or anything
    ``np.asarray`` turns into one, through the model.

    Returns (logits, cache). The cache always carries each block's routing
    arrays under ``stage`` (``probs`` and ``sel`` for an MoE stage, none for
    a dense one) for the balance loss and load statistics, and the pooled
    features under ``pooled``. With ``need_grad=True`` it also holds the
    layer-norm statistics, the stage inputs, activations and their
    derivatives, so it can feed ``backward_from_logits``; the default,
    forward-only pass keeps none of them and is what scoring should use. The
    logits are bit-identical either way. Router noise is drawn only when an
    rng is supplied.

    A forward-only, noise-free pass over more than ``FORWARD_BLOCK``
    sequences runs in the blocks of ``row_blocks``, its results concatenated.
    """
    tokens = as_array(tokens, "tokens")
    if tokens.ndim != 3:
        raise ShapeError(f"tokens must be (batch, seq_len, d_model), got shape {tokens.shape}")
    b, s, d = tokens.shape
    if s != model.arch.seq_len or d != model.arch.d_model:
        raise ShapeError(
            f"tokens shaped {(s, d)} but model expects ({model.arch.seq_len}, {model.arch.d_model})"
        )
    if need_grad or rng is not None or b <= FORWARD_BLOCK:
        # The backward pass sums over all rows and the noise is drawn per call.
        return _forward(model, tokens, rng, need_grad)
    parts = [_forward(model, tokens[rows], None, False) for rows in row_blocks(b)]
    cache = {
        "tokens": tokens,
        "need_grad": False,
        # a forward-only stage cache holds row-indexed routing arrays only
        "blocks": [
            {"stage": {key: np.concatenate([blk["stage"][key] for blk in per_part]) for key in per_part[0]["stage"]}}
            for per_part in zip(*(cache["blocks"] for _, cache in parts))
        ],
        "pooled": np.concatenate([cache["pooled"] for _, cache in parts]),
    }
    return np.concatenate([logits for logits, _ in parts]), cache


def _forward(
    model: ClassifierModel, tokens: np.ndarray, rng: Rng | None, need_grad: bool
) -> tuple[np.ndarray, dict]:
    """One unblocked pass of ``forward_batch`` over already-checked tokens."""
    b, s, d = tokens.shape
    x = tokens.reshape(-1, d) @ model.embed
    x = x.reshape(b, s, d)
    cache: dict = {"tokens": tokens, "need_grad": need_grad, "blocks": []}
    for blk in model.blocks:
        ln1_out, ln1_xhat, ln1_inv = layer_norm(x, blk.ln1_gain, blk.ln1_bias)
        res1 = blk.mixer @ ln1_out
        res1 += x
        ln2_out, ln2_xhat, ln2_inv = layer_norm(res1, blk.ln2_gain, blk.ln2_bias)
        flat = ln2_out.reshape(-1, d)
        if isinstance(blk.stage, MoELayer):
            out, stage_cache = _stage_forward_moe(blk.stage, flat, rng, need_grad)
        else:
            out, stage_cache = _stage_forward_dense(blk.stage, flat, need_grad)
        x = out.reshape(b, s, d)
        x += res1
        blk_cache = {"stage": stage_cache}
        if need_grad:
            blk_cache.update(ln1=(ln1_xhat, ln1_inv), ln2=(ln2_xhat, ln2_inv))
        cache["blocks"].append(blk_cache)
    pooled = np.add.reduce(x, axis=1) / s  # x.mean(axis=1) without its Python wrapper
    logits = pooled @ model.head_w + model.head_b
    cache["pooled"] = pooled
    return logits, cache

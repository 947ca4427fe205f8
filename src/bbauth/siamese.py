"""From-scratch siamese multilayer perceptron with contrastive loss.

Architecture: one batch-normalization stage on the input followed by
four dense+ReLU layers of 400, 200, 100, and 50 units (sizes
configurable for small test networks). Both pair branches share
parameters; a training step passes the concatenated pair batch through
the network once, so batch statistics cover both branches. Training is
bitwise deterministic for a fixed seed and BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePairs, ShapeMismatch

DEFAULT_HIDDEN = (400, 200, 100, 50)
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# elements per in-place Adam block: the six 256 KB operand blocks stay in
# a 2 MB L2 cache across the update's fourteen passes; 16K-64K elements
# measured fastest, and unblocked passes take about 1.5x as long
_ADAM_BLOCK = 32768


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 50  # published setting is 2000; 50 is the desk-scale default
    batch_size: int = 16
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")


@dataclass
class NetworkParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray
    seed: int

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def trainable(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases, self.bn_scale, self.bn_shift]

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.bn_scale.copy(),
            self.bn_shift.copy(),
            self.bn_mean.copy(),
            self.bn_var.copy(),
            self.seed,
        )


@dataclass(frozen=True)
class PairSet:
    a: np.ndarray  # (n_pairs, dim)
    b: np.ndarray
    labels: np.ndarray  # 1 = same subject, 0 = different

    def __post_init__(self) -> None:
        if self.a.shape != self.b.shape or self.a.shape[0] != self.labels.shape[0]:
            raise ShapeMismatch("pair arrays must align")


def init_network(input_dim: int, seed: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> NetworkParams:
    """Fan-in-scaled uniform weights, zero biases, identity batch norm."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    fan_in = input_dim
    for units in hidden:
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, units)))
        biases.append(np.zeros(units))
        fan_in = units
    return NetworkParams(
        weights,
        biases,
        bn_scale=np.ones(input_dim),
        bn_shift=np.zeros(input_dim),
        bn_mean=np.zeros(input_dim),
        bn_var=np.ones(input_dim),
        seed=seed,
    )


def _forward_full(params: NetworkParams, x: np.ndarray, train: bool):
    """Forward pass keeping the caches needed for backprop."""
    if train:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
    else:
        mu, var = params.bn_mean, params.bn_var
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x - mu) * inv_std
    h = params.bn_scale * xhat + params.bn_shift
    activations = [h]
    for w, b in zip(params.weights, params.biases):
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    cache = {"mu": mu, "var": var, "xhat": xhat, "activations": activations}
    return h, cache


def forward(params: NetworkParams, x, mode: str = "infer") -> np.ndarray:
    """Embed one sample (1-D input) or a batch (2-D input).

    Train mode normalizes with batch statistics, infer mode with the
    stored running statistics.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    if arr.shape[1] != params.input_dim:
        raise ShapeMismatch(f"input dim {arr.shape[1]} != network dim {params.input_dim}")
    if mode not in ("train", "infer"):
        raise ValueError("mode must be 'train' or 'infer'")
    out, _ = _forward_full(params, arr, train=(mode == "train"))
    return out[0] if single else out


def _pair_loss_and_embedding_grads(e_a: np.ndarray, e_b: np.ndarray, labels: np.ndarray, margin: float):
    diff = e_a - e_b
    d = np.sqrt((diff * diff).sum(axis=1))
    n = len(labels)
    pos = labels == 1
    hinge = np.maximum(0.0, margin - d)
    losses = np.where(pos, d * d, hinge * hinge)
    loss = float(losses.mean())

    # dL/d(diff): positives 2*diff, negatives -2*hinge*diff/d (0 at d = 0)
    grad = np.zeros_like(diff)
    grad[pos] = 2.0 * diff[pos]
    neg = ~pos
    safe_d = np.where(d > 0, d, 1.0)
    grad[neg] = (-2.0 * hinge[neg] / safe_d[neg])[:, None] * diff[neg]
    grad[neg & (d == 0)] = 0.0
    grad /= n
    return loss, grad, -grad


def _backward(params: NetworkParams, cache: dict, d_out: np.ndarray):
    """Gradients of the trainable parameters given d(loss)/d(embedding)."""
    acts = cache["activations"]
    grads_w, grads_b = [], []
    delta = d_out
    for layer in reversed(range(len(params.weights))):
        delta = delta * (acts[layer + 1] > 0)
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        delta = delta @ params.weights[layer].T
    # batch-norm backward: only the affine parameters are trainable, and
    # the batch statistics depend on the input alone, so no gradient
    # flows back past the scale/shift
    xhat = cache["xhat"]
    d_scale = (delta * xhat).sum(axis=0)
    d_shift = delta.sum(axis=0)
    return grads_w[::-1], grads_b[::-1], d_scale, d_shift


def loss_and_grads(params: NetworkParams, pairs: PairSet, margin: float):
    """Mean contrastive loss over the batch and gradients for every
    trainable array, using train-mode (batch-statistic) normalization
    over the concatenated pair batch."""
    n = pairs.a.shape[0]
    stacked = np.vstack([pairs.a, pairs.b])
    out, cache = _forward_full(params, stacked, train=True)
    e_a, e_b = out[:n], out[n:]
    loss, g_a, g_b = _pair_loss_and_embedding_grads(e_a, e_b, pairs.labels, margin)
    grads_w, grads_b, d_scale, d_shift = _backward(params, cache, np.vstack([g_a, g_b]))
    return loss, [*grads_w, *grads_b, d_scale, d_shift], cache


def grad_check(
    params: NetworkParams,
    pairs: PairSet,
    margin: float = 1.0,
    h: float = 1e-5,
    grads: list[np.ndarray] | None = None,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Checks every trainable parameter; pass `grads` to validate an
    externally supplied (possibly corrupted) gradient set instead of
    the freshly computed one.
    """
    if grads is None:
        _, grads, _ = loss_and_grads(params, pairs, margin)

    def loss_at(p: NetworkParams) -> float:
        value, _, _ = loss_and_grads(p, pairs, margin)
        return value

    worst = 0.0
    work = params.copy()
    arrays = work.trainable()
    for analytic, arr in zip(grads, arrays):
        flat = arr.reshape(-1)
        a_flat = analytic.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_at(work)
            flat[i] = original - h
            down = loss_at(work)
            flat[i] = original
            numeric = (up - down) / (2 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


@dataclass
class TrainResult:
    params: NetworkParams
    epoch_losses: list[float] = field(default_factory=list)


def _adam_step(values, grads, moments1, moments2, t, learning_rate, u, w) -> None:
    """One Adam update (Kingma & Ba 2015, Alg. 1) of every array in
    `values`, in place, one block at a time through the scratch vectors
    `u` and `w` of `_ADAM_BLOCK` elements. Each element sees the same
    operations in the same order as the textbook allocating form, so the
    result is bitwise equal to it."""
    c1 = 1 - _ADAM_BETA1**t
    c2 = 1 - _ADAM_BETA2**t
    for v, g, m1, m2 in zip(values, grads, moments1, moments2):
        v, m1, m2 = (a.reshape(-1, copy=False) for a in (v, m1, m2))
        g = g.reshape(-1)
        for lo in range(0, v.size, _ADAM_BLOCK):
            blk = slice(lo, lo + _ADAM_BLOCK)
            vb, gb, m1b, m2b = v[blk], g[blk], m1[blk], m2[blk]
            ub, wb = u[: vb.size], w[: vb.size]
            m1b *= _ADAM_BETA1
            np.multiply(gb, 1 - _ADAM_BETA1, out=ub)
            m1b += ub
            m2b *= _ADAM_BETA2
            np.multiply(gb, 1 - _ADAM_BETA2, out=ub)
            ub *= gb
            m2b += ub
            np.divide(m1b, c1, out=ub)
            ub *= learning_rate
            np.divide(m2b, c2, out=wb)
            np.sqrt(wb, out=wb)
            wb += _ADAM_EPS
            ub /= wb
            vb -= ub


def train(pairs: PairSet, config: TrainConfig, params: NetworkParams | None = None,
          hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> TrainResult:
    """Mini-batch adaptive-moment training; returns final parameters and
    the per-epoch loss trace. Identical (seed, pairs, config) runs are
    bitwise identical."""
    labels = pairs.labels
    if labels.min() == labels.max():
        raise DegeneratePairs("need both positive and negative pairs")
    if params is None:
        params = init_network(pairs.a.shape[1], config.seed, hidden)
    rng = np.random.default_rng(config.seed)
    arrays = params.trainable()
    moments1 = [np.zeros_like(a) for a in arrays]
    moments2 = [np.zeros_like(a) for a in arrays]
    scratch = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    step = 0
    losses: list[float] = []
    n = pairs.a.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = PairSet(pairs.a[idx], pairs.b[idx], labels[idx])
            loss, grads, cache = loss_and_grads(params, batch, config.margin)
            params.bn_mean = _BN_MOMENTUM * params.bn_mean + (1 - _BN_MOMENTUM) * cache["mu"]
            params.bn_var = _BN_MOMENTUM * params.bn_var + (1 - _BN_MOMENTUM) * cache["var"]
            step += 1
            _adam_step(arrays, grads, moments1, moments2, step, config.learning_rate, *scratch)
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return TrainResult(params, losses)


def siamese_score(enroll_embeddings, verify_embedding) -> float:
    """exp(-d) where d is the mean Euclidean distance from the verify
    embedding to the enrollment embeddings (each from infer-mode
    :func:`forward`); lies in [0, 1]."""
    d = float(np.mean([np.linalg.norm(e - verify_embedding) for e in enroll_embeddings]))
    return float(np.exp(-d))


# --- pair construction ----------------------------------------------------

def build_pair_set(samples_by_subject: dict[str, list[np.ndarray]], seed: int) -> PairSet:
    """All within-subject pairs as positives plus as many seeded
    cross-subject negatives."""
    rng = np.random.default_rng(seed)
    subjects = sorted(samples_by_subject)
    a_rows, b_rows, labels = [], [], []
    for subject in subjects:
        samples = samples_by_subject[subject]
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                a_rows.append(samples[i])
                b_rows.append(samples[j])
                labels.append(1)
    n_negative = len(a_rows)
    if len(subjects) < 2:
        raise DegeneratePairs("need samples from at least two subjects")
    for _ in range(n_negative):
        s1, s2 = rng.choice(len(subjects), size=2, replace=False)
        a_rows.append(samples_by_subject[subjects[s1]][rng.integers(len(samples_by_subject[subjects[s1]]))])
        b_rows.append(samples_by_subject[subjects[s2]][rng.integers(len(samples_by_subject[subjects[s2]]))])
        labels.append(0)
    return PairSet(np.array(a_rows, dtype=float), np.array(b_rows, dtype=float),
                   np.array(labels, dtype=int))


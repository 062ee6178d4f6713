"""Synthetic classification task: data, Dirichlet partitioning, local SGD, FedAvg."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

log = logging.getLogger(__name__)

BYTES_PER_PARAM = 8


# Values in one temporary block of drawn features, so that the noise is drawn
# in pieces of at most 512 KiB, whatever the size of the dataset.
_BLOCK_ELEMENTS = 1 << 16


@dataclass
class Split:
    """The labels of a task's samples and their stratified train/test split."""

    labels: np.ndarray     # (n,) int64 in [0, K)
    train_idx: np.ndarray
    test_idx: np.ndarray
    num_classes: int


@dataclass
class Dataset(Split):
    """Gaussian-blob classification data with a fixed train/test split."""

    features: np.ndarray   # (n, d) float64


def num_params(classes_k: int, features_d: int) -> int:
    return classes_k * features_d + classes_k


def model_size_bytes(classes_k: int, features_d: int) -> int:
    return BYTES_PER_PARAM * num_params(classes_k, features_d)


def init_params(classes_k: int, features_d: int) -> np.ndarray:
    """Zero-initialized flat parameter vector (K x d weights then K biases)."""
    return np.zeros(num_params(classes_k, features_d))


def _unpack(params: np.ndarray, classes_k: int, features_d: int):
    w = params[: classes_k * features_d].reshape(classes_k, features_d)
    b = params[classes_k * features_d :]
    return w, b


def _class_splits(num_samples: int, classes_k: int) -> list[tuple[int, int]]:
    """(train, test) sample counts of each class: balanced classes, ~20 % test."""
    base, rem = divmod(num_samples, classes_k)
    splits = []
    for k in range(classes_k):
        count = base + (1 if k < rem else 0)
        n_test = max(1, round(0.2 * count))
        splits.append((count - n_test, n_test))
    return splits


def train_split_size(num_samples: int, classes_k: int) -> int:
    """Size of split_samples' train split, which dirichlet_partition divides.

    The sum of `_class_splits`' train counts in constant time: `rem` classes
    hold `base + 1` samples and the others `base`.
    """
    base, rem = divmod(num_samples, classes_k)

    def n_train(count: int) -> int:
        return count - max(1, round(0.2 * count))

    return rem * n_train(base + 1) + (classes_k - rem) * n_train(base)


def split_samples(num_samples: int, classes_k: int) -> Split:
    """Balanced classes of consecutive samples, each split ~80/20 into train then test.

    Fixed by (num_samples, classes_k): nothing is drawn. Every class lands in
    both splits; requires at least 5 samples per class.
    """
    if classes_k < 2:
        raise ValueError(f"need classes_k >= 2, got {classes_k}")
    if num_samples < 5 * classes_k:
        raise ValueError(f"need at least {5 * classes_k} samples for {classes_k} classes")
    splits = _class_splits(num_samples, classes_k)
    counts = [n_train + n_test for n_train, n_test in splits]
    train_parts, test_parts = [], []
    start = 0
    for n_train, n_test in splits:
        train_parts.append(np.arange(start, start + n_train))
        test_parts.append(np.arange(start + n_train, start + n_train + n_test))
        start += n_train + n_test
    return Split(
        labels=np.repeat(np.arange(classes_k, dtype=np.int64), counts),
        train_idx=np.concatenate(train_parts),
        test_idx=np.concatenate(test_parts),
        num_classes=classes_k,
    )


def draw_features(
    num_samples: int, features_d: int, classes_k: int, class_sep: float, seed, rows
) -> np.ndarray:
    """Gaussian blobs of `split_samples`' samples; row i holds sample rows[i].

    `rows` orders all num_samples samples, each once. The class means are
    drawn first, times class_sep, then a noise row per sample, in sample order.
    The noise is drawn in blocks of at most `_BLOCK_ELEMENTS` values inside
    one class, and each block gets its class's mean added in place and goes
    straight to its rows. Drawn in one call and then permuted, the bytes would
    be the same: `normal` fills blocks from the stream as it fills one array.
    """
    if classes_k < 2 or features_d < 1:
        raise ValueError(f"need classes_k >= 2 and features_d >= 1, got {classes_k}, {features_d}")
    pos = np.full(num_samples, -1, np.int64)   # the row of each sample
    pos[rows] = np.arange(len(rows))
    if len(rows) != num_samples or np.minimum.reduce(pos) < 0:
        raise ValueError(f"rows must order all {num_samples} samples, each once")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes_k, features_d)) * class_sep
    features = np.empty((num_samples, features_d))
    step = max(1, _BLOCK_ELEMENTS // features_d)
    stop = 0
    for mean, (n_train, n_test) in zip(means, _class_splits(num_samples, classes_k)):
        start, stop = stop, stop + n_train + n_test
        for a in range(start, stop, step):
            block = rng.normal(0.0, 1.0, size=(min(step, stop - a), features_d))
            block += mean
            features[pos[a : a + len(block)]] = block
    return features


def make_dataset(
    num_samples: int, features_d: int, classes_k: int, class_sep: float, seed
) -> Dataset:
    """`split_samples` with its features drawn in sample order."""
    split = split_samples(num_samples, classes_k)
    features = draw_features(
        num_samples, features_d, classes_k, class_sep, seed, np.arange(num_samples)
    )
    return Dataset(**vars(split), features=features)


def dirichlet_partition(
    dataset: Split, num_clients: int, alpha: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Split the train set across clients with per-class Dirichlet proportions.

    For each class, proportions ~ Dirichlet(alpha, ..., alpha) over clients turn
    into integer counts by largest remainder, then contiguous runs of that
    class's samples. Returns the train indices in client order (int64) and N + 1
    int64 offsets: client c's shard is order[offsets[c]:offsets[c + 1]]. Shards
    are disjoint, cover the train split exactly, and ascend, because a stable
    sort by client keeps train order, which ascends class by class.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if num_clients > len(dataset.train_idx):
        raise ValueError(
            f"cannot split {len(dataset.train_idx)} train samples across {num_clients} clients"
        )
    rng = np.random.default_rng(seed)
    train_labels = dataset.labels[dataset.train_idx]
    owner = np.empty(len(train_labels), dtype=np.int64)
    sizes = np.zeros(num_clients, dtype=np.int64)
    for k in range(dataset.num_classes):
        in_k = train_labels == k
        n_k = int(np.count_nonzero(in_k))
        props = rng.dirichlet(np.full(num_clients, alpha))
        raw = props * n_k
        counts = np.floor(raw).astype(np.int64)
        short = n_k - counts.sum()
        by_remainder = np.argsort(-(raw - counts), kind="stable")
        counts[by_remainder[:short]] += 1
        owner[in_k] = np.repeat(np.arange(num_clients), counts)
        sizes += counts
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = dataset.train_idx[np.argsort(owner, kind="stable")].astype(np.int64, copy=False)
    return order, offsets


@lru_cache(maxsize=8)
def _one_hot(classes_k: int) -> np.ndarray:
    """np.eye(classes_k), whose row k is label k's target; made once per class count, read-only."""
    eye = np.eye(classes_k)
    eye.flags.writeable = False
    return eye


def local_train(
    global_params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    classes_k: int,
    epochs: int,
    batch_size: int,
    lr: float,
    seed,
) -> np.ndarray:
    """Mini-batch gradient descent on softmax cross-entropy; returns trained - global.

    Each epoch shuffles the shard with one `permutation` of a
    `default_rng(seed)` made once per call, then steps through it in batches
    of `batch_size` rows (the last one may be shorter). An empty shard yields
    a zero delta (the client "trains" on nothing).

    A shard of fewer than two rows makes no generator: the permutation of 0 or
    1 rows is the identity whatever the seed, so the result does not depend on
    the seed. A one-row shard is gathered once, in place of once per epoch,
    into the contiguous (1, d) block the per-epoch gather would copy.

    The rows and one-hot labels are gathered in shuffled order once per epoch,
    so each batch is a contiguous slice, and each step works in place on its
    logits and on one gradient buffer laid out like the parameters. This gives
    the bytes of the plain per-batch form (`loop_local_train` in
    `tests/oracles.py`) because:

    - every elementwise step is the same IEEE operation in the same order;
    - subtracting the one-hot row leaves the other probabilities as they are,
      since p - 0.0 == p for p >= 0;
    - `grad *= lr` then `params -= grad` computes g * lr == lr * g, then the
      same subtraction;
    - BLAS sees the same shapes and layouts, because a contiguous slice of the
      per-epoch gather holds the rows a per-batch gather would copy.
    """
    if epochs < 0 or batch_size < 1 or lr < 0:
        raise ValueError("need epochs >= 0, batch_size >= 1, lr >= 0")
    n = len(labels)
    if features.ndim != 2 or features.shape[0] != n:
        raise ValueError(
            f"need features of shape (len(labels), d) = ({n}, d), got {features.shape}"
        )
    if n == 0:
        log.debug("local_train on an empty shard: zero delta")
        return np.zeros_like(global_params)
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= classes_k:
        raise ValueError(f"labels must lie in [0, {classes_k}), got {labels.min()}..{labels.max()}")
    params = global_params.copy()
    grad = np.empty_like(params)
    w, b = _unpack(params, classes_k, features.shape[1])
    grad_w, grad_b = _unpack(grad, classes_k, features.shape[1])
    eye = _one_hot(classes_k)
    if n > 1:
        rng = np.random.default_rng(seed)
    else:
        xs, ys = np.ascontiguousarray(features), eye[labels]
    for _ in range(epochs):
        if n > 1:
            order = rng.permutation(n)
            xs, ys = features[order], eye[labels[order]]
        for s in range(0, n, batch_size):
            x, y = xs[s : s + batch_size], ys[s : s + batch_size]
            z = x @ w.T
            z += b
            z -= np.maximum.reduce(z, axis=1, keepdims=True)   # numeric stability
            np.exp(z, out=z)
            z /= np.add.reduce(z, axis=1, keepdims=True)
            z -= y
            z /= len(x)
            np.matmul(z.T, x, out=grad_w)
            np.add.reduce(z, axis=0, out=grad_b)
            grad *= lr
            params -= grad
    params -= global_params
    return params


def fedavg(deltas: list[np.ndarray]) -> np.ndarray:
    """Unweighted element-wise mean of client deltas.

    The sum along the stacked axis, then one division: the float operations
    of `np.mean(axis=0)`, without its Python wrapper. np.stack raises
    ValueError unless there is at least one delta and all have one shape.
    """
    return np.add.reduce(np.stack(deltas)) / len(deltas)


def evaluate(params: np.ndarray, features: np.ndarray, labels: np.ndarray, classes_k: int) -> float:
    """Accuracy of argmax predictions; ties break to the lowest class index."""
    if len(labels) == 0:
        raise ValueError("cannot evaluate on an empty set")
    w, b = _unpack(params, classes_k, features.shape[1])
    predicted = np.argmax(features @ w.T + b, axis=1)
    return float(np.mean(predicted == labels))

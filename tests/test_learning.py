"""Synthetic task: data generation, partitioning, local training, aggregation."""

import itertools

import numpy as np
import pytest

import oracles
from fedselsim import learning


# ---------------------------------------------------------------- make_dataset

def test_make_dataset_shapes_and_split():
    ds = learning.make_dataset(103, 6, 4, 1.0, 0)
    assert ds.features.shape == (103, 6)
    assert ds.labels.shape == (103,)
    assert ds.num_classes == 4
    assert ds.features.shape[1] == 6
    # 103 over 4 classes -> counts 26, 26, 26, 25 (remainder to low classes)
    assert np.bincount(ds.labels).tolist() == [26, 26, 26, 25]
    # stratified split: disjoint, covering, every class on both sides
    merged = np.sort(np.concatenate([ds.train_idx, ds.test_idx]))
    assert np.array_equal(merged, np.arange(103))
    for split in (ds.train_idx, ds.test_idx):
        assert set(np.unique(ds.labels[split])) == {0, 1, 2, 3}
    assert len(ds.test_idx) == pytest.approx(0.2 * 103, abs=2)


def test_make_dataset_deterministic():
    a = learning.make_dataset(60, 3, 2, 0.5, 7)
    b = learning.make_dataset(60, 3, 2, 0.5, 7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = learning.make_dataset(60, 3, 2, 0.5, 8)
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize(
    "num_samples, features_d, classes_k, class_sep",
    [(103, 6, 4, 1.0), (61, 3, 7, 2.5), (10, 1, 2, 0.3), (997, 64, 10, 1.0)],
)
def test_make_dataset_matches_the_gathered_means_oracle(num_samples, features_d, classes_k, class_sep):
    # Class counts that differ by one, so each class's rows start off any stride.
    for seed in (0, 1, 2**40, 123456789):
        ds = learning.make_dataset(num_samples, features_d, classes_k, class_sep, seed)
        features, labels = oracles.gathered_blobs(num_samples, features_d, classes_k, class_sep, seed)
        assert ds.features.dtype == features.dtype and ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def test_make_dataset_validation():
    with pytest.raises(ValueError):
        learning.make_dataset(100, 4, 1, 1.0, 0)
    with pytest.raises(ValueError):
        learning.make_dataset(9, 4, 2, 1.0, 0)  # < 5 per class


# --------------------------------------------------------- dirichlet_partition

def test_split_samples_is_make_datasets_split():
    for num_samples, classes_k in [(103, 4), (37, 7), (10, 2)]:
        split = learning.split_samples(num_samples, classes_k)
        ds = learning.make_dataset(num_samples, 2, classes_k, 1.0, 0)
        for name in ("labels", "train_idx", "test_idx"):
            assert getattr(split, name).tobytes() == getattr(ds, name).tobytes(), name
        assert split.num_classes == ds.num_classes == classes_k
    with pytest.raises(ValueError):
        learning.split_samples(100, 1)
    with pytest.raises(ValueError):
        learning.split_samples(9, 2)


@pytest.mark.parametrize(
    "num_samples, features_d, classes_k, block",
    [
        (103, 6, 4, 7),        # uneven classes, two rows a block
        (37, 3, 7, 12),        # classes of five and six samples: one test row each
        (61, 2, 7, 1),         # one row a block
        (997, 5, 10, 1 << 16), # one block a class
    ],
)
def test_draw_features_places_make_datasets_rows(monkeypatch, num_samples, features_d, classes_k, block):
    # Row i of the placed draw is row rows[i] of make_dataset's features, byte
    # for byte, drawn in blocks that split a class or not. The reference is
    # the gathered-means oracle, which make_dataset's features equal.
    rng = np.random.default_rng(num_samples)
    split = learning.split_samples(num_samples, classes_k)
    order, _ = learning.dirichlet_partition(split, 5, 0.3, 1)
    orders = [
        np.arange(num_samples),
        np.arange(num_samples)[::-1],
        np.concatenate((order, split.test_idx)),   # build_world's layout
        *(rng.permutation(num_samples) for _ in range(5)),
    ]
    for seed in (0, 2**40):
        expected, _ = oracles.gathered_blobs(num_samples, features_d, classes_k, 1.5, seed)
        with monkeypatch.context() as patch:
            patch.setattr(learning, "_BLOCK_ELEMENTS", block)
            for rows in orders:
                got = learning.draw_features(num_samples, features_d, classes_k, 1.5, seed, rows)
                assert got.flags.c_contiguous and got.dtype == expected.dtype
                assert got.tobytes() == expected[rows].tobytes()


def test_draw_features_needs_every_sample_once():
    for rows in ([0, 1, 2, 3, 4, 5, 6, 7, 8], [0] * 10, [*range(9), 8], [*range(10), 0]):
        with pytest.raises(ValueError, match="each once"):
            learning.draw_features(10, 2, 2, 1.0, 0, np.array(rows))
    with pytest.raises(ValueError):
        learning.draw_features(10, 0, 2, 1.0, 0, np.arange(10))


def test_train_split_size_equals_the_per_class_sum():
    # make_dataset's per-class split, summed class by class, over a grid that
    # includes fewer samples than classes (where the counts go negative)
    def per_class_sum(num_samples, classes_k):
        base, rem = divmod(num_samples, classes_k)
        total = 0
        for k in range(classes_k):
            count = base + (1 if k < rem else 0)
            total += count - max(1, round(0.2 * count))
        return total

    for num_samples, classes_k in itertools.product(range(0, 400, 3), range(1, 70)):
        assert learning.train_split_size(num_samples, classes_k) == per_class_sum(
            num_samples, classes_k
        ), (num_samples, classes_k)
    rng = np.random.default_rng(31)
    for _ in range(200):
        classes_k = int(rng.integers(1, 2000))
        num_samples = int(rng.integers(0, 100 * classes_k))
        assert learning.train_split_size(num_samples, classes_k) == per_class_sum(
            num_samples, classes_k
        ), (num_samples, classes_k)
    for n in (2_000, 4_000, 12_345):
        assert learning.train_split_size(n, 10) == len(
            learning.make_dataset(n, 2, 10, 1.0, 0).train_idx
        )


def test_train_split_size_takes_constant_time():
    # a sum over 10**15 classes would never return
    assert learning.train_split_size(5 * 10**15, 10**15) == 4 * 10**15
    # three classes of 6 samples train on 5 each, the rest of 5 on 4 each
    assert learning.train_split_size(5 * 10**15 + 3, 10**15) == 4 * 10**15 + 3


def shards_of(order, offsets):
    """Client c's shard, order[offsets[c]:offsets[c + 1]], for every client."""
    return [order[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def test_partition_is_a_partition():
    ds = learning.make_dataset(500, 8, 5, 1.0, 1)
    order, offsets = learning.dirichlet_partition(ds, 12, 0.5, 2)
    assert (order.dtype, offsets.dtype) == (np.int64, np.int64)
    assert len(offsets) == 12 + 1
    assert offsets[0] == 0 and offsets[-1] == len(order)
    assert (np.diff(offsets) >= 0).all()
    assert len(order) == len(ds.train_idx)
    assert np.array_equal(np.sort(order), np.sort(ds.train_idx))  # disjoint cover
    for shard in shards_of(order, offsets):
        assert (np.diff(shard) > 0).all()   # each shard ascends


def test_partition_deterministic():
    ds = learning.make_dataset(300, 4, 3, 1.0, 3)
    a = learning.dirichlet_partition(ds, 7, 0.2, 9)
    b = learning.dirichlet_partition(ds, 7, 0.2, 9)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


def test_partition_matches_the_list_oracle():
    # Shard c of the list-of-shards partition must be the slice
    # order[offsets[c]:offsets[c + 1]], bit for bit, over random datasets,
    # alpha from 0.05 to 10 and up to one client per train sample.
    rng = np.random.default_rng(41)
    sizes_seen = set()
    for _ in range(150):
        classes_k = int(rng.integers(2, 12))
        num_samples = int(rng.integers(5 * classes_k, 600))
        ds = learning.make_dataset(num_samples, 2, classes_k, 1.0, int(rng.integers(1 << 30)))
        n_train = len(ds.train_idx)
        num_clients = int(rng.choice([1, n_train, int(rng.integers(1, n_train + 1))]))
        alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        seed = int(rng.integers(1 << 30))
        expected = oracles.list_dirichlet_partition(ds, num_clients, alpha, seed)
        order, offsets = learning.dirichlet_partition(ds, num_clients, alpha, seed)
        assert offsets.tolist() == [0, *np.cumsum([len(s) for s in expected]).tolist()]
        for got, want in zip(shards_of(order, offsets), expected, strict=True):
            assert got.tobytes() == want.astype(np.int64).tobytes()
        sizes_seen.update(np.diff(offsets).tolist())
    assert {0, 1} <= sizes_seen


def test_partition_high_alpha_is_nearly_iid():
    # alpha -> inf concentrates proportions at 1/num_clients
    tvs = []
    for seed in range(20):
        ds = learning.make_dataset(2000, 16, 10, 0.3, seed)
        global_dist = np.bincount(ds.labels[ds.train_idx], minlength=10) / len(ds.train_idx)
        for shard in shards_of(*learning.dirichlet_partition(ds, 10, 1e6, 100 + seed)):
            dist = np.bincount(ds.labels[shard], minlength=10) / len(shard)
            tvs.append(0.5 * np.abs(dist - global_dist).sum())
    assert max(tvs) <= 0.05


def test_partition_low_alpha_skews_shards():
    # threshold calibrated against the generator before freezing: the plain
    # mean over clients lands at ~0.49 for alpha=0.2 (tiny shards pull both
    # ways), against ~0.10 for the near-iid baseline
    def mean_dominant_share(alpha):
        shares = []
        for seed in range(20):
            ds = learning.make_dataset(2000, 16, 10, 0.3, seed)
            for shard in shards_of(*learning.dirichlet_partition(ds, 10, alpha, 100 + seed)):
                if len(shard) == 0:
                    continue
                counts = np.bincount(ds.labels[shard], minlength=10)
                shares.append(counts.max() / counts.sum())
        return float(np.mean(shares))

    skewed = mean_dominant_share(0.2)
    iid = mean_dominant_share(1e6)
    assert skewed > 0.45
    assert skewed > 3 * iid


def test_partition_validation():
    ds = learning.make_dataset(60, 3, 2, 1.0, 4)
    with pytest.raises(ValueError):
        learning.dirichlet_partition(ds, 10_000, 0.2, 0)
    with pytest.raises(ValueError):
        learning.dirichlet_partition(ds, 5, 0.0, 0)


# ----------------------------------------------------------------- local_train

def test_local_train_zero_lr_zero_delta():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    params = rng.normal(size=learning.num_params(3, 4))
    delta = learning.local_train(params, X, y, 3, 2, 4, 0.0, 1)
    assert np.array_equal(delta, np.zeros_like(params))


def test_local_train_empty_shard_zero_delta():
    params = np.ones(learning.num_params(2, 3))
    delta = learning.local_train(params, np.empty((0, 3)), np.empty(0, dtype=int), 2, 1, 4, 0.1, 1)
    assert np.array_equal(delta, np.zeros_like(params))


def test_local_train_deterministic():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 4, size=30)
    params = rng.normal(size=learning.num_params(4, 5))
    a = learning.local_train(params, X, y, 4, 3, 8, 0.05, 42)
    b = learning.local_train(params, X, y, 4, 3, 8, 0.05, 42)
    assert np.array_equal(a, b)
    c = learning.local_train(params, X, y, 4, 3, 8, 0.05, 43)
    assert not np.array_equal(a, c)


def test_local_train_single_sample_matches_finite_differences():
    # one sample, one full-batch step: delta = -lr * grad exactly
    rng = np.random.default_rng(42)
    X = rng.normal(size=(1, 5))
    y = np.array([1])
    params = rng.normal(scale=0.5, size=learning.num_params(3, 5))
    lr = 0.1
    delta = learning.local_train(params, X, y, 3, 1, 8, lr, 0)
    grad = -delta / lr
    reference = oracles.finite_difference_grad(params, X, y, 3)
    rel = np.abs(grad - reference) / np.maximum(np.abs(reference), 1e-12)
    assert rel.max() < 1e-6


def test_local_train_batch_gradient_matches_finite_differences():
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 12))
        classes_k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, classes_k, size=n)
        params = rng.normal(scale=0.5, size=learning.num_params(classes_k, d))
        delta = learning.local_train(params, X, y, classes_k, 1, n, 0.05, trial)
        grad = -delta / 0.05
        reference = oracles.finite_difference_grad(params, X, y, classes_k)
        rel = np.abs(grad - reference) / np.maximum(np.abs(reference), 1e-8)
        assert rel.max() < 1e-4


def test_local_train_full_batch_descent():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 4, size=40)
    params = rng.normal(scale=0.5, size=learning.num_params(4, 6))
    losses = [oracles.softmax_loss(params, X, y, 4)]
    for step in range(5):
        params = params + learning.local_train(params, X, y, 4, 1, 40, 0.05, step)
        losses.append(oracles.softmax_loss(params, X, y, 4))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_local_train_matches_loop_oracle_bytes():
    # Every combination of batch size (ragged last batch included), epochs, lr,
    # zero/non-zero start and seed type, four times over, with random shard
    # shapes: n log-uniform in [1, 300], d in [1, 64], k in [2, 10]. The
    # package must give the per-batch loop's bytes, not just close values.
    rng = np.random.default_rng(2024)
    cases = list(itertools.product(
        (1, 2, 3, 7, 20, 32, 64, None),   # None: larger than the shard
        (0, 1, 2, 3),
        (0.0, 0.05, 3.0),
        (False, True),
        ("seedseq", "int", "tuple"),
    )) * 4
    for i, (batch_size, epochs, lr, zero_start, seed_kind) in enumerate(cases):
        n = int(np.exp(rng.uniform(0.0, np.log(301))))
        d = int(rng.integers(1, 65))
        classes_k = int(rng.integers(2, 11))
        if batch_size is None:
            batch_size = n + int(rng.integers(1, 10))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, classes_k, size=n)
        size = learning.num_params(classes_k, d)
        params = np.zeros(size) if zero_start else rng.normal(scale=0.5, size=size)
        seed = {
            "seedseq": np.random.SeedSequence([i, 3, 7]),
            "int": i,
            "tuple": (i, 11),
        }[seed_kind]
        start = params.copy()
        args = (params, X, y, classes_k, epochs, batch_size, lr)
        got = learning.local_train(*args, seed)
        want = oracles.loop_local_train(*args, seed)
        assert got.tobytes() == want.tobytes(), (i, n, d, classes_k, batch_size, epochs, lr)
        assert params.tobytes() == start.tobytes()  # the global model is not written to
    for d, classes_k in ((1, 2), (64, 10)):
        params = rng.normal(size=learning.num_params(classes_k, d))
        args = (params, np.empty((0, d)), np.empty(0, dtype=np.int64), classes_k, 2, 4, 0.05, 1)
        assert learning.local_train(*args).tobytes() == oracles.loop_local_train(*args).tobytes()


def test_one_row_shard_does_not_depend_on_the_seed():
    # a permutation of one row is that row, so no seed can change the delta
    rng = np.random.default_rng(2025)
    seeds = (0, 1, 2**63, (5, 0, 1), np.random.SeedSequence([9, 9, 9]))
    for trial in range(200):
        d = int(rng.integers(1, 65))
        classes_k = int(rng.integers(2, 11))
        X = rng.normal(size=(1, d))
        y = rng.integers(0, classes_k, size=1)
        params = rng.normal(scale=0.5, size=learning.num_params(classes_k, d))
        args = (params, X, y, classes_k, int(rng.integers(0, 4)),
                int(rng.integers(1, 5)), float(rng.choice([0.0, 0.05, 3.0])))
        want = oracles.loop_local_train(*args, trial).tobytes()
        for seed in seeds:
            assert learning.local_train(*args, seed).tobytes() == want, (trial, seed)


def test_entropy_tuple_seeds_like_its_seed_sequence():
    # run_round passes (run_seed, round, client); SeedSequence([...]) of the same
    # three numbers must train to the same bytes on every shard size
    rng = np.random.default_rng(2026)
    for trial in range(300):
        n = int(rng.integers(0, 40))
        d = int(rng.integers(1, 17))
        classes_k = int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, classes_k, size=n)
        params = rng.normal(scale=0.5, size=learning.num_params(classes_k, d))
        args = (params, X, y, classes_k, int(rng.integers(1, 4)), int(rng.integers(1, 9)), 0.05)
        a, b, c = (int(v) for v in rng.integers(0, 2**32, size=3))
        from_tuple = learning.local_train(*args, (a, b, c)).tobytes()
        from_seed_sequence = learning.local_train(*args, np.random.SeedSequence([a, b, c]))
        assert from_tuple == from_seed_sequence.tobytes()
        assert from_tuple == oracles.loop_local_train(*args, (a, b, c)).tobytes()


def test_local_train_validation():
    X = np.zeros((2, 2))
    y = np.zeros(2, dtype=int)
    params = np.zeros(learning.num_params(2, 2))
    with pytest.raises(ValueError):
        learning.local_train(params, X, y, 2, 1, 0, 0.1, 0)
    with pytest.raises(ValueError):
        learning.local_train(params, X, y, 2, 1, 4, -0.1, 0)
    # features must be 2-D with one row per label: more rows were silently cut
    # to len(labels), fewer failed with an IndexError partway through an epoch
    for bad in (np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((0, 2)), np.zeros(2),
                np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="features"):
            learning.local_train(params, bad, y, 2, 1, 4, 0.1, 0)
    with pytest.raises(ValueError, match="features"):  # an empty shard is still checked
        learning.local_train(params, X, np.zeros(0, dtype=int), 2, 1, 4, 0.1, 0)
    # labels must lie in [0, classes_k): -1 trained silently as k - 1, and k
    # failed with an IndexError from the one-hot gather
    for bad in ([-1, 0], [0, 2]):
        with pytest.raises(ValueError, match="labels"):
            learning.local_train(params, X, np.array(bad), 2, 1, 4, 0.1, 0)


# ---------------------------------------------------------------------- fedavg

def test_fedavg_examples():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(learning.fedavg([v]), v)
    assert np.array_equal(learning.fedavg([v, -v]), np.zeros(3))
    assert np.array_equal(
        learning.fedavg([np.array([1.0, 3.0]), np.array([3.0, 5.0])]), np.array([2.0, 4.0])
    )


def test_fedavg_k_copies_identity():
    # mean of k identical deltas is that delta: bitwise while the running sums
    # stay exactly representable (k a small power of two), within 2 ulp beyond
    rng = np.random.default_rng(22)
    v = rng.normal(size=17)
    for k in (1, 2, 4):
        assert np.array_equal(learning.fedavg([v.copy() for _ in range(k)]), v)
    for k in (3, 5, 9):
        np.testing.assert_array_almost_equal_nulp(
            learning.fedavg([v.copy() for _ in range(k)]), v, nulp=2
        )


def test_fedavg_is_exactly_the_mean():
    rng = np.random.default_rng(23)
    deltas = [rng.normal(size=12) for _ in range(7)]
    assert np.array_equal(learning.fedavg(deltas), np.mean(np.stack(deltas), axis=0))


def test_fedavg_empty_and_mismatched():
    with pytest.raises(ValueError):
        learning.fedavg([])
    with pytest.raises(ValueError):
        learning.fedavg([np.zeros(3), np.zeros(4)])


# -------------------------------------------------------------------- evaluate

def test_evaluate_zero_model_balanced_binary():
    # all-zero logits tie every class; ties break to class 0
    X = np.random.default_rng(24).normal(size=(40, 3))
    y = np.array([0, 1] * 20)
    params = np.zeros(learning.num_params(2, 3))
    assert learning.evaluate(params, X, y, 2) == 0.5


def test_evaluate_perfect_separator():
    # one-hot features, identity weights: logit of the true class is 1
    X = np.eye(4)[np.array([0, 1, 2, 3, 2, 1])]
    y = np.array([0, 1, 2, 3, 2, 1])
    params = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
    assert learning.evaluate(params, X, y, 4) == 1.0


def test_evaluate_permutation_invariant():
    rng = np.random.default_rng(25)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    params = rng.normal(size=learning.num_params(3, 4))
    base = learning.evaluate(params, X, y, 3)
    perm = rng.permutation(50)
    assert learning.evaluate(params, X[perm], y[perm], 3) == base


def test_evaluate_empty_raises():
    with pytest.raises(ValueError):
        learning.evaluate(np.zeros(6), np.empty((0, 2)), np.empty(0, dtype=int), 2)


# -------------------------------------------------- federated = centralized GD

def test_fedavg_equals_centralized_on_equal_iid_shards():
    # all clients selected, 1 epoch, full batch, equal shard sizes: the mean of
    # shard gradients is the pooled gradient, so FL follows centralized GD
    classes_k, d, lr = 3, 4, 0.1
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, d))
    y = rng.integers(0, classes_k, size=60)
    shards = [np.arange(i * 15, (i + 1) * 15) for i in range(4)]

    global_params = np.zeros(learning.num_params(classes_k, d))
    central = global_params.copy()
    for step in range(30):
        deltas = [
            learning.local_train(global_params, X[s], y[s], classes_k, 1, 15, lr, (step, i))
            for i, s in enumerate(shards)
        ]
        global_params = global_params + learning.fedavg(deltas)
        central = central - lr * oracles.softmax_grad(central, X, y, classes_k)
        assert np.abs(global_params - central).max() < 1e-9


# ------------------------------------------------------------------ model size

def test_param_count_and_model_size():
    assert learning.num_params(5, 32) == 5 * 32 + 5
    assert learning.model_size_bytes(5, 32) == 8 * 165
    assert np.array_equal(learning.init_params(2, 3), np.zeros(8))

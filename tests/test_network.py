"""Network layer: worked-value checks plus two independent oracles.

The gradient oracle is central finite differences against a forward
pass written from scratch in this file; the loss oracle is a pure
Python scalar-by-scalar evaluation of the weighted cross-entropy.
Neither shares code with the package.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fedvra.data import RecordTable, _write_text
from fedvra.errors import NumericalError
from fedvra.federated import Silo
from fedvra.network import (
    INPUT_DIM,
    Gradients,
    ModelParams,
    TrainConfig,
    average_models,
    backward,
    batch_loss,
    forward_batch,
    init_model,
    load_params,
    loss_from_logits,
    lr_at_epoch,
    params_from_dict,
    params_json_pieces,
    sgd_step,
    sigmoid,
    softplus,
    _sigmoid_pair,
)
from params_dict import params_to_dict


# ---------- oracles ----------


def oracle_loss_scalar(params: ModelParams, x, y, p) -> float:
    """Pure Python re-derivation of the weighted cross-entropy."""
    total = 0.0
    for i in range(len(y)):
        z1 = [
            sum(params.w1[j][k] * x[i][k] for k in range(INPUT_DIM)) + params.b1[j]
            for j in range(params.hidden_size)
        ]
        hidden = [v if v > 0.0 else 0.0 for v in z1]
        z = sum(params.w2[j] * hidden[j] for j in range(params.hidden_size)) + params.b2
        sp_pos = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))  # softplus(-z)
        sp_neg = max(z, 0.0) + math.log1p(math.exp(-abs(z)))  # softplus(z)
        total += p * y[i] * sp_pos + (1.0 - y[i]) * sp_neg
    return total / len(y)


def fd_loss(vec, h, x, y, p) -> float:
    """Loss as a function of the flattened parameter vector, numpy only."""
    w1 = vec[: h * INPUT_DIM].reshape(h, INPUT_DIM)
    b1 = vec[h * INPUT_DIM : h * INPUT_DIM + h]
    w2 = vec[h * INPUT_DIM + h : h * INPUT_DIM + 2 * h]
    b2 = vec[-1]
    z1 = x @ w1.T + b1
    z = np.maximum(z1, 0.0) @ w2 + b2
    sp = lambda t: np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return float(np.mean(p * y * sp(-z) + (1.0 - y) * sp(z)))


def flatten(g) -> np.ndarray:
    return np.concatenate([g.w1.ravel(), g.b1, np.asarray(g.w2), [g.b2]])


def fd_gradient(params: ModelParams, x, y, p, eps=1e-5) -> np.ndarray:
    vec = flatten(params)
    h = params.hidden_size
    out = np.empty_like(vec)
    for k in range(vec.size):
        up = vec.copy()
        down = vec.copy()
        up[k] += eps
        down[k] -= eps
        out[k] = (fd_loss(up, h, x, y, p) - fd_loss(down, h, x, y, p)) / (2 * eps)
    return out


def random_instance(rng, kink_margin=1e-3):
    """Random (params, x, y, p) whose pre-activations clear the ReLU kink."""
    while True:
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        params = ModelParams(
            w1=rng.normal(0.0, 1.0 / math.sqrt(INPUT_DIM), size=(h, INPUT_DIM)),
            b1=rng.normal(0.0, 0.3, size=h),
            w2=rng.normal(0.0, 0.5, size=h),
            b2=float(rng.normal(0.0, 0.3)),
        )
        x = rng.standard_normal((n, INPUT_DIM))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        p = float(rng.uniform(0.5, 10.0))
        z1 = x @ params.w1.T + params.b1
        if np.abs(z1).min() > kink_margin:
            return params, x, y, p


# ---------- init ----------


def test_init_deterministic_and_seed_sensitive():
    a = init_model(64, 42)
    b = init_model(64, 42)
    c = init_model(64, 43)
    assert a == b
    assert a != c


def test_init_bounds_and_zero_biases():
    m = init_model(128, 7)
    assert np.all(m.b1 == 0.0) and m.b2 == 0.0
    assert np.abs(m.w1).max() <= 1.0 / math.sqrt(INPUT_DIM)
    assert np.abs(m.w2).max() <= 1.0 / math.sqrt(128)
    assert m.w1.shape == (128, INPUT_DIM)


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init_model(0, 1)
    with pytest.raises(ValueError):
        init_model(4, -1)


# ---------- forward ----------


def test_forward_zero_params():
    m = ModelParams(w1=np.zeros((3, INPUT_DIM)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    assert forward_batch(m, np.ones((4, INPUT_DIM))).tolist() == [0.0] * 4  # shape (n,)


def test_forward_worked_values():
    m = ModelParams(w1=np.ones((1, INPUT_DIM)), b1=[0.0], w2=[1.0], b2=0.0)
    x = np.full((1, INPUT_DIM), 0.01)
    assert math.isclose(forward_batch(m, x)[0], 3.0, rel_tol=0, abs_tol=1e-12)

    # ReLU clamps the hidden unit, leaving only the output bias
    clamped = ModelParams(w1=np.ones((1, INPUT_DIM)), b1=[-400.0], w2=[1.0], b2=5.0)
    assert forward_batch(clamped, x)[0] == 5.0


def test_forward_rejects_bad_shapes():
    m = init_model(2, 0)
    with pytest.raises(ValueError):
        forward_batch(m, np.ones(INPUT_DIM))
    with pytest.raises(ValueError):
        forward_batch(m, np.ones((1, INPUT_DIM - 1)))
    with pytest.raises(ValueError):
        forward_batch(m, np.ones((2, INPUT_DIM + 1)))


# ---------- sigmoid / softplus ----------


def test_sigmoid_values_and_stability():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(40.0) >= 1.0 - 1e-15
    assert 0.0 < sigmoid(-40.0) <= 1e-15
    big = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.isfinite(big).all()
    assert big[0] == 0.0 and big[1] == 1.0


def test_sigmoid_array_matches_scalar():
    z = np.linspace(-20, 20, 41)
    arr = sigmoid(z)
    for i, v in enumerate(z):
        assert arr[i] == sigmoid(float(v))


def _two_branch_sigmoid(z):
    """The logistic function as 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) otherwise, each branch on its own entries."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_equal_to_the_two_branch_formula():
    edges = np.array([0.0, 5e-324, 1e-300, 36.7, 709.7, 745.2, 800.0, np.inf])
    rng = np.random.default_rng(20221014)
    wide = rng.standard_normal(10**5) * np.exp(rng.uniform(-12.0, 7.0, 10**5))
    z = np.concatenate([edges, -edges, wide, [np.nan]])
    assert np.signbit(z[len(edges)])  # -0.0 is among the inputs
    for got, want in ((sigmoid(z), _two_branch_sigmoid(z)), (_sigmoid_pair(z)[1], _two_branch_sigmoid(-z))):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 1
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert np.array_equal(_sigmoid_pair(z)[0], sigmoid(z), equal_nan=True)
    for v in (-800.0, -0.0, 5e-324, 36.7):
        assert sigmoid(v) == _two_branch_sigmoid(np.array([v]))[0]


def test_softplus_stability():
    assert softplus(0.0) == math.log(2.0)
    assert softplus(1000.0) == 1000.0
    assert softplus(-1000.0) == 0.0
    assert math.isclose(softplus(3.0), math.log1p(math.exp(3.0)), rel_tol=1e-15)


# ---------- loss ----------


def test_loss_worked_values():
    assert loss_from_logits(np.array([0.0]), np.array([1.0]), 1.0) == math.log(2.0)
    p = 3855 / 425
    got = loss_from_logits(np.array([0.0]), np.array([1.0]), p)
    assert math.isclose(got, p * math.log(2.0), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 6.2868, rel_tol=0, abs_tol=5e-4)


def test_loss_scalar_oracle():
    rng = np.random.default_rng(202)
    for _ in range(60):
        h = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        params = ModelParams(
            w1=rng.normal(0.0, 1.0 / math.sqrt(INPUT_DIM), size=(h, INPUT_DIM)),
            b1=rng.normal(0.0, 0.5, size=h),
            w2=rng.normal(0.0, 0.7, size=h),
            b2=float(rng.normal()),
        )
        x = rng.standard_normal((n, INPUT_DIM))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        p = float(rng.uniform(0.2, 12.0))
        got = batch_loss(params, x, y, p)
        want = oracle_loss_scalar(params, x, y, p)
        assert abs(got - want) < 1e-12


def test_loss_extreme_logits_stay_finite():
    z = np.array([-800.0, 800.0, 0.0])
    y = np.array([1.0, 0.0, 1.0])
    loss = loss_from_logits(z, y, 9.0)
    assert np.isfinite(loss)
    # both saturated terms contribute |z| each, scaled by their weight
    assert math.isclose(loss, (9.0 * 800.0 + 800.0 + 9.0 * math.log(2.0)) / 3, rel_tol=1e-12)


def test_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        loss_from_logits(np.array([0.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        loss_from_logits(np.array([0.0, 1.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        loss_from_logits(np.zeros(0), np.zeros(0), 1.0)


# ---------- gradients ----------


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(40):
        params, x, y, p = random_instance(rng)
        got = flatten(backward(params, x, y, p))
        want = fd_gradient(params, x, y, p)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-5)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    assert worst < 1e-4


def test_fd_loss_agrees_with_batch_loss():
    # ties the in-test forward pass to the package's before we trust the FD oracle
    rng = np.random.default_rng(78)
    params, x, y, p = random_instance(rng)
    want = batch_loss(params, x, y, p)
    assert math.isclose(fd_loss(flatten(params), params.hidden_size, x, y, p), want, rel_tol=1e-15)


def test_backward_saturated_negatives_vanish():
    rng = np.random.default_rng(9)
    m = init_model(4, 2)
    x = rng.standard_normal((6, INPUT_DIM))
    y = np.zeros(6)
    shifted = ModelParams(w1=m.w1, b1=m.b1, w2=m.w2, b2=-60.0)  # logits ~ -60
    g = backward(shifted, x, y, 5.0)
    assert np.abs(flatten(g)).max() < 1e-20


def test_backward_is_linear_in_pos_weight():
    rng = np.random.default_rng(10)
    params, x, y, p = random_instance(rng)
    y[:3] = 1.0  # guarantee positives
    g1 = flatten(backward(params, x, y, 1.0))
    g2 = flatten(backward(params, x, y, 2.0))
    g3 = flatten(backward(params, x, y, 3.0))
    assert np.allclose(g2 - g1, g3 - g2, rtol=0, atol=1e-12)

    # the increment is the positive-sample share, rescaled from a positives-only batch
    pos = y == 1.0
    share = flatten(backward(params, x[pos], y[pos], 1.0)) * pos.sum() / len(y)
    assert np.allclose(g2 - g1, share, rtol=0, atol=1e-12)


def test_backward_rejects_bad_shapes():
    m = init_model(2, 1)
    x = np.zeros((2, INPUT_DIM))
    with pytest.raises(ValueError):
        backward(m, np.zeros((0, INPUT_DIM)), np.zeros(0), 1.0)  # no samples
    with pytest.raises(ValueError):
        backward(m, x, np.zeros(3), 1.0)  # one label per row
    with pytest.raises(ValueError):
        backward(m, np.zeros((2, INPUT_DIM - 1)), np.zeros(2), 1.0)


# ---------- sgd_step ----------


def test_sgd_worked_value():
    m = ModelParams(w1=np.zeros((1, INPUT_DIM)), b1=[1.0], w2=[1.0], b2=1.0)
    g = Gradients(w1=np.zeros((1, INPUT_DIM)), b1=np.array([0.5]), w2=np.array([0.5]), b2=0.5)
    out = sgd_step(m, g, lr=0.1, weight_decay=0.01)
    assert out.w2[0] == 1.0 - 0.1 * (0.5 + 0.01)  # 0.949, decay hits weights
    assert out.b1[0] == 1.0 - 0.1 * 0.5  # 0.95, biases are not decayed
    assert out.b2 == 0.95


def test_sgd_identity_cases():
    m = init_model(3, 1)
    g = backward(m, np.ones((2, INPUT_DIM)), np.array([0.0, 1.0]), 2.0)
    assert sgd_step(m, g, lr=0.0, weight_decay=0.5) == m
    zero = Gradients(w1=np.zeros((3, INPUT_DIM)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    assert sgd_step(m, zero, lr=0.1, weight_decay=0.0) == m


def test_sgd_rejects_non_finite():
    m = init_model(1, 1)
    bad = Gradients(w1=np.full((1, INPUT_DIM), np.nan), b1=np.zeros(1), w2=np.zeros(1), b2=0.0)
    with pytest.raises(NumericalError):
        sgd_step(m, bad, lr=0.1, weight_decay=0.0)
    huge = Gradients(w1=np.full((1, INPUT_DIM), 1e308), b1=np.zeros(1), w2=np.zeros(1), b2=0.0)
    with pytest.raises(NumericalError):
        sgd_step(m, huge, lr=1e10, weight_decay=0.0)


def test_sgd_step_result_is_frozen_and_fresh():
    m = init_model(3, 1)
    g = backward(m, np.ones((2, INPUT_DIM)), np.array([0.0, 1.0]), 2.0)
    out = sgd_step(m, g, lr=0.1, weight_decay=0.01)
    for arr in (out.w1, out.b1, out.w2):
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, other) for other in (m.w1, m.b1, m.w2, g.w1, g.b1, g.w2))


def test_sgd_rejects_mismatched_shapes():
    m = init_model(2, 1)
    g = Gradients(w1=np.zeros((3, INPUT_DIM)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    with pytest.raises(ValueError):
        sgd_step(m, g, lr=0.1, weight_decay=0.0)


# ---------- schedule ----------


def test_lr_schedule():
    assert lr_at_epoch(0.005, 0.975, 0) == 0.005
    assert lr_at_epoch(0.2, 1.0, 500) == 0.2
    at100 = lr_at_epoch(0.005, 0.975, 100)
    assert math.isclose(at100, 0.005 * 0.975**100, rel_tol=0, abs_tol=1e-18)
    assert math.isclose(at100, 3.976e-4, rel_tol=1e-3)
    with pytest.raises(ValueError):
        lr_at_epoch(0.005, 0.975, -1)
    with pytest.raises(ValueError):
        lr_at_epoch(0.005, 0.0, 1)


# ---------- averaging ----------


def test_average_identical_models_is_exact():
    m = init_model(6, 3)
    out = average_models([m, m, m], [1.0, 2.5, 0.3])
    assert out == m


def test_average_single_nonzero_weight_is_exact():
    a = init_model(4, 1)
    b = init_model(4, 2)
    assert average_models([a, b], [1.0, 0.0]) == a
    assert average_models([a, b], [0.0, 3.0]) == b


def test_average_worked_value():
    # scalar parameters 2 and 4 with institution-sized weights
    two = ModelParams(w1=np.full((1, INPUT_DIM), 2.0), b1=[2.0], w2=[2.0], b2=2.0)
    four = ModelParams(w1=np.full((1, INPUT_DIM), 4.0), b1=[4.0], w2=[4.0], b2=4.0)
    out = average_models([two, four], [1410.0, 1739.0])
    want = (1410 * 2 + 1739 * 4) / 3149
    assert math.isclose(out.b2, want, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(want, 3.1045, rel_tol=0, abs_tol=5e-5)
    assert np.allclose(out.w1, want, rtol=0, atol=1e-15)


def test_average_weight_scale_invariance():
    a, b = init_model(3, 5), init_model(3, 6)
    one = average_models([a, b], [0.2, 0.8])
    scaled = average_models([a, b], [2.0, 8.0])
    assert one == scaled


def test_average_rejects_bad_inputs():
    a = init_model(2, 1)
    with pytest.raises(ValueError):
        average_models([], [])
    with pytest.raises(ValueError):
        average_models([a], [1.0, 2.0])
    with pytest.raises(ValueError):
        average_models([a, a], [-1.0, 2.0])
    with pytest.raises(ValueError):
        average_models([a, a], [0.0, 0.0])
    with pytest.raises(ValueError):
        average_models([a, init_model(3, 1)], [1.0, 1.0])


# ---------- value objects ----------


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(w1=np.zeros((2, INPUT_DIM - 1)), b1=np.zeros(2), w2=np.zeros(2), b2=0.0)
    with pytest.raises(ValueError):
        ModelParams(w1=np.zeros((2, INPUT_DIM)), b1=np.zeros(3), w2=np.zeros(2), b2=0.0)
    with pytest.raises(ValueError):
        ModelParams(w1=np.full((1, INPUT_DIM), np.inf), b1=[0.0], w2=[0.0], b2=0.0)
    m = init_model(2, 1)
    with pytest.raises(ValueError):
        m.w1[0, 0] = 1.0  # arrays are read-only


def test_model_params_never_alias_writable_memory():
    frozen = np.zeros(2)
    frozen.setflags(write=False)
    frozen_view = np.zeros(3)[:2]
    frozen_view.setflags(write=False)
    w1 = np.zeros((2, INPUT_DIM))
    m = ModelParams(w1=w1, b1=frozen, w2=frozen_view, b2=0.0)
    assert m.b1 is frozen  # read-only, float64 and owning its memory: adopted
    assert m.w2 is not frozen_view  # its base can still be written: copied
    w1[0, 0] = 5.0
    assert m.w1[0, 0] == 0.0  # writable: copied


@pytest.mark.parametrize("writeable", [False, True])
def test_table_silo_and_model_adopt_read_only_arrays_and_copy_writeable_ones(writeable):
    # the contract of network._frozen: an adopted array is the caller's
    # own, and the caller must not make it writeable again
    x, w1, y, b1 = np.zeros((2, INPUT_DIM)), np.ones((2, INPUT_DIM)), np.array([0.0, 1.0]), np.ones(2)
    for arr in (x, w1, y, b1):
        arr.setflags(write=writeable)
    t = RecordTable(["P1", "P2"], ["A1", "A1"], [0, 1], x, [0, 1])
    silo = Silo("s", x, y, x, y)
    m = ModelParams(w1=w1, b1=b1, w2=b1, b2=0.0)
    kept = (t.features, silo.train_features, silo.val_labels, m.w1, m.w2)
    for got, given in zip(kept, (x, x, y, w1, b1)):
        assert (got is given) == (not writeable)
        assert np.shares_memory(got, given) == (not writeable)
        assert not got.flags.writeable


def test_train_config_validation():
    cfg = TrainConfig(lr0=0.0, hidden_size=1, seed=0)  # zero rate is allowed
    assert cfg.batch_size == 32 and cfg.gamma == 0.975
    with pytest.raises(ValueError):
        TrainConfig(lr0=-0.1, hidden_size=1, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.1, hidden_size=0, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.1, hidden_size=1, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        TrainConfig(lr0=0.01, hidden_size=4, seed=True)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.1, hidden_size=1, seed=0, gamma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.1, hidden_size=1, seed=0, patience=0)
    # a float, a bool or a numpy float would pass a bound check and fail inside training
    for name in ("hidden_size", "batch_size", "max_epochs", "patience"):
        for bad in (4.5, 2.5, np.float64(4), True):
            with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1$"):
                TrainConfig(**{"lr0": 0.1, "hidden_size": 1, "seed": 0, name: bad})
    for bad in (1.0, np.float64(1)):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            TrainConfig(lr0=0.1, hidden_size=1, seed=bad)
    cfg = TrainConfig(lr0=0.1, hidden_size=np.int64(3), seed=np.uint32(2), batch_size=np.int32(4))
    assert (cfg.hidden_size, cfg.seed, cfg.batch_size) == (3, 2, 4)


# ---------- persistence ----------


def test_params_round_trip(tmp_path):
    m = init_model(5, 123)
    path = tmp_path / "model.json"
    path.write_text("".join(params_json_pieces(m)), encoding="utf-8")
    assert load_params(path) == m
    data = json.loads(path.read_text())
    assert data["hidden_size"] == 5
    assert len(data["w1"]) == 5 and len(data["w1"][0]) == INPUT_DIM


# Values whose JSON text is easy to get wrong: signed zero, the smallest
# subnormal, and floats repr writes in exponent or shortest form.
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1, 1.0]


def awkward_params(h: int) -> ModelParams:
    rng = np.random.default_rng(h)
    w1 = rng.normal(0.0, 0.05, size=(h, INPUT_DIM))
    w1[:, : len(AWKWARD_FLOATS)] = AWKWARD_FLOATS
    w1[-1, -len(AWKWARD_FLOATS) :] = AWKWARD_FLOATS
    b1 = np.resize(AWKWARD_FLOATS, h)
    w2 = np.resize(AWKWARD_FLOATS[::-1], h)
    return ModelParams(w1=w1, b1=b1, w2=w2, b2=-0.0)


def params_bytes(p: ModelParams) -> bytes:
    return p.w1.tobytes() + p.b1.tobytes() + p.w2.tobytes() + np.float64(p.b2).tobytes()


@pytest.mark.parametrize("h", [1, 8, 128, 512])
def test_save_params_writes_the_bytes_of_the_dict_form(tmp_path, h):
    # saved as run saves final_model.json: its streamed pieces through the CLI's writer
    m = awkward_params(h)
    path = tmp_path / "model.json"
    _write_text(path, params_json_pieces(m))
    assert path.read_bytes() == (json.dumps(params_to_dict(m)) + "\n").encode("utf-8")
    assert params_bytes(load_params(path)) == params_bytes(m)


def test_save_params_streams_a_large_model(tmp_path):
    """The file is written row by row: a 3.2 MB file of an h=512 model
    must not build the nested weight lists or the whole text (12 MB)."""
    m = init_model(512, 3)
    tracemalloc.start()
    try:
        _write_text(tmp_path / "model.json", params_json_pieces(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hidden_layer_and_average_match_the_plain_expressions():
    """forward_batch, backward and average_models build their arrays in
    place; the results equal the plain expressions bit for bit, also where
    a pre-activation is exactly zero."""
    rng = np.random.default_rng(11)
    params = ModelParams(
        w1=rng.normal(0.0, 0.1, size=(6, INPUT_DIM)), b1=np.zeros(6), w2=rng.normal(size=6), b2=0.2
    )
    x = rng.standard_normal((9, INPUT_DIM))
    x[0] = 0.0  # z1 == 0 on this row
    y = (rng.random(9) < 0.4).astype(np.float64)
    z1 = x @ params.w1.T + params.b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ params.w2 + params.b2
    assert forward_batch(params, x).tobytes() == logits.tobytes()
    delta = ((1.0 - y) * sigmoid(logits) - 2.5 * y * sigmoid(-logits)) / 9
    d_hidden = np.outer(delta, params.w2) * (z1 > 0.0)
    g = backward(params, x, y, 2.5)
    assert g.w1.tobytes() == (d_hidden.T @ x).tobytes()
    assert g.b1.tobytes() == d_hidden.sum(axis=0).tobytes()
    assert g.w2.tobytes() == (hidden.T @ delta).tobytes()
    models = [params, awkward_params(6), init_model(6, 1)]
    weights = np.array([0.2, 0.5, 0.3])
    expected = [np.array(a) for a in (params.w1, params.b1, params.w2)]
    b2 = params.b2
    for c, m in zip(weights[1:], models[1:]):
        for acc, arr, anchor in zip(expected, (m.w1, m.b1, m.w2), (params.w1, params.b1, params.w2)):
            acc += c * (arr - anchor)
        b2 += c * (m.b2 - params.b2)
    avg = average_models(models, weights)
    assert params_bytes(avg) == params_bytes(ModelParams(*expected, b2=b2))


def test_params_dict_mismatch_rejected():
    m = init_model(2, 4)
    data = params_to_dict(m)
    data["hidden_size"] = 3
    with pytest.raises(ValueError):
        params_from_dict(data)

import numpy as np

from bankcast import autodiff as ad
from bankcast.fusion import FusionParams, fuse
from bankcast.model import Model, ModelConfig
from bankcast.retrieval import MemoryBank, bank_entries


def fusion_params(horizon=4, seed=None):
    store = ad.ParamStore()
    cfg = ModelConfig(d_c=3, horizon=horizon)
    p = FusionParams.init(cfg, store)
    if seed is not None:
        rng = np.random.default_rng(seed)
        p.prior_proj.value = rng.normal(size=p.prior_proj.value.shape)
        p.gate.value = rng.normal(size=p.gate.value.shape)
        p.scale.value = rng.normal(size=(1, 1))
    return p, store


def test_zero_scale_is_identity():
    p, _ = fusion_params()
    rng = np.random.default_rng(0)
    y = rng.normal(size=(5, 4))
    prior = rng.normal(size=(5, 4))
    out = fuse(ad.constant(y), ad.constant(prior), p, np.ones((5, 1)))
    assert np.allclose(out.value, y, atol=1e-15)


def test_invalid_rows_pass_through_exactly():
    p, _ = fusion_params(seed=1)
    rng = np.random.default_rng(2)
    y = rng.normal(size=(3, 4))
    prior = rng.normal(size=(3, 4))
    valid = np.array([[1.0], [0.0], [1.0]])
    out = fuse(ad.constant(y), ad.constant(prior), p, valid)
    assert np.array_equal(out.value[1], y[1])
    assert not np.allclose(out.value[0], y[0])


def test_hand_worked_two_step_horizon():
    # prior projection = identity, gate weights = 0 -> gate 0.5, scale = 1
    p, _ = fusion_params(horizon=2)
    p.scale.value[:] = 1.0
    y = np.array([[1.0, -2.0]])
    prior = np.array([[4.0, 6.0]])
    out = fuse(ad.constant(y), ad.constant(prior), p, np.ones((1, 1)))
    assert np.allclose(out.value, y + 0.5 * prior, atol=1e-12)


def test_gate_strictly_open():
    p, _ = fusion_params(seed=3)
    rng = np.random.default_rng(4)
    y = rng.normal(size=(6, 4))
    prior = rng.normal(size=(6, 4))
    projected = prior @ p.prior_proj.value.T
    gate_in = np.concatenate([y, projected], axis=1) @ p.gate.value.T
    from bankcast.numerics import sigmoid

    g = sigmoid(gate_in)
    assert np.all(g > 0.0) and np.all(g < 1.0)


def test_scale_gradient_is_gated_prior():
    # d(out)/d(scale) = sum of gate * projected prior when valid, checked by FD
    p, store = fusion_params(seed=5)
    rng = np.random.default_rng(6)
    y = rng.normal(size=(2, 4))
    prior = rng.normal(size=(2, 4))
    valid = np.ones((2, 1))

    def out_sum():
        return ad.reduce_sum(fuse(ad.constant(y), ad.constant(prior), p, valid))

    store.zero_grad()
    ad.backward(out_sum())
    analytic = p.scale.grad[0, 0]
    eps = 1e-6
    p.scale.value[0, 0] += eps
    f_plus = float(out_sum().value)
    p.scale.value[0, 0] -= 2 * eps
    f_minus = float(out_sum().value)
    p.scale.value[0, 0] += eps
    fd = (f_plus - f_minus) / (2 * eps)
    assert abs(analytic - fd) < 1e-5

    projected = prior @ p.prior_proj.value.T
    from bankcast.numerics import sigmoid

    gate = sigmoid(np.concatenate([y, projected], axis=1) @ p.gate.value.T)
    assert abs(analytic - (gate * projected).sum()) < 1e-9


def test_zero_init_full_model_identity():
    # freshly initialized model: fused == backbone on instances with retrieval active
    cfg = ModelConfig(
        d_c=5, window=6, horizon=4, d_g=4, d_z=3, hidden=8, head_blocks=2,
        gcn_layers=1, d_r=8, d_h=3, d_ec=5, d_ex=5, psi_hidden=9,
    )
    model = Model(cfg, seed=11)
    rng = np.random.default_rng(12)
    rows = [
        (
            rng.normal(size=cfg.d_c),
            rng.uniform(0, 3, size=cfg.window),
            rng.uniform(0, 3, size=cfg.horizon),
        )
        for _ in range(48)
    ]
    contexts, histories, futures = map(np.array, zip(*rows))
    j = np.arange(48)
    bank = MemoryBank(bank_entries(np.zeros(48), 50 + j, j % 24, contexts, histories, futures))
    model.refresh_bank(bank)
    for trial in range(20):
        n = 4
        contexts = rng.normal(size=(n, cfg.d_c))
        history = rng.uniform(0, 3, size=(cfg.window, n))
        mask = (rng.uniform(size=n) > 0.3).astype(float)
        hour = int(rng.integers(0, 24))
        res = model.forward(contexts, history, mask, hour, bank=bank, k=3, temperature=0.1)
        assert np.all(res.valid == 1.0)
        assert np.allclose(res.y_hat.value, res.y_tilde.value, atol=1e-12)

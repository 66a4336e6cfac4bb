import hashlib
import math

import numpy as np
import pytest

from ce_nmt import losses as L
from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt.errors import ConfigError, DegenerateInputError, NumericError, ShapeError
from ce_nmt.training import CEConfig

from _oracles import barlow_oracle, cross_correlation_oracle, nll_oracle
from test_numerics import _tape


def T(values):
    return N.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


# -- translation loss --------------------------------------------------------------

def test_translation_loss_uniform_logits():
    logits = T(np.zeros((2, 3, 4)))
    targets = np.array([[1, 2, 3], [0, 1, 2]])
    mask = np.ones((2, 3), dtype=bool)
    loss = L.translation_loss(logits, targets, mask)
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_translation_loss_confident_gold():
    targets = np.array([[2, 1]])
    logits = np.full((1, 2, 3), -1000.0)
    logits[0, 0, 2] = 1000.0
    logits[0, 1, 1] = 1000.0
    loss = L.translation_loss(T(logits), targets, np.ones((1, 2), dtype=bool))
    assert loss.item() < 1e-9


def test_translation_loss_hand_case_matches_oracle():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 2, 3))
    targets = np.array([[2, 0]])
    mask = np.ones((1, 2), dtype=bool)
    got = L.translation_loss(T(logits), targets, mask).item()
    assert abs(got - nll_oracle(logits, targets, mask)) < 1e-10


def test_translation_loss_respects_mask_and_oracle():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 5, 7))
    targets = rng.integers(0, 7, size=(3, 5))
    mask = rng.random((3, 5)) > 0.3
    mask[:, 0] = True
    got = L.translation_loss(T(logits), targets, mask).item()
    assert abs(got - nll_oracle(logits, targets, mask)) < 1e-10


def test_translation_loss_all_masked_errors():
    with pytest.raises(DegenerateInputError):
        L.translation_loss(T(np.zeros((1, 2, 3))), np.zeros((1, 2), dtype=int),
                           np.zeros((1, 2), dtype=bool))


def test_translation_loss_checks_shapes_and_ids():
    logits = T(np.zeros((2, 3, 4)))
    ids, mask = np.zeros((2, 3), dtype=int), np.ones((2, 3), dtype=bool)
    with pytest.raises(ShapeError):
        L.translation_loss(logits, ids[:, :2], mask[:, :2])
    with pytest.raises(ShapeError):
        L.translation_loss(logits, ids, mask[:, :2])
    for bad in (-1, 4):
        ids[1, 2] = bad
        with pytest.raises(IndexError):
            L.translation_loss(logits, ids, mask)


def test_translation_loss_gradient():
    rng = np.random.default_rng(2)
    targets = rng.integers(0, 4, size=(2, 3))
    mask = np.ones((2, 3), dtype=bool)
    err = N.grad_check(
        lambda lg: L.translation_loss(lg, targets, mask),
        [T(rng.normal(size=(2, 3, 4)))],
    )
    assert err < 1e-6


# -- cross correlation ----------------------------------------------------------------

def test_cross_correlation_perfect():
    z = T([[1.0], [-1.0]])
    c = L.cross_correlation(z, z, eps=0.0)
    assert abs(c.values[0, 0] - 1.0) < 1e-14


def test_cross_correlation_anti():
    zs = T([[1.0], [-1.0]])
    zt = T([[-1.0], [1.0]])
    c = L.cross_correlation(zs, zt, eps=0.0)
    assert abs(c.values[0, 0] + 1.0) < 1e-14
    c_eps = L.cross_correlation(zs, zt)
    assert abs(c_eps.values[0, 0] + 1.0) < 1e-9


def test_cross_correlation_hadamard_identity():
    z = T(HADAMARD)
    c = L.cross_correlation(z, z, eps=0.0)
    assert np.max(np.abs(c.values - np.eye(2))) < 1e-14


def test_cross_correlation_matches_double_loop():
    rng = np.random.default_rng(3)
    zs = rng.normal(size=(6, 3)) * 2 + 0.5
    zt = rng.normal(size=(6, 3)) - 0.25
    got = L.cross_correlation(T(zs), T(zt)).values
    want = cross_correlation_oracle(zs, zt)
    assert np.max(np.abs(got - want)) < 1e-12


def test_cross_correlation_zero_column_guard():
    zs = T(np.zeros((3, 2)))
    with pytest.raises(NumericError, match="zero-norm"):
        L.cross_correlation(zs, zs, eps=0.0)


def test_cross_correlation_entry_range_validated():
    with pytest.raises(NumericError):
        L.CrossCorrelation(values=np.array([[1.5]]))


def test_cross_correlation_shape_checked():
    with pytest.raises(ShapeError):
        L.cross_correlation(T(np.zeros((4, 2))), T(np.zeros((4, 3))))


# -- barlow twins loss ---------------------------------------------------------------------

def test_barlow_hadamard_zero_loss():
    z1, z2 = T(HADAMARD), T(HADAMARD)
    out = L.barlow_twins_loss(z1, z2, lam=5e-3, eps=0.0)
    assert out.total < 1e-12
    assert out.redundancy_term < 1e-12


def test_barlow_anticorrelated_d1_is_four():
    zs, zt = T([[1.0], [-1.0]]), T([[-1.0], [1.0]])
    out = L.barlow_twins_loss(zs, zt, lam=5e-3, eps=0.0)
    assert abs(out.total - 4.0) < 1e-12
    assert out.redundancy_term == 0.0


def test_barlow_matches_double_loop():
    rng = np.random.default_rng(4)
    for lam in (5e-3, 0.1, 1.0):
        zs = rng.normal(size=(6, 3)) * 1.5
        zt = rng.normal(size=(6, 3)) + 0.3
        out = L.barlow_twins_loss(T(zs), T(zt), lam=lam)
        total, inv, red = barlow_oracle(zs, zt, lam)
        assert abs(out.total - total) < 1e-12
        assert abs(out.invariance_term - inv) < 1e-12
        assert abs(out.redundancy_term - red) < 1e-12


def test_barlow_breakdown_identity():
    rng = np.random.default_rng(5)
    out = L.barlow_twins_loss(T(rng.normal(size=(5, 4))), T(rng.normal(size=(5, 4))), lam=0.1)
    assert abs(out.total - (out.invariance_term + 0.1 * out.redundancy_term)) < 1e-12
    assert out.invariance_term >= 0 and out.redundancy_term >= 0


def test_barlow_identical_views_zero_invariance():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(7, 4))
    out = L.barlow_twins_loss(T(z), T(z), lam=5e-3, eps=0.0)
    assert out.invariance_term < 1e-12


def test_barlow_column_rescale_invariance():
    rng = np.random.default_rng(7)
    zs = rng.normal(size=(6, 3))
    zt = rng.normal(size=(6, 3))
    base = L.barlow_twins_loss(T(zs), T(zt), lam=5e-3).total
    zs2, zt2 = zs.copy(), zt.copy()
    zs2[:, 1] *= 3.7
    zt2[:, 1] *= 3.7
    rescaled = L.barlow_twins_loss(T(zs2), T(zt2), lam=5e-3).total
    assert abs(base - rescaled) < 1e-10


def test_barlow_swap_transposes_and_preserves_total():
    rng = np.random.default_rng(8)
    zs = rng.normal(size=(5, 3))
    zt = rng.normal(size=(5, 3))
    a = L.barlow_twins_loss(T(zs), T(zt), lam=0.2)
    b = L.barlow_twins_loss(T(zt), T(zs), lam=0.2)
    assert np.max(np.abs(a.correlation.values - b.correlation.values.T)) < 1e-12
    assert abs(a.total - b.total) < 1e-12


def test_barlow_gradient_wrt_projections():
    rng = np.random.default_rng(9)
    zs = T(rng.normal(size=(4, 3)))
    zt = T(rng.normal(size=(4, 3)))
    err = N.grad_check(lambda a, b: L.barlow_twins_loss(a, b, lam=5e-3).loss, [zs, zt])
    assert err < 1e-4


def test_barlow_rejects_negative_lambda():
    with pytest.raises(ValueError, match=">= 0"):
        L.barlow_twins_loss(T(HADAMARD), T(HADAMARD), lam=-0.1)
    with pytest.raises(ConfigError, match=">= 0"):
        CEConfig(lam=-0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_barlow_and_ce_config_reject_non_finite_lambda(lam):
    # ``nan < 0`` is false: a sign check alone lets nan through, and inf.
    with pytest.raises(ValueError, match="finite"):
        L.barlow_twins_loss(T(HADAMARD), T(HADAMARD), lam=lam)
    with pytest.raises(ConfigError, match="finite"):
        CEConfig(lam=lam)


def test_full_ce_pipeline_gradient():
    """encode -> pool -> project -> BN -> loss, checked against central differences."""
    cfg = M.ModelConfig(src_vocab=9, tgt_vocab=9, depth=1, dim=8, heads=2,
                        ff_dim=12, proj_dim=3, emb_dim=5, max_len=8)
    rng = np.random.default_rng(10)
    enc = M.init_params(cfg, "encoder", rng)
    proj = M.init_params(cfg, "projection", rng)
    src = np.array([[1, 4, 5, 2], [1, 6, 2, 0], [1, 7, 8, 2], [1, 5, 2, 0]])
    tgt = np.array([[1, 6, 2, 0], [1, 4, 7, 2], [1, 8, 2, 0], [1, 4, 2, 0]])
    src_mask, tgt_mask = src != 0, tgt != 0

    names = ["embed", "in_w", "layer0.attn.wq", "layer0.ff.w1", "final_ln_g", "w1", "w3"]
    tensors = [enc[n] if n in enc.tensors else proj[n] for n in names]

    def objective(*_):
        zs = M.project(M.pool(M.encode(src, src_mask, enc, cfg), "mean"), proj)
        zt = M.project(M.pool(M.encode(tgt, tgt_mask, enc, cfg), "mean"), proj)
        return L.barlow_twins_loss(zs, zt, lam=5e-3).loss

    assert N.grad_check(objective, tensors) < 1e-4


# -- the fused losses: pinned bits, dtype, one tape node ---------------------------------

def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Digests of the value and input gradients (and for Barlow Twins, of the
# correlation) computed by the chain of generic tape ops that each fused op
# replaced: log_softmax, take_along_last, mul and sum for ``nll``; and for
# ``barlow_twins``, on batch-normalized inputs, mul, sum, sqrt, reshape,
# transpose, matmul, div, diagonal and the Tensor operator sugar. The chain
# ran in float64 and, for ``nll``, in float32 too (the Barlow chain promoted
# float32 to float64, so it has no float32 bits to keep).
PINNED_NLL_SHA256 = {
    "float64": "c653ee0ff62f48fa9e9afef71b77ded7e7ef55e3b94eaf04ed5a518cd7bddd49",
    "float32": "2fef48c9540b3007fd88f76ffc2a69b2cfe901568a3a6c78e6de9c7ff2ec38db",
}
PINNED_BARLOW_SHA256 = {
    (0.0, 0.0): "41b6bd3efafda65f4d23bd9b11628995f387a1c0f6967e664d4bc9bf59052b14",
    (0.0, 5e-3): "5a3bca20cc629373ef40b19052df4ca8117b5e4a13550aa5b7ce1d30d02f1b6f",
    (1e-9, 0.0): "c4a25e3b06d2b35ea2dd3b97718549880f50f5c24167b8a87ea54775c4556cdd",
    (1e-9, 5e-3): "3c014c926bbbcb846c0e47655bbdfa94b9b1aef43945e575d46df779504de0d5",
}


@pytest.mark.parametrize("dtype", sorted(PINNED_NLL_SHA256))
def test_nll_bits_pinned(dtype):
    rng = np.random.default_rng(31)
    logits = (rng.normal(size=(4, 6, 11)) * 3.0).astype(dtype)
    mask = np.arange(6)[None, :] < np.array([6, 4, 1, 3])[:, None]   # padded targets
    ids = np.where(mask, rng.integers(0, 11, size=(4, 6)), 0)
    x = N.Tensor(logits, requires_grad=True)
    loss = N.nll(x, ids, mask)
    loss.backward()
    assert _digest([loss.values, x.grad]) == PINNED_NLL_SHA256[dtype]


@pytest.mark.parametrize("eps, lam", sorted(PINNED_BARLOW_SHA256))
def test_barlow_twins_bits_pinned(eps, lam):
    rng = np.random.default_rng(32)
    zs, zt = rng.normal(size=(16, 8)) * 2.0 + 0.5, rng.normal(size=(16, 8)) - 0.3
    zt[:, :4] += zs[:, :4]
    zs, zt = [N.Tensor((z - z.mean(axis=0)) / z.std(axis=0), requires_grad=True) for z in (zs, zt)]
    loss, c, _, _ = N.barlow_twins(zs, zt, lam, eps)
    loss.backward()
    assert _digest([loss.values, c, zs.grad, zt.grad]) == PINNED_BARLOW_SHA256[(eps, lam)]


def test_float32_losses_stay_float32():
    rng = np.random.default_rng(12)
    zs, zt = (N.Tensor(rng.normal(size=(8, 4)).astype(np.float32), requires_grad=True)
              for _ in range(2))
    out = L.barlow_twins_loss(zs, zt, lam=5e-3)
    out.loss.backward()
    assert out.loss.dtype == np.float32 and out.correlation.values.dtype == np.float32
    assert zs.grad.dtype == np.float32 and zt.grad.dtype == np.float32
    logits = N.Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32), requires_grad=True)
    loss = L.translation_loss(logits, rng.integers(0, 5, size=(2, 3)), np.ones((2, 3), dtype=bool))
    loss.backward()
    assert loss.dtype == np.float32 and logits.grad.dtype == np.float32


def test_each_loss_is_one_tape_node():
    rng = np.random.default_rng(13)
    zs, zt = T(rng.normal(size=(6, 3))), T(rng.normal(size=(6, 3)))
    loss = L.barlow_twins_loss(zs, zt, lam=5e-3).loss
    batch_norms = loss._node.parents
    assert len(batch_norms) == 2
    assert [bn.parents for bn in batch_norms] == [(zs._node,), (zt._node,)]
    assert len(_tape(loss)) == 2 + 2 + 1          # inputs, batch norms, the loss
    logits = T(rng.normal(size=(2, 3, 5)))
    nll = L.translation_loss(logits, rng.integers(0, 5, size=(2, 3)), np.ones((2, 3), dtype=bool))
    assert nll._node.parents == (logits._node,)
    assert len(_tape(nll)) == 1 + 1

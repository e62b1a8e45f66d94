import numpy as np
import pytest

from labimpute.errors import DataError, InvariantError
from labimpute.theory import (
    TheoremInstance,
    _compute_E,
    _fit_ols_full,
    _split_V,
    sample_instance,
    verify_theorem1,
)


def test_instance_validation():
    ok = TheoremInstance(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]),
                         np.array([1.0, 0.0, 2.0]))
    assert ok.n == 3
    with pytest.raises(DataError):
        TheoremInstance(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                        np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        TheoremInstance(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, -0.5, 2.0]))
    with pytest.raises(DataError):
        TheoremInstance(np.array([1.0, np.inf, 3.0]), np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, 0.5, 2.0]))


def test_fit_ols_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        inst = sample_instance(rng, n)
        g = np.array(_fit_ols_full(inst))
        A = np.column_stack([np.ones(n), inst.z, inst.y])
        oracle = np.linalg.pinv(A) @ inst.x
        assert np.allclose(g, oracle, rtol=1e-8, atol=1e-10)


def test_fit_ols_rejects_rank_deficiency():
    # y identical to z makes [1, z, y] rank 2
    z = np.array([1.0, 2.0, 3.0, 4.0])
    inst = TheoremInstance(np.array([0.5, 1.0, 2.0, 1.5]), z, z.copy())
    with pytest.raises(DataError):
        _fit_ols_full(inst)


def test_compute_E_hand_instance():
    # y=(0,2), z=(1,3), g1=g2=1: means are 1 and 2
    # E_1 = 1*(0-2) + 2*1*1*(1-2) = -4 ; E_2 = (2-2) + 2*(3-2) = 2
    E = _compute_E(np.array([1.0, 3.0]), np.array([0.0, 2.0]), (0.0, 1.0, 1.0))
    assert E.tolist() == [-4.0, 2.0]


def test_split_V_hand_values():
    v_plus, v_minus = _split_V(np.array([1.0, 1.0]), np.array([-4.0, 2.0]))
    assert (v_plus, v_minus) == (2.0, -4.0)
    v_plus, v_minus = _split_V(np.zeros(3), np.array([-1.0, 0.0, 1.0]))
    assert (v_plus, v_minus) == (0.0, 0.0)
    # a zero effect lands on the plus side
    v_plus, v_minus = _split_V(np.array([5.0]), np.array([0.0]))
    assert (v_plus, v_minus) == (0.0, 0.0)


def test_verify_identity_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(200):
        inst = sample_instance(rng, int(rng.integers(5, 51)))
        rep = verify_theorem1(inst)
        assert rep.identity_residual <= 1e-8 * max(1.0, abs(rep.sse_di))
        assert rep.v_plus >= 0.0 and rep.v_minus <= 0.0
        assert rep.iul_wins == (rep.sse_iul <= rep.sse_di + 1e-8 * max(1.0, abs(rep.sse_di)))


def test_verify_zero_label_coefficient_instance():
    # x depends on z alone, so the fitted label coefficient vanishes and
    # both models coincide
    rng = np.random.default_rng(2)
    z = rng.normal(0, 1, 20)
    y = np.abs(rng.normal(0, 1, 20))
    x = 2.0 + 3.0 * z
    rep = verify_theorem1(TheoremInstance(x, z, y))
    assert abs(rep.gamma[2]) < 1e-10
    assert abs(rep.v_plus + rep.v_minus) < 1e-10
    assert abs(rep.sse_di - rep.sse_iul) < 1e-10
    assert rep.iul_wins


def test_verify_negative_sum_instance_means_label_free_wins():
    # frozen seed found by search: V+ + V- < 0, so the label-stacked model
    # fits worse through the SST - SSR lens
    rng = np.random.default_rng(0)
    n = 12
    z = rng.normal(0, 2, n)
    y = np.abs(rng.normal(0, 2, n))
    x = rng.normal(0, 2, n)
    rep = verify_theorem1(TheoremInstance(x, z, y))
    assert rep.v_plus + rep.v_minus < -1e-6
    assert not rep.iul_wins
    assert rep.sse_iul > rep.sse_di


def test_verify_positive_sum_instance_means_label_stacked_wins():
    rng = np.random.default_rng(1)
    n = 12
    z = rng.normal(0, 2, n)
    y = np.abs(rng.normal(0, 2, n))
    x = rng.normal(0, 2, n)
    rep = verify_theorem1(TheoremInstance(x, z, y))
    assert rep.v_plus + rep.v_minus > 1e-6
    assert rep.iul_wins
    assert rep.sse_iul < rep.sse_di


def test_refit_diagnostic_never_beats_full_model():
    # the refit label-free model minimizes its own raw error, which still
    # cannot undercut the full fit's raw error
    rng = np.random.default_rng(3)
    for _ in range(50):
        inst = sample_instance(rng, 15)
        rep = verify_theorem1(inst)
        assert rep.sse_di_refit >= rep.sse_iul - 1e-9


def test_effects_scale_with_coefficients():
    z = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 2.0, 3.0])
    zero = _compute_E(z, y, (5.0, 2.0, 0.0))
    assert np.all(zero == 0.0)

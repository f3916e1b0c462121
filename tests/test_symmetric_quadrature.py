import numpy as np
import pytest

from oddflow.cli import main
from oddflow.symmetric import _cumquad
from oddflow.viscosity import DensityBounds, make_law

NODES = np.linspace(0.0, 1.0, 33)


def test_kinked_table_law_against_a_split_at_the_kinks(tmp_path):
    # a piecewise-linear nu_e of rho = 0.5 + s has its kinks at s = 0.27,
    # 0.53 and 0.81, inside node intervals; on each linear piece the
    # integral of 1/nu_e is a logarithm
    knots = np.array([[0.5, 1.0], [0.77, 1.6], [1.03, 0.7], [1.31, 1.2], [1.5, 0.9]])
    table = tmp_path / "nu_e.txt"
    np.savetxt(table, knots)
    law = make_law(f"table:{table}", "const:0.0", 0.5, 2.0, DensityBounds(0.5, 1.5))

    def inv_mu(s):
        return 1.0 / law.mu_e(0.5 + s)

    cuts = np.union1d(NODES, knots[1:-1, 0] - 0.5)
    mu = law.mu_e(0.5 + cuts)
    slope = np.diff(mu) / np.diff(cuts)
    pieces = np.log(mu[1:] / mu[:-1]) / slope
    want = np.concatenate(([0.0], np.cumsum(pieces)))[np.isin(cuts, NODES)]
    assert np.max(np.abs(_cumquad(inv_mu, NODES) - want)) <= 1e-12


def test_jump_between_nodes():
    x0 = 0.123456
    got = _cumquad(lambda s: np.where(s < x0, 1.0, 2.0), NODES)
    want = np.where(NODES < x0, NODES, 2.0 * NODES - x0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_smooth_law_against_its_closed_form():
    # 1 / (0.75 + 0.5 rho) with rho = 1 + s integrates to a logarithm
    law = make_law("affine:0.75,0.5", "const:0.0", 0.5, 2.0, DensityBounds(0.5, 2.5))
    got = _cumquad(lambda s: 1.0 / law.mu_e(1.0 + s), NODES)
    want = 2.0 * np.log((1.25 + 0.5 * NODES) / 1.25)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_unresolved_integrand_is_a_runtime_error():
    with pytest.raises(RuntimeError, match="bisections"):
        _cumquad(lambda s: np.full_like(s, np.nan), NODES)


@pytest.mark.parametrize("symmetry", ["parallel", "concentric", "radial"])
@pytest.mark.parametrize("rho", ["affine:0,5", "affine:-1,0.5", "const:3.0"])
def test_density_outside_the_law_bounds_exits_2(tmp_path, capsys, symmetry, rho):
    # the default bounds are [0.5, 1.5]; these profiles leave them on
    # every symmetry's nodes
    cfg = tmp_path / "y.cfg"
    cfg.write_text(f"symmetry = {symmetry}\nrho = {rho}\nnu_e = prop:1.0\nC = 1.0\n")
    assert main(["symmetric", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "invalid input: the density profile leaves the law's bounds" in capsys.readouterr().err

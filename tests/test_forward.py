"""Layered-sphere forward solver: transmission conditions, reciprocity,
vacuum nulls, truncation rules, and the eigenvalue margin."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from nfem.errors import DegenerateConfigError, InvalidArgumentError
from nfem.forward import (
    COND_LIMIT,
    FAMILIES,
    LayeredCavityConfig,
    Shell,
    data_truncation_order,
    effective_wavenumber,
    interface_residual,
    maxwell_eigenvalue_margin,
    scattered_field,
    solve_modes,
    source_expansion,
    truncation_order,
)
from nfem.green import Dipole, incident_field

BALL = LayeredCavityConfig(
    cavity_radius=1.5, shells=(Shell(2.5, 1.0, 2.0),), k=0.75, n_max=16
)
Y_SRC = np.array([0.2, 0.1, 0.2])
P_SRC = np.array([1.0, -1.0, 1.0])


class TestConfig:
    def test_effective_wavenumber(self):
        assert effective_wavenumber(1.0, 2.0, 0.75) == pytest.approx(
            0.75 * np.sqrt(2.0), rel=1e-15
        )
        assert effective_wavenumber(4.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_truncation_order_rule(self):
        # ceil(max effective wavenumber * outer radius) + 8
        assert truncation_order(1.5, (Shell(2.5, 1.0, 2.0),), 0.75) == 11
        assert truncation_order(1.5, (), 0.75) == 10
        assert truncation_order(1.5, (Shell(2.5, 1.0, 2.0),), 1.0) == 12

    def test_data_truncation_order_extends_rule(self):
        n = data_truncation_order(1.5, (Shell(2.5, 1.0, 2.0),), 0.75, 1.0)
        assert n == 34
        assert n >= truncation_order(1.5, (Shell(2.5, 1.0, 2.0),), 0.75)
        with pytest.raises(InvalidArgumentError):
            data_truncation_order(1.5, (), 0.75, 1.5)

    def test_bad_radii_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LayeredCavityConfig(1.5, (Shell(1.4, 1.0, 1.0),), 0.75, 8)
        with pytest.raises(InvalidArgumentError):
            Shell(2.5, -1.0, 1.0)


class TestVacuumNull:
    @pytest.mark.parametrize(
        "shells",
        [
            (),
            (Shell(2.5, 1.0, 1.0),),
            (Shell(2.0, 1.0, 1.0), Shell(2.5, 1.0, 1.0)),
        ],
    )
    def test_reflection_exactly_zero(self, shells):
        cfg = LayeredCavityConfig(1.5, shells, 0.75, 12)
        coeffs = solve_modes(cfg)
        for fam in ("TE", "TM"):
            assert np.all(coeffs.reflection[fam] == 0.0)

    def test_merged_shells_match_single(self):
        # Splitting one shell into two identical halves must not change R_n.
        one = solve_modes(LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 2.0),), 0.75, 12))
        two = solve_modes(
            LayeredCavityConfig(
                1.5, (Shell(2.0, 1.0, 2.0), Shell(2.5, 1.0, 2.0)), 0.75, 12
            )
        )
        for fam in ("TE", "TM"):
            a, b = one.reflection[fam], two.reflection[fam]
            assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(a)), 1e-300)


class TestReciprocity:
    @pytest.mark.parametrize(
        "shells,k",
        [
            ((Shell(2.5, 1.0, 2.0),), 0.75),
            ((Shell(2.5, 1.0, 0.5),), 0.3),
            ((Shell(2.0, 2.0, 3.0), Shell(2.8, 0.7, 4.0)), 1.5),
        ],
    )
    def test_source_receiver_exchange(self, shells, k):
        # p . E_s(x, y, q) = q . E_s(y, x, p)
        cfg = LayeredCavityConfig(1.5, shells, k, 14)
        coeffs = solve_modes(cfg)
        x = np.array([0.8, -0.3, 0.2])
        y = np.array([-0.1, 0.6, -0.7])
        p = np.array([0.5, 1.0, -0.2])
        q = np.array([-1.0, 0.3, 0.8])
        lhs = p @ scattered_field(x, y, q, cfg, coeffs)
        rhs = q @ scattered_field(y, x, p, cfg, coeffs)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestTransmission:
    def test_residual_small_at_converged_order(self):
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 16)
        res = interface_residual(cfg, Y_SRC, P_SRC, samples=20, seed=0)
        assert res < 1e-6

    def test_residual_monotone_in_order(self):
        values = []
        for n_max in range(4, 17, 2):
            cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, n_max)
            values.append(interface_residual(cfg, Y_SRC, P_SRC, samples=20, seed=0))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > 1e-3  # low order genuinely unresolved

    def test_residual_both_families_excited(self):
        # An off-axis tilted dipole excites TE and TM; both must match.
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 16)
        c_te, c_tm = source_expansion(Y_SRC, P_SRC, 0.75, 16)
        assert np.max(np.abs(c_te)) > 1e-6
        assert np.max(np.abs(c_tm)) > 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_residual_reports_nan(self):
        # At n_max = 90 the mode coefficients overflow to NaN; the residual must
        # say so rather than fold the NaN away and read as converged.
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 90)
        res = interface_residual(cfg, Y_SRC, P_SRC, samples=2, seed=0)
        assert np.isnan(res)


class TestSourceExpansion:
    def test_reconstructs_dipole_field(self):
        # Radiating expansion reproduces the closed-form field for |x| > |y|.
        from nfem import specialfun as sf

        k, n_max = 0.75, 15
        y = np.array([0.2, -0.1, 0.15])
        p = np.array([1.0, 0.4, -0.7])
        c_te, c_tm = source_expansion(y, p, k, n_max)
        x = np.array([0.9, 0.3, -0.4])
        m3, n3 = sf.vswf_fields(x[None, :], k, n_max, 3)
        series = c_te @ m3[:, 0, :] + c_tm @ n3[:, 0, :]
        closed = incident_field(x, Dipole(y, p), k)
        assert np.max(np.abs(series - closed)) < 1e-6 * np.max(np.abs(closed))

    def test_origin_source_rejected(self):
        with pytest.raises(InvalidArgumentError):
            source_expansion(np.zeros(3), P_SRC, 0.75, 8)

    def test_scattered_field_linear_in_polarization(self):
        coeffs = solve_modes(BALL)
        x = np.array([0.5, 0.5, 0.5])
        e1 = scattered_field(x, Y_SRC, np.array([1.0, 0, 0]), BALL, coeffs)
        e2 = scattered_field(x, Y_SRC, np.array([0, 1.0, 0]), BALL, coeffs)
        e12 = scattered_field(x, Y_SRC, np.array([2.0, -3.0, 0]), BALL, coeffs)
        assert np.allclose(e12, 2 * e1 - 3 * e2, rtol=1e-12)


class TestEigenvalueMargin:
    def test_reference_wavenumbers_clear(self):
        for k in (0.5, 0.75, 1.0):
            assert maxwell_eigenvalue_margin(k, 1.0) > 0.05

    def test_first_te_eigenvalue_detected(self):
        # First zero of j_1, located independently by bracketed root finding.
        root = brentq(lambda t: spherical_jn(1, t), 3.0, 5.0, xtol=1e-12)
        assert root == pytest.approx(4.4934094579, abs=1e-9)
        assert maxwell_eigenvalue_margin(root, 1.0) < 1e-9

    def test_margin_continuity(self):
        # 1-Lipschitz in k rho: nearby wavenumbers give nearby margins.
        m1 = maxwell_eigenvalue_margin(0.75, 1.0)
        m2 = maxwell_eigenvalue_margin(0.75 + 1e-4, 1.0)
        assert abs(m1 - m2) < 2e-4

    def test_scaling_in_radius(self):
        # Margin depends on k rho only (it is measured in t = k rho).
        assert maxwell_eigenvalue_margin(0.75, 2.0) == pytest.approx(
            maxwell_eigenvalue_margin(1.5, 1.0), abs=1e-9
        )


def _trace_vec_scalar(family, n, kind, k_med, A, r):
    t = k_med * r
    z = spherical_jn(n, t)
    zp = spherical_jn(n, t, derivative=True)
    if kind == 3:
        z = z + 1j * spherical_yn(n, t)
        zp = zp + 1j * spherical_yn(n, t, derivative=True)
    psip = z + t * zp
    if family == "TE":
        return np.array([z, A * psip], dtype=complex)
    return np.array([psip / k_med, A * k_med * z], dtype=complex)


def _inv2_apply_scalar(t1, t3, vec):
    det = t1[0] * t3[1] - t3[0] * t1[1]
    num0 = vec[0] * t3[1] - t3[0] * vec[1]
    num1 = t1[0] * vec[1] - vec[0] * t1[1]
    if num0 == 0 and num1 == det:
        return np.array([0.0 + 0.0j, 1.0 + 0.0j])
    return np.array([num0 / det, num1 / det])


def solve_modes_oracle(config):
    """(reflection, exterior, shell_coeffs) one degree and family at a time:
    the scalar loop that the degree-vectorized solve_modes replaced."""
    media = config.media()
    radii = config.interface_radii
    n_shells = len(config.shells)
    reflection = {f: np.zeros(config.n_max, dtype=complex) for f in FAMILIES}
    exterior = {f: np.zeros(config.n_max, dtype=complex) for f in FAMILIES}
    shell = {f: np.zeros((config.n_max, n_shells, 2), dtype=complex) for f in FAMILIES}
    for n in range(1, config.n_max + 1):
        for fam in FAMILIES:
            def tr(kind, region, r):
                return _trace_vec_scalar(fam, n, kind, *media[region], r)

            def step(s, v):
                ab = _inv2_apply_scalar(tr(1, s, radii[s - 1]), tr(3, s, radii[s - 1]), v)
                return ab, ab[0] * tr(1, s, radii[s]) + ab[1] * tr(3, s, radii[s])

            vec_reg, vec_rad = tr(1, 0, radii[0]), tr(3, 0, radii[0])
            for s in range(1, n_shells + 1):
                vec_reg, vec_rad = step(s, vec_reg)[1], step(s, vec_rad)[1]
            t3_ext = tr(3, -1, radii[-1])
            det = vec_reg[0] * (-t3_ext[1]) - (-t3_ext[0]) * vec_reg[1]
            scale = max(np.abs(vec_reg).max(), 1e-300) * max(np.abs(t3_ext).max(), 1e-300)
            if abs(det) < scale / COND_LIMIT:
                raise DegenerateConfigError(
                    f"singular transmission system at degree n={n}, family {fam}"
                )
            rhs = -vec_rad
            r_coef = (rhs[0] * (-t3_ext[1]) - (-t3_ext[0]) * rhs[1]) / det
            reflection[fam][n - 1] = r_coef
            exterior[fam][n - 1] = (vec_reg[0] * rhs[1] - rhs[0] * vec_reg[1]) / det
            vec = tr(3, 0, radii[0]) + r_coef * tr(1, 0, radii[0])
            for s in range(1, n_shells + 1):
                shell[fam][n - 1, s - 1], vec = step(s, vec)
    return reflection, exterior, shell


def _rel_per_degree(got, want):
    """Largest |got - want| over each degree's entries, relative to |want|."""
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1, initial=0.0)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1, initial=0.0)
    return np.where(scale > 0, err / np.where(scale > 0, scale, 1.0), err)


class TestVectorizedSolve:
    @pytest.mark.parametrize(
        "shells,k",
        [
            ((Shell(2.5, 1.0, 2.0),), 0.75),
            ((Shell(2.5, 1.0, 0.5),), 0.3),
            ((Shell(2.0, 2.0, 3.0), Shell(2.8, 0.7, 4.0)), 1.5),
            ((), 0.75),
            ((Shell(2.0, 1.0, 1.0), Shell(2.5, 1.0, 1.0)), 0.75),
        ],
    )
    def test_matches_scalar_oracle(self, shells, k):
        cfg = LayeredCavityConfig(1.5, shells, k, 60)
        got = solve_modes(cfg)
        want_r, want_e, want_s = solve_modes_oracle(cfg)
        for fam in FAMILIES:
            assert np.all(_rel_per_degree(got.reflection[fam], want_r[fam]) <= 1e-13)
            # The exterior and shell coefficients come from a forward
            # substitution that loses every digit past about degree 45 at
            # these radii, in the oracle as much as here.
            assert np.all(_rel_per_degree(got.exterior[fam][:40], want_e[fam][:40]) <= 1e-13)
            assert np.all(
                _rel_per_degree(got.shell_coeffs[fam][:40], want_s[fam][:40]) <= 1e-13
            )
            if all(s.A == 1.0 and s.N == 1.0 for s in shells):
                assert np.array_equal(got.reflection[fam], want_r[fam])

    # The oracle's scalar steps overflow, with warnings, past degree 88.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_degree_matches_oracle(self):
        # The data order for rho = 1.45 runs past a singular TE system; both
        # name the same first failing degree.
        n_max = data_truncation_order(1.5, BALL.shells, 0.75, 1.45)
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, n_max)
        with pytest.raises(DegenerateConfigError) as want:
            solve_modes_oracle(cfg)
        with pytest.raises(DegenerateConfigError, match=str(want.value)):
            solve_modes(cfg)

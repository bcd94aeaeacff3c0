"""Layered-sphere forward solver: transmission conditions, reciprocity,
vacuum nulls, truncation rules, and the eigenvalue margin."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn

from nfem import forward
from nfem import specialfun as sf
from nfem.errors import InvalidArgumentError
from nfem.forward import (
    COND_LIMIT,
    FAMILIES,
    LayeredCavityConfig,
    ModeCoefficients,
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
# The reference shell and a two-shell contrast, each with its wavenumber.
REFERENCE_SHELLS = ((Shell(2.5, 1.0, 2.0),), 0.75)
TWO_SHELLS = ((Shell(2.0, 2.0, 3.0), Shell(2.8, 0.7, 4.0)), 1.5)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_rules(self):
        # The order cap, a finite k sqrt(N/A) and a measurement radius whose
        # log ratio to the cavity radius is nonzero: one InvalidArgumentError
        # each, never an OverflowError or a numpy warning.
        shells = (Shell(2.5, 1.0, 2.0),)
        assert LayeredCavityConfig(1.5, shells, 0.75, sf.ORDER_CAP).n_max == sf.ORDER_CAP
        with pytest.raises(InvalidArgumentError, match=r"outside \[1, 200\]"):
            LayeredCavityConfig(1.5, shells, 0.75, sf.ORDER_CAP + 1)
        with pytest.raises(InvalidArgumentError, match="sqrt"):
            effective_wavenumber(1e-300, 1e300, 0.75)
        with pytest.raises(InvalidArgumentError, match="sqrt"):
            LayeredCavityConfig(1.5, (Shell(2.5, 1e-300, 1e300),), 0.75, 10)
        with pytest.raises(InvalidArgumentError, match="r is not finite"):
            truncation_order(1e200, (Shell(2e200, 1.0, 1.0),), 1e200)
        with pytest.raises(InvalidArgumentError, match="rounds to 0"):
            data_truncation_order(1e10, (), 0.75, np.nextafter(1e10, 0))

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
        assert np.all(solve_modes(cfg).reflection == 0.0)

    def test_merged_shells_match_single(self):
        # Splitting one shell into two identical halves must not change R_n.
        one = solve_modes(LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 2.0),), 0.75, 12))
        two = solve_modes(
            LayeredCavityConfig(
                1.5, (Shell(2.0, 1.0, 2.0), Shell(2.5, 1.0, 2.0)), 0.75, 12
            )
        )
        a, b = one.reflection, two.reflection
        assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(a)), 1e-300)


class TestReciprocity:
    @pytest.mark.parametrize(
        "shells,k",
        [REFERENCE_SHELLS, ((Shell(2.5, 1.0, 0.5),), 0.3), TWO_SHELLS],
    )
    def test_source_receiver_exchange(self, shells, k):
        # p . E_s(x, y, q) = q . E_s(y, x, p)
        cfg = LayeredCavityConfig(1.5, shells, k, 14)
        coeffs = solve_modes(cfg)
        x = np.array([0.8, -0.3, 0.2])
        y = np.array([-0.1, 0.6, -0.7])
        p = np.array([0.5, 1.0, -0.2])
        q = np.array([-1.0, 0.3, 0.8])
        lhs = p @ scattered_field(x, y, q, coeffs)
        rhs = q @ scattered_field(y, x, p, coeffs)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestTransmission:
    def test_residual_small_at_converged_order(self):
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 16)
        res = interface_residual(solve_modes(cfg), Y_SRC, P_SRC)
        assert res < 1e-6

    def test_residual_monotone_in_order(self):
        values = []
        for n_max in range(4, 17, 2):
            cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, n_max)
            values.append(interface_residual(solve_modes(cfg), Y_SRC, P_SRC))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > 1e-3  # low order genuinely unresolved

    def test_residual_both_families_excited(self):
        # An off-axis tilted dipole excites TE and TM; both must match.
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 16)
        c = source_expansion(Y_SRC, P_SRC, 0.75, 16, 1.5)
        assert np.all(np.max(np.abs(c), axis=1) > 1e-6)

    @pytest.mark.parametrize("shells,k", [REFERENCE_SHELLS, TWO_SHELLS])
    def test_residual_small_at_high_order(self, shells, k):
        # Every region's coefficients keep their digits up to degree 80, so
        # the transmission conditions hold to near round-off there.
        cfg = LayeredCavityConfig(1.5, shells, k, 80)
        y = 1.0 * np.array([0.6, 0.0, 0.8])
        p = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert interface_residual(solve_modes(cfg), y, p) < 1e-11

    def test_residual_reads_n_max_from_the_modes(self):
        # The modes object is its own config's: degrees 1..4 of an order-16
        # solve, labelled n_max = 4, give the order-4 residual bit for bit.
        modes = solve_modes(BALL)
        assert modes.config is BALL
        low = ModeCoefficients(dataclasses.replace(BALL, n_max=4), modes.table[..., :4])
        res = interface_residual(low, Y_SRC, P_SRC)
        assert res == interface_residual(solve_modes(low.config), Y_SRC, P_SRC) > 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_residual_reports_nan(self):
        # At n_max = 90 the mode coefficients overflow to NaN; the residual must
        # say so rather than fold the NaN away and read as converged.
        cfg = LayeredCavityConfig(1.5, BALL.shells, 0.75, 90)
        res = interface_residual(solve_modes(cfg), Y_SRC, P_SRC)
        assert np.isnan(res)


def region_field_oracle(points, region, modes, c):
    """(E, curl E) of one region's modal field from the per-mode Cartesian
    wavefunctions of ``vswf_fields``, the construction that the mode sums of
    ``forward._region_fields`` replaced."""
    n_max = modes.config.n_max
    deg, _ = sf.mode_index(n_max)
    k_med = modes.config.media()[region][0]
    e = np.zeros((points.shape[0], 3), dtype=complex)
    curl = np.zeros_like(e)
    for col, kind in enumerate((1, 3)):
        coef = modes.table[region, :, col]
        if not np.any(coef):
            continue
        m_f, n_f = sf.vswf_fields(points, k_med, n_max, kind)
        w = coef[:, deg - 1] * c
        e += np.einsum("q,qij->ij", w[0], m_f) + np.einsum("q,qij->ij", w[1], n_f)
        # curl M = k N, curl N = k M
        curl += k_med * (
            np.einsum("q,qij->ij", w[0], n_f) + np.einsum("q,qij->ij", w[1], m_f)
        )
    return e, curl


class TestRegionFields:
    @pytest.mark.parametrize("shells, k", [
        REFERENCE_SHELLS, ((Shell(2.5, 1.0, 1.0),), 0.75), ((), 0.75), TWO_SHELLS,
    ], ids=["contrasted_shell", "vacuum_shell", "no_shell", "two_shells"])
    def test_mode_sums_match_per_mode_fields(self, shells, k):
        # The fields of both regions at every interface, at the residual's 20
        # seeded points, match the per-mode construction to 1e-13 of the
        # largest field; a region with no field gives exact zeros.
        config = LayeredCavityConfig(1.5, shells, k, 34)
        modes = solve_modes(config)
        c = source_expansion(Y_SRC, P_SRC, k, 34, 1.5)
        rng = np.random.default_rng(forward.RESIDUAL_SEED)
        for q, r in enumerate(config.interface_radii):
            dirs = rng.normal(size=(forward.RESIDUAL_SAMPLES, 3))
            pts = r * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            fields = forward._region_fields(pts, (q, q + 1), modes, c)
            for region, got in zip((q, q + 1), fields):
                for g, want in zip(got, region_field_oracle(pts, region, modes, c)):
                    assert g.shape == want.shape
                    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


class TestSourceExpansion:
    def test_reconstructs_dipole_field(self):
        # Radiating expansion reproduces the closed-form field for |x| > |y|.
        k, n_max = 0.75, 15
        y = np.array([0.2, -0.1, 0.15])
        p = np.array([1.0, 0.4, -0.7])
        c = source_expansion(y, p, k, n_max, 1.5)
        x = np.array([0.9, 0.3, -0.4])
        m3, n3 = sf.vswf_fields(x[None, :], k, n_max, 3)
        series = c[0] @ m3[:, 0, :] + c[1] @ n3[:, 0, :]
        closed = incident_field(x, Dipole(y, p), k)
        assert np.max(np.abs(series - closed)) < 1e-6 * np.max(np.abs(closed))

    def test_origin_source_rejected(self):
        with pytest.raises(InvalidArgumentError):
            source_expansion(np.zeros(3), P_SRC, 0.75, 8, 1.5)

    def test_scattered_field_linear_in_polarization(self):
        coeffs = solve_modes(BALL)
        x = np.array([0.5, 0.5, 0.5])
        e1 = scattered_field(x, Y_SRC, np.array([1.0, 0, 0]), coeffs)
        e2 = scattered_field(x, Y_SRC, np.array([0, 1.0, 0]), coeffs)
        e12 = scattered_field(x, Y_SRC, np.array([2.0, -3.0, 0]), coeffs)
        assert np.allclose(e12, 2 * e1 - 3 * e2, rtol=1e-12)

    def test_scattered_field_keeps_point_array_shape(self):
        coeffs = solve_modes(BALL)
        x = np.array([[0.5, 0.5, 0.5], [-0.3, 0.2, 0.6]] * 2).reshape(2, 2, 3)
        e = scattered_field(x, Y_SRC, P_SRC, coeffs)
        assert e.shape == x.shape
        for idx in np.ndindex(2, 2):
            point = scattered_field(x[idx], Y_SRC, P_SRC, coeffs)
            assert np.allclose(e[idx], point, rtol=1e-13, atol=0)


class TestEigenvalueMargin:
    def test_reference_wavenumbers_clear(self):
        for k in (0.5, 0.75, 1.0):
            assert maxwell_eigenvalue_margin(k, 1.0) > 0.05

    def test_first_te_eigenvalue_detected(self):
        # First zero of j_1, located independently by bracketed root finding.
        root = brentq(lambda t: spherical_jn(1, t), 3.0, 5.0, xtol=1e-12)
        assert root == pytest.approx(4.4934094579, abs=1e-9)
        assert maxwell_eigenvalue_margin(root, 1.0) < 1e-9

    def test_degree_21_eigenvalue_detected(self):
        # A zero of degree 21: the scan reaches every degree that can have a
        # zero within 2 pi of k rho.
        root = brentq(lambda t: spherical_jn(21, t), 26.0, 28.0, xtol=1e-12)
        assert root == pytest.approx(27.0310618214, abs=1e-9)
        assert maxwell_eigenvalue_margin(27.0310618214, 1.0) < 1e-6

    def test_reference_margin_keeps_its_bits(self):
        # The reference wavenumber's margin, as `selfcheck` prints it.
        assert maxwell_eigenvalue_margin(0.75, 1.0) == 1.993707269992269

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
    # The kernel's own radial values, so that the scalar sweep differs from
    # solve_modes only in its steps: R_n magnifies a last-bit change in j_n
    # into about 1e-12 (the mpmath reference below bounds that).
    t = k_med * r
    h = sf.spherical_z(n, 3, np.array([t]))[:, 0]
    z = h if kind == 3 else h.real
    zp = z[n - 1] - (n + 1) * z[n] / t
    z = z[n]
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
    """ModeCoefficients.table one degree and family at a time: the inward
    sweep of solve_modes in scalar steps."""
    media = config.media()
    radii = config.interface_radii
    n_shells = len(config.shells)
    table = np.zeros((n_shells + 2, len(FAMILIES), 2, config.n_max), dtype=complex)
    for n in range(1, config.n_max + 1):
        for f, fam in enumerate(FAMILIES):
            def tr(kind, region, r):
                return _trace_vec_scalar(fam, n, kind, *media[region], r)

            vec = tr(3, -1, radii[-1])
            for s in range(n_shells, 0, -1):
                ab = _inv2_apply_scalar(tr(1, s, radii[s]), tr(3, s, radii[s]), vec)
                table[s, f, :, n - 1] = ab
                vec = ab[0] * tr(1, s, radii[s - 1]) + ab[1] * tr(3, s, radii[s - 1])
            t1 = tr(1, 0, radii[0])
            det = t1[0] * vec[1] - vec[0] * t1[1]
            scale = max(np.abs(t1).max(), 1e-300) * max(np.abs(vec).max(), 1e-300)
            if abs(det) < scale / COND_LIMIT:
                raise InvalidArgumentError(
                    f"singular transmission system at degree n={n}, family {fam}"
                )
            x = _inv2_apply_scalar(t1, tr(3, 0, radii[0]), vec)
            table[0, f, 0, n - 1] = x[0] / x[1]
            table[-1, f, 1, n - 1] = 1 / x[1]
            table[1:-1, f, :, n - 1] *= table[-1, f, 1, n - 1]
    return table


def _rel_per_degree(got, want):
    """Largest |got - want| over each degree's entries, relative to |want|."""
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1, initial=0.0)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1, initial=0.0)
    return np.where(scale > 0, err / np.where(scale > 0, scale, 1.0), err)


class TestVectorizedSolve:
    @pytest.mark.parametrize(
        "shells,k",
        [
            REFERENCE_SHELLS,
            ((Shell(2.5, 1.0, 0.5),), 0.3),
            TWO_SHELLS,
            ((), 0.75),
            ((Shell(2.0, 1.0, 1.0), Shell(2.5, 1.0, 1.0)), 0.75),
        ],
    )
    def test_matches_scalar_oracle(self, shells, k):
        cfg = LayeredCavityConfig(1.5, shells, k, 60)
        got = solve_modes(cfg)
        want = solve_modes_oracle(cfg)
        # R_n, gamma_n and every shell pair, region by region at every degree.
        for region in range(len(shells) + 2):
            for f in range(len(FAMILIES)):
                rel = _rel_per_degree(got.table[region, f].T, want[region, f].T)
                assert np.all(rel <= 1e-13)
        if all(s.A == 1.0 and s.N == 1.0 for s in shells):
            assert np.array_equal(got.reflection, want[0, :, 0])

    def test_singular_wall_system_names_lowest_degree(self, monkeypatch):
        # In a vacuum cavity the inward sweep reaches the wall with the
        # cavity's radiating trace, so a regular trace stubbed to twice that
        # trace makes the wall system singular at exactly the chosen degrees.
        real = forward._trace_pair
        cfg = LayeredCavityConfig(1.5, (), 0.75, 12)
        for singular, message in [
            ({"TE": [9], "TM": [5, 9]}, "degree n=5, family TM"),
            ({"TE": [7, 11], "TM": [7]}, "degree n=7, family TE"),
        ]:
            def stub(family, kind, h, t, k_med, A, singular=singular):
                out = real(family, kind, h, t, k_med, A)
                if kind == 1:
                    hit = np.isin(np.arange(1, h.shape[0]), singular[family])
                    out[:, hit] = 2 * real(family, 3, h, t, k_med, A)[:, hit]
                return out

            monkeypatch.setattr(forward, "_trace_pair", stub)
            with pytest.raises(InvalidArgumentError, match=message):
                solve_modes(cfg)
        monkeypatch.undo()
        assert np.all(solve_modes(cfg).reflection == 0.0)


def _mp_trace(family, n, kind, k_med, A, r):
    """(tangential E, tangential A curl E) radial factors, as _trace_pair
    forms them, from mpmath Bessel functions of half-integer order."""
    t = k_med * r

    def z(order):
        pre = mp.sqrt(mp.pi / (2 * t))
        value = pre * mp.besselj(order + mp.mpf(1) / 2, t)
        if kind == 3:
            value += 1j * pre * mp.bessely(order + mp.mpf(1) / 2, t)
        return value

    z_n = z(n)
    psip = t * z(n - 1) - n * z_n  # (t z_n)' = t z_{n-1} - n z_n
    return (z_n, A * psip) if family == "TE" else (psip / k_med, A * k_med * z_n)


def mp_mode_coefficients(config, n, family):
    """(R_n, a_1, b_1, ..., a_S, b_S, gamma_n) from the full interface system
    of degree n, two equations per interface, solved directly in mpmath."""
    n_shells = len(config.shells)
    k = mp.mpf(config.k)
    media = [(k, mp.mpf(1))]
    media += [(k * mp.sqrt(mp.mpf(s.N) / s.A), mp.mpf(s.A)) for s in config.shells]
    media.append((k, mp.mpf(1)))
    # Unknown columns and wavefunction kinds of each region.
    unknowns = [[(0, 1)]]
    unknowns += [[(2 * s - 1, 1), (2 * s, 3)] for s in range(1, n_shells + 1)]
    unknowns.append([(2 * n_shells + 1, 3)])
    size = 2 * n_shells + 2
    lhs, rhs = mp.matrix(size, size), mp.matrix(size, 1)
    for q, r in enumerate(config.interface_radii):
        r = mp.mpf(r)
        for region, sign in ((q, 1), (q + 1, -1)):
            for col, kind in unknowns[region]:
                trace = _mp_trace(family, n, kind, *media[region], r)
                lhs[2 * q, col] += sign * trace[0]
                lhs[2 * q + 1, col] += sign * trace[1]
    # The unit radiating incident wave sits inside the cavity wall.
    incident = _mp_trace(family, n, 3, *media[0], mp.mpf(config.cavity_radius))
    rhs[0], rhs[1] = -incident[0], -incident[1]
    return np.array([complex(v) for v in mp.lu_solve(lhs, rhs)])


class TestMpmathReference:
    @pytest.mark.parametrize("shells,k", [REFERENCE_SHELLS, TWO_SHELLS])
    def test_coefficients_match_direct_solve(self, shells, k):
        cfg = LayeredCavityConfig(1.5, shells, k, 60)
        got = solve_modes(cfg)
        for f, fam in enumerate(FAMILIES):
            for n in (1, 10, 20, 30, 45, 60):
                with mp.workdps(300):
                    want = mp_mode_coefficients(cfg, n, fam)
                r_n, pairs, gamma = want[0], want[1:-1], want[-1]
                assert abs(got.reflection[f, n - 1] - r_n) <= 1e-11 * abs(r_n)
                assert abs(got.table[-1, f, 1, n - 1] - gamma) <= 1e-12 * abs(gamma)
                shell = got.table[1:-1, f, :, n - 1].reshape(-1)
                assert np.all(np.abs(shell - pairs) <= 1e-12 * np.abs(pairs))

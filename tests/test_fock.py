"""Truncated-Fock master-equation oracle: generator identities, propagation,
steady states, and cross-engine agreement with the closed forms.
"""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casq import analytic, fock, moments
from casq.errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    StepSizeError,
    TruncationError,
)
from casq.params import SystemParams, coefficients

from conftest import stable_params

VERIFY_POINT = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.5)
FIG6_POINT = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)


def kron_generator(dim, coeffs, frame_r=0.0):
    """Reference generator: a real sparse operator on row-major vec(rho), from kron products.

    a a+ is the product of the truncated ladder matrices, so
    (a a+)[dim-1, dim-1] = 0 (not dim), which makes tr(L rho) = 0 for
    every rho.  With frame_r = r it acts on rho' of the squeezed frame:
    a is the matrix cosh(r) b + sinh(r) b+, with b the truncated ladder.
    """
    sq = np.sqrt(np.arange(1.0, dim))
    a = sp.diags(sq, 1, format="csr")
    if frame_r:
        a = (math.cosh(frame_r) * a + math.sinh(frame_r) * a.T).tocsr()
    adag = a.T.tocsr()
    eye = sp.identity(dim, format="csr")

    def left(x):
        return sp.kron(x, eye, format="csr")

    def right(x):
        return sp.kron(eye, x.T, format="csr")

    a2 = (a @ a).tocsr()
    adag2 = (adag @ adag).tocsr()
    gen = (0.5 * coeffs.epsilon) * (right(a2) - left(a2) + left(adag2) - right(adag2))
    gen += coeffs.r * (2.0 * left(adag) @ right(a) - left(a @ adag) - right(a @ adag))
    gen += coeffs.s * (2.0 * left(a) @ right(adag) - left(adag @ a) - right(adag @ a))
    gen += (coeffs.u + coeffs.v) * (left(adag) @ right(adag) + left(a) @ right(a))
    gen -= coeffs.u * (right(adag2) + left(a2))
    gen -= coeffs.v * (right(a2) + left(adag2))
    return gen.tocsc()


def kron_block(gen, parity, sign):
    """One real folded block of the reference generator, with its unknowns.

    The unknowns are the entries (m, n) with m - n = parity mod 2 and
    m <= n for sign +1 (m < n for sign -1), in row-major order: the
    generator's rows at them, with the column of (n, m) added, times sign,
    to the column of (m, n).  Returns (block, m, n).
    """
    dim = math.isqrt(gen.shape[0])
    m, n = np.divmod(np.arange(dim * dim), dim)
    keep = np.flatnonzero((m <= n if sign > 0 else m < n) & ((n - m) % 2 == parity))
    mirror = np.flatnonzero(m[keep] != n[keep])
    rows = np.concatenate([keep, (n * dim + m)[keep[mirror]]])
    cols = np.concatenate([np.arange(keep.size), mirror])
    values = np.concatenate([np.ones(keep.size), np.full(mirror.size, float(sign))])
    fold = sp.csr_matrix((values, (rows, cols)), shape=(dim * dim, keep.size))
    return (gen.tocsr()[keep] @ fold).tocsr(), m[keep], n[keep]


def assert_same_block(got, want, scale):
    """Same non-zero pattern, entries within 1e-15 scale.

    scale is the reference operator's largest |entry|, not the folded
    block's: a folded entry can be a sum that cancels (at dim 2 the odd
    imaginary block is one such entry, off by 1e-14 relative to itself).
    """
    got, want = got.tocsr(copy=True), want.tocsr(copy=True)
    for mat in (got, want):
        mat.eliminate_zeros()
        mat.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if want.nnz:
        assert np.abs(got.data - want.data).max() <= 1e-15 * scale


def index_shift_generator(rho, coeffs):
    """Reference drho/dt written with index shifts instead of matrix products.

    It writes a a+ as n + 1, the untruncated value, so it matches the
    library's truncated generator only on states that leave the boundary
    level empty; there it checks every term independently.
    """
    n = rho.shape[0]
    eps = coeffs.epsilon
    sq = np.sqrt(np.arange(n, dtype=float))
    lev = np.arange(n, dtype=float)

    def a_left(m):  # a M
        out = np.zeros_like(m)
        out[:-1, :] = sq[1:, None] * m[1:, :]
        return out

    def a_right(m):  # M a
        out = np.zeros_like(m)
        out[:, 1:] = sq[None, 1:] * m[:, :-1]
        return out

    def adag_left(m):  # a+ M
        out = np.zeros_like(m)
        out[1:, :] = sq[1:, None] * m[:-1, :]
        return out

    def adag_right(m):  # M a+
        out = np.zeros_like(m)
        out[:, :-1] = sq[None, 1:] * m[:, 1:]
        return out

    a2_rho = a_left(a_left(rho))
    rho_a2 = a_right(a_right(rho))
    adag2_rho = adag_left(adag_left(rho))
    rho_adag2 = adag_right(adag_right(rho))
    adag_rho_adag = adag_left(adag_right(rho))
    a_rho_a = a_left(a_right(rho))

    out = (0.5 * eps) * (rho_a2 - a2_rho + adag2_rho - rho_adag2)
    out += coeffs.r * (
        2.0 * a_right(adag_left(rho))              # a+ rho a
        - (lev[:, None] + 1.0) * rho               # a a+ rho
        - rho * (lev[None, :] + 1.0)               # rho a a+
    )
    out += coeffs.s * (
        2.0 * adag_right(a_left(rho))              # a rho a+
        - lev[:, None] * rho                       # a+ a rho
        - rho * lev[None, :]                       # rho a+ a
    )
    out += (coeffs.u + coeffs.v) * (adag_rho_adag + a_rho_a)
    out -= coeffs.u * (rho_adag2 + a2_rho)
    out -= coeffs.v * (rho_a2 + adag2_rho)
    return out


def even_sector_steady_state(p, dim, tol=1e-10, max_steps=400, dt_factor=10.0):
    """Reference steady state: backward Euler on every even m - n entry.

    The solve the library used before it folded the transposition
    symmetry in: all even-sector unknowns of the kron reference generator,
    SuperLU's default COLAMD ordering, and a symmetrization at the end.
    Returns (rho, steps).
    """
    c = coefficients(p)
    levels = np.arange(dim)
    even = np.flatnonzero(((levels[:, None] - levels[None, :]) % 2 == 0).ravel())
    gen = kron_generator(dim, c)[even][:, even].tocsc()
    diag_pos = np.searchsorted(even, levels * dim + levels)
    lu = spla.splu((sp.identity(even.size, format="csc") - (dt_factor / c.lambda_minus) * gen).tocsc())
    x = np.zeros(even.size)
    x[diag_pos[0]] = 1.0
    for steps in range(1, max_steps + 1):
        x = lu.solve(x)
        x /= x[diag_pos].sum()
        if np.abs(gen @ x).sum() < tol * np.abs(x).sum():
            break
    else:
        raise ConvergenceError(f"reference solve did not converge in {max_steps} steps")
    rho = np.zeros(dim * dim)
    rho[even] = x
    rho = rho.reshape(dim, dim)
    return 0.5 * (rho + rho.T), steps


def sparse_rhs(rho, coeffs):
    """drho/dt from the kron reference generator."""
    n = rho.shape[0]
    return (kron_generator(n, coeffs) @ rho.reshape(-1)).reshape(n, n)


def random_interior_hermitian(rng, dim=32, support=24):
    data = np.zeros((dim, dim), dtype=complex)
    block = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    data[:support, :support] = 0.5 * (block + block.conj().T)
    data /= np.trace(data).real
    return data


def moments_of(data):
    n = data.shape[0]
    lev = np.arange(n)
    mean_a = np.sum(np.sqrt(lev[1:]) * np.diag(data, k=-1))
    mean_a2 = np.sum(np.sqrt((lev[:-2] + 1.0) * (lev[:-2] + 2.0)) * np.diag(data, k=-2))
    mean_n = np.sum(lev * np.diag(data).real)
    return mean_a, mean_a2, mean_n


class TestGenerator:
    def test_vacuum_fixed_point_of_pure_decay(self):
        c = coefficients(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0))
        rho = fock.vacuum(16).data
        np.testing.assert_allclose(sparse_rhs(rho, c), 0.0, atol=1e-15)

    def test_trace_preserved(self, rng):
        # full support: the boundary level is populated too, so this pins
        # the truncated a a+ (the index-shift reference leaks trace there)
        c = coefficients(SystemParams(a=25, kappa=0.8, beta=0.4, epsilon=0.7))
        for _ in range(5):
            rho = random_interior_hermitian(rng, support=32)
            deriv = sparse_rhs(rho, c)
            assert abs(np.trace(deriv)) < 1e-12 * np.abs(rho).sum()

    def test_moment_equations(self, rng):
        # the generator must reproduce the closed first/second moment flow
        p = SystemParams(a=25, kappa=0.8, beta=0.3, epsilon=0.5)
        c = coefficients(p)
        x = c.coupling
        for _ in range(5):
            rho = random_interior_hermitian(rng)
            deriv = sparse_rhs(rho, c)
            a1, a2, nn = moments_of(rho)
            da1, da2, dnn = moments_of(deriv)
            assert da1 == pytest.approx(
                (c.r - c.s) * a1 + x * np.conj(a1), rel=1e-10, abs=1e-10
            )
            assert da2 == pytest.approx(
                2 * (c.r - c.s) * a2 + 2 * x * nn + (p.epsilon - 2 * c.v),
                rel=1e-10, abs=1e-10,
            )
            assert dnn == pytest.approx(
                2 * (c.r - c.s) * nn + x * (np.conj(a2) + a2).real + 2 * c.r,
                rel=1e-10, abs=1e-10,
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24))
    def test_transposition_and_parity_symmetries(self, seed, dim):
        # the steady-state solve folds rho_mn and rho_nm into one unknown and
        # drops the odd m - n sector; both rest on these exact identities
        p = stable_params(np.random.default_rng(seed), 1)[0]
        gen = kron_generator(dim, coefficients(p)).tocsr()
        assert np.isrealobj(gen.data)
        transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
        assert abs(gen[transpose][:, transpose] - gen).max() == 0.0
        levels = np.arange(dim)
        odd = ((levels[:, None] - levels[None, :]) % 2 == 1).ravel()
        assert gen[odd][:, ~odd].count_nonzero() == 0
        assert gen[~odd][:, odd].count_nonzero() == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24),
           frame_r=st.sampled_from([0.0, 0.3, -1.1, 2.0]))
    def test_block_matches_folded_reference(self, seed, dim, frame_r):
        # the direct builder on every (parity, sign) block, with its
        # unknowns in a random order, against the reference's rows and
        # folded columns; in a squeezed frame too, where the reference
        # substitutes a = cosh(r) b + sinh(r) b+ into the truncated matrices
        # and both sum terms up to cosh(r)^4 larger than what they cancel to
        rng = np.random.default_rng(seed)
        c = coefficients(stable_params(rng, 1)[0])
        gen = kron_generator(dim, c, frame_r)
        scale = abs(gen).max() * math.cosh(frame_r) ** 4
        for parity in (0, 1):
            for sign in (1, -1):
                want, m, n = kron_block(gen, parity, sign)
                order = rng.permutation(m.size)
                got = fock._block(dim, c, m[order], n[order], sign, frame_r)
                assert_same_block(got, want[order][:, order], scale)

    def test_lab_term_table(self):
        # frame_r = 0 is the lab frame: exactly the table the module
        # docstring's generator reads off, with no transform applied
        c = coefficients(FIG6_POINT)
        half = 0.5 * c.epsilon
        want = (
            [[c.u + c.v, 2.0 * c.s], [2.0 * c.r, c.u + c.v]],
            [[-half - c.u, -c.r], [-c.s, half - c.v]],
            [[half - c.v, -c.r], [-c.s, -half - c.u]],
        )
        for got, table in zip(fock._terms(c, 0.0), want):
            assert np.array_equal(got, table)

    @pytest.mark.parametrize("frame_r", [0.4, -1.3, 2.6])
    def test_frame_term_table_keeps_trace_and_transposition(self, frame_r):
        # K^T + M + N = 0 is tr(L rho) = 0; swapping (b, b+) maps K onto
        # K^T and M onto N^T, which is rho -> rho^T commuting with L
        k, m, n = fock._terms(coefficients(VERIFY_POINT), frame_r)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        scale = np.abs(k).max()
        np.testing.assert_allclose(k.T + m + n, 0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(swap @ k.T @ swap, k, atol=1e-14 * scale)
        np.testing.assert_allclose(swap @ m.T @ swap, n, atol=1e-14 * scale)

    @pytest.mark.parametrize("dim", [96, 256])
    @pytest.mark.parametrize("p", [VERIFY_POINT, FIG6_POINT], ids=["verify", "fig6"])
    def test_block_matches_folded_reference_at_user_sizes(self, p, dim):
        c = coefficients(p)
        gen = kron_generator(dim, c)
        for parity in (0, 1):
            for sign in (1, -1):
                want, m, n = kron_block(gen, parity, sign)
                assert_same_block(fock._block(dim, c, m, n, sign), want, abs(gen).max())

    @pytest.mark.parametrize("p, frame_r", [
        (VERIFY_POINT, 0.0), (VERIFY_POINT, 0.3), (VERIFY_POINT, -1.1),
        (SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.3), 0.0),
    ], ids=["lab", "r0.3", "r-1.1", "zero-term"])
    def test_cached_pattern_values_match_reference(self, p, frame_r):
        # the even block's cached pattern with one call's values, against
        # the uncached assembly (_block) and the reference's rows and folded
        # columns.  The pure amplifier has U = V = R = 0: the pattern depends
        # on dim alone, so the entries of its zero terms stay as explicit zeros
        dim = 40
        c = coefficients(p)
        m, n = fock._dissected_even_block(dim)
        pattern, _, _ = fock._even_pattern(dim)
        data = fock._block_values(pattern, c, frame_r)
        assert data.size == pattern.indices.size
        if not np.all(np.concatenate(fock._terms(c, frame_r))):
            assert np.count_nonzero(data) < data.size
        got = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(m.size, m.size))
        gen = kron_generator(dim, c, frame_r)
        want, m_ref, n_ref = kron_block(gen, 0, 1)
        order = np.searchsorted(m_ref * dim + n_ref, m * dim + n)
        scale = abs(gen).max() * math.cosh(frame_r) ** 4
        assert_same_block(got, want[order][:, order], scale)
        assert_same_block(got, fock._block(dim, c, m, n, 1, frame_r), scale)

    def test_sparse_matches_dense(self, rng):
        c = coefficients(SystemParams(a=12, kappa=1.1, beta=0.6, epsilon=0.4))
        rho = random_interior_hermitian(rng, dim=20, support=16)
        np.testing.assert_allclose(sparse_rhs(rho, c), index_shift_generator(rho, c), atol=1e-12)


class TestEvolve:
    def test_vacuum_invariant_without_drive(self):
        rho = fock.evolve(fock.vacuum(12), SystemParams(a=0, kappa=0.8, beta=0), 5.0)
        expect = np.zeros((12, 12), dtype=complex)
        expect[0, 0] = 1.0
        np.testing.assert_allclose(rho.data, expect, atol=1e-14)
        assert rho.trace_err < 1e-14

    def test_pure_dpa_mean_photon(self):
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2)
        rho = fock.evolve(fock.vacuum(40), p, 50.0 / 0.8)
        obs = fock.observables(rho)
        assert obs.mean_n == pytest.approx(1.0 / 6.0, abs=1e-4)
        # trace drift stays well below 1e-8 per unit kappa*t
        assert rho.trace_err < 1e-8 * (0.8 * 50.0 / 0.8)
        np.testing.assert_allclose(rho.data, rho.data.conj().T, atol=0)

    def test_moment_closure_along_trajectory(self):
        # dim must be generous here: the truncated generator's moment flow
        # differs from the closed equations by boundary corrections, which
        # sit near 3e-5 at dim 80 for this state and fall off as the tail
        p = SystemParams(a=8, kappa=0.8, beta=0.2, epsilon=0.4)
        c = coefficients(p)
        dt = 0.0006  # inside the RK4 stability region for dim 112
        rho1 = fock.evolve(fock.vacuum(112), p, 1.0, dt=dt)
        rho2 = fock.evolve(rho1, p, dt, dt=dt)
        rho3 = fock.evolve(rho2, p, dt, dt=dt)
        _, a2_1, n_1 = moments_of(rho1.data)
        _, a2_2, n_2 = moments_of(rho2.data)
        _, a2_3, n_3 = moments_of(rho3.data)
        fd_n = (n_3 - n_1) / (2 * dt)
        rhs_n = 2 * (c.r - c.s) * n_2 + c.coupling * (np.conj(a2_2) + a2_2).real + 2 * c.r
        assert fd_n == pytest.approx(rhs_n, rel=1e-4, abs=1e-5)
        fd_a2 = (a2_3 - a2_1) / (2 * dt)
        rhs_a2 = 2 * (c.r - c.s) * a2_2 + 2 * c.coupling * n_2 + (p.epsilon - 2 * c.v)
        assert fd_a2 == pytest.approx(rhs_a2, rel=1e-4, abs=1e-5)

    def test_oversized_step_detected(self):
        p = SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.5)
        with pytest.raises(StepSizeError):
            fock.evolve(fock.vacuum(64), p, 2.0, dt=0.2)

    def test_unstable_step_not_blamed_on_truncation(self):
        # dim 64 holds this state at the stable step, and a larger dim only
        # shrinks the stable step, so k times the RK4 limit must be reported
        # as a step-size problem
        p = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
        assert fock.evolve(fock.vacuum(64), p, 2.0).boundary_pop < 1e-7
        c = coefficients(p)
        radius = 2.0 * 64 * (c.r + c.s + abs(c.u) + abs(c.v) + c.epsilon)
        for k in (2, 3, 5):
            with pytest.raises(StepSizeError):
                fock.evolve(fock.vacuum(64), p, 2.0, dt=k * 1.2 / radius)

    def test_truncation_guard(self):
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.35)
        with pytest.raises(TruncationError) as err:
            fock.evolve(fock.vacuum(6), p, 20.0)
        assert err.value.suggested_dim == 12

    def test_vacuum_start_keeps_odd_sector_empty(self):
        p = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
        rho = fock.evolve(fock.vacuum(48), p, 1.0)
        levels = np.arange(48)
        odd = (levels[:, None] - levels[None, :]) % 2 == 1
        assert not rho.data[odd].any()
        assert np.abs(np.diag(rho.data, k=2)).max() > 1e-3
        assert (rho.residual, rho.lu_nnz) == (None, 0)

    def test_both_sectors_evolve_when_occupied(self, rng):
        # a state with odd m - n coherences keeps the odd sector in the step
        p = SystemParams(a=12, kappa=1.1, beta=0.6, epsilon=0.4)
        c = coefficients(p)
        block = np.zeros((20, 20), dtype=complex)
        block[:12, :12] = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho0 = block @ block.conj().T
        rho0 /= np.trace(rho0).real
        gen = kron_generator(20, c)

        def rhs(r):
            return (gen @ r.ravel()).reshape(20, 20)

        dt, n_steps = 1e-3, 50
        rho = rho0.copy()
        for _ in range(n_steps):  # plain RK4 on the whole state
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            rho = 0.5 * (rho + rho.conj().T)
        got = fock.evolve(fock.DensityMatrix(dim=20, data=rho0), p, n_steps * dt, dt=dt,
                          boundary_tol=None)
        np.testing.assert_allclose(got.data, rho, rtol=0, atol=1e-13)
        assert np.abs(np.diag(got.data, k=1)).max() > 1e-3

    def test_vacuum_start_matches_whole_state_rk4(self):
        # the folded real even block steps the same RK4 as the whole state
        p = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
        gen = kron_generator(24, coefficients(p))
        dt, n_steps = 1e-3, 300
        rho = fock.vacuum(24).data.real.ravel()
        for _ in range(n_steps):  # plain RK4 on the whole state
            k1 = gen @ rho
            k2 = gen @ (rho + 0.5 * dt * k1)
            k3 = gen @ (rho + 0.5 * dt * k2)
            k4 = gen @ (rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        got = fock.evolve(fock.vacuum(24), p, n_steps * dt, dt=dt, boundary_tol=None)
        np.testing.assert_allclose(got.data, rho.reshape(24, 24), rtol=0, atol=1e-13)
        assert not got.data.imag.any()
        assert np.array_equal(got.data, got.data.T)

    def test_non_hermitian_start_evolves_as_its_hermitian_part(self, rng):
        p = SystemParams(a=12, kappa=1.1, beta=0.6, epsilon=0.4)
        block = np.zeros((20, 20), dtype=complex)
        block[:12, :12] = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho0 = block @ block.conj().T
        rho0 /= np.trace(rho0).real
        skew = np.zeros((20, 20), dtype=complex)
        skew[:10, :10] = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        skew = 0.01 * (skew - skew.conj().T)
        got = fock.evolve(fock.DensityMatrix(dim=20, data=rho0 + skew), p, 0.05, dt=1e-3,
                          boundary_tol=None)
        want = fock.evolve(fock.DensityMatrix(dim=20, data=rho0), p, 0.05, dt=1e-3,
                           boundary_tol=None)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-15)
        assert np.array_equal(got.data, got.data.conj().T)

    def test_coherence_magnitude_combines_real_and_imaginary_parts(self):
        # each part of rho_01 stays below 1 but |rho_01| does not
        data = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        data[0, 1], data[1, 0] = 0.8 + 0.8j, 0.8 - 0.8j
        p = SystemParams(a=0, kappa=0.8, beta=0)
        with pytest.raises(StepSizeError, match="at step 1;"):
            fock.evolve(fock.DensityMatrix(dim=4, data=data), p, 1e-3, dt=1e-3)

    @pytest.mark.parametrize("t_end, dt", [(math.nan, None), (math.inf, None),
                                           (1.0, math.nan), (1.0, math.inf)],
                             ids=["t-end-nan", "t-end-inf", "dt-nan", "dt-inf"])
    def test_non_finite_time_rejected(self, t_end, dt):
        p = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
        with pytest.raises(InvalidParameterError, match="finite"):
            fock.evolve(fock.vacuum(8), p, t_end, dt=dt)

    @pytest.mark.parametrize("boundary_tol", [math.nan, -1e-6], ids=["nan", "neg"])
    def test_bad_boundary_tol_rejected(self, boundary_tol):
        p = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
        with pytest.raises(InvalidParameterError, match="boundary_tol"):
            fock.evolve(fock.vacuum(8), p, 0.1, boundary_tol=boundary_tol)

    def test_frame_state_refused(self):
        # evolve steps lab-frame data; a frame state would evolve under the wrong generator
        rho = fock.DensityMatrix(dim=8, data=fock.vacuum(8).data, frame_r=0.5)
        with pytest.raises(InvalidParameterError, match="squeezed frame"):
            fock.evolve(rho, VERIFY_POINT, 0.1)


class TestSteadyState:
    @pytest.mark.parametrize("dim", [64, 128])
    @pytest.mark.parametrize("p", [VERIFY_POINT, FIG6_POINT], ids=["verify", "fig6"])
    def test_matches_even_sector_reference(self, p, dim):
        # small bases truncate these states, but the truncated model is the
        # same for both solves, so the guard is off
        ref, _ = even_sector_steady_state(p, dim, dt_factor=1e6)
        rho = fock.steady_state(p, dim, boundary_tol=None)
        assert np.abs(rho.data - ref).max() <= 1e-12
        assert np.array_equal(rho.data, rho.data.T)
        assert not rho.data.imag.any()

    def test_solver_counts_recorded(self):
        rho = fock.steady_state(VERIFY_POINT, 256)
        assert 0 < rho.residual < 1e-10 * np.abs(rho.data).sum()
        # L + U of the folded system in nested-dissection order; a
        # minimum-degree ordering on A^T + A fills to 1 286 436 here
        assert 0 < rho.lu_nnz < 1_286_436
        m, n = fock._dissected_even_block(256)
        rows, cols = np.divmod(np.arange(256 * 256), 256)
        even_upper = np.flatnonzero((rows <= cols) & ((cols - rows) % 2 == 0))
        assert np.array_equal(np.sort(m * 256 + n), even_upper)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(8, 32))
    def test_long_step_matches_short_step(self, seed, dim):
        # the direct solve is the infinitely long step; the reference takes
        # backward-Euler steps of 10 / lambda_minus until |L rho|_1 < tol |rho|_1.
        # The slowest decay rate is of order lambda_minus, so each state lies
        # within about tol |rho|_1 / lambda_minus of the exact one
        p = stable_params(np.random.default_rng(seed), 1)[0]
        rho = fock.steady_state(p, dim, boundary_tol=None)
        short, _ = even_sector_steady_state(p, dim, dt_factor=10.0)
        band = 1e-10 * np.abs(short).sum() / coefficients(p).lambda_minus
        assert np.abs(rho.data - short).max() <= band

    @pytest.mark.parametrize("dim, frame", [(64, "lab"), (0, "auto")], ids=["lab", "frame"])
    def test_one_factorization_one_solve(self, monkeypatch, dim, frame):
        calls = []
        real_splu = spla.splu

        class CountedLU:
            def __init__(self, *args, **kwargs):
                calls.append("splu")
                self.lu = real_splu(*args, **kwargs)
                self.nnz = self.lu.nnz

            def solve(self, rhs):
                calls.append("solve")
                return self.lu.solve(rhs)

        monkeypatch.setattr(spla, "splu", CountedLU)
        fock.steady_state(VERIFY_POINT, dim, boundary_tol=None, frame=frame)
        assert calls == ["splu", "solve"]

    def test_dissection_order_cached_read_only(self):
        m, n = fock._dissected_even_block(48)
        again = fock._dissected_even_block(48)
        assert again[0] is m and again[1] is n
        for arr in (m, n):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_pattern_cached_read_only_and_shared(self, monkeypatch):
        # a second solve at one dim builds no pattern, and SuperLU reads the
        # cached structure itself, not a copy of it
        fock.steady_state(VERIFY_POINT, 36, boundary_tol=None)
        hits, misses = fock._even_pattern.cache_info()[:2]
        monkeypatch.setattr(fock, "_block_pattern", lambda *args: pytest.fail("built"))
        systems = []
        real_splu = spla.splu

        def splu(system, **kwargs):
            systems.append((system, system.copy()))  # the pin is undone after the call
            return real_splu(system, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        rho = fock.steady_state(FIG6_POINT, 36, boundary_tol=None)
        assert fock._even_pattern.cache_info()[:2] == (hits + 1, misses)
        pattern, row, diag = fock._even_pattern(36)
        (system, factored), = systems
        assert np.shares_memory(system.indices, pattern.indices)
        assert np.shares_memory(system.indptr, pattern.indptr)
        # the row of rho_00 read max |L| rho_00 = max |L|, and L is whole again
        data = fock._block_values(pattern, coefficients(FIG6_POINT))
        pin = pattern.indices[diag]
        pinned = factored.tocsr()[pin]
        pinned.eliminate_zeros()
        assert pinned.indices.tolist() == [pin] and pinned.data[0] == np.abs(data).max()
        assert np.array_equal(system.data, data)
        assert rho.residual < 1e-10
        for arr in (*pattern, row):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("dim, fill", [(64, 47_508), (256, 1_174_690)])
    def test_lu_fill_pinned(self, dim, fill):
        # the fill of the nested-dissection order with the pinned row on the diagonal
        assert fock.steady_state(VERIFY_POINT, dim, boundary_tol=None).lu_nnz == fill

    def test_vacuum_projector_without_drive(self):
        rho = fock.steady_state(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0), 16)
        assert rho.data[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho.data).sum() == pytest.approx(1.0, abs=1e-10)

    def test_pure_dpa_parity_structure(self):
        # photons are created in pairs, so coherences with odd m - n never
        # appear; the diagonal still reaches odd n through single-photon
        # escape out of the port mirror (P(1) = sqrt(c^2-d^2)(1-c) exactly),
        # with every even population beating its odd neighbors
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.3)
        rho = fock.steady_state(p, 64)
        for off in (1, 3, 5):
            assert np.abs(np.diag(rho.data, k=off)).max() < 1e-12
        diag = np.diag(rho.data).real
        pnd = analytic.photon_distribution(analytic.steady_record(p), 40).probs
        np.testing.assert_allclose(diag[:41], pnd, atol=1e-9)
        assert diag[1] > 0.1  # odd populations are real, not round-off
        for even in range(0, 12, 2):
            assert diag[even] > diag[even + 1]

    def test_matches_closed_forms_at_convergent_drive(self):
        # same physics point as the near-threshold acceptance check, at a
        # drive where the truncation is fully converged
        # var_minus is a small difference of n-weighted moments, the most
        # truncation-hungry observable: dim must push the n-weighted tail
        # well under the relative budget
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.5)
        rho = fock.steady_state(p, 256, tol=1e-12)
        obs = fock.observables(rho)
        var = analytic.variance_steady(p)
        rec = analytic.steady_record(p)
        assert obs.mean_n == pytest.approx(rec.n_cl, rel=1e-3)
        assert obs.var_plus == pytest.approx(var.plus, rel=1e-3)
        assert obs.var_minus == pytest.approx(var.minus, rel=1e-3)
        pnd = analytic.photon_distribution(rec, 150).probs
        assert np.abs(obs.pnd[:151] - pnd).max() < 1e-4

    def test_second_moments_track_toward_threshold(self):
        # deeper drive, bigger basis: the oracle's second moments keep
        # matching the closed forms once the tail fits
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.7)
        rho = fock.steady_state(p, 400, tol=1e-12)
        obs = fock.observables(rho)
        s_plus, s_minus = analytic.steady_alpha_sq(coefficients(p))
        assert obs.var_plus - 1.0 == pytest.approx(s_plus, rel=1e-3)
        assert 1.0 - obs.var_minus == pytest.approx(s_minus, rel=1e-3)

    def test_fig6_point_distribution_and_doubling(self):
        p = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
        rho1 = fock.steady_state(p, 256, tol=1e-12)
        obs1 = fock.observables(rho1)
        rec = analytic.steady_record(p)
        pnd = analytic.photon_distribution(rec, 255).probs
        assert np.abs(obs1.pnd - pnd).max() < 1e-4
        # 1e-6 doubling stability needs the smaller basis's n-weighted tail
        # below 1e-6 (dim 256 leaves ~3e-6 in n-weighted tail mass)
        rho2 = fock.steady_state(p, 320, tol=1e-12)
        obs2 = fock.observables(rho2)
        rho3 = fock.steady_state(p, 640, tol=1e-12)
        obs3 = fock.observables(rho3)
        assert abs(obs3.mean_n - obs2.mean_n) < 1e-6
        assert abs(obs3.var_minus - obs2.var_minus) < 1e-6
        assert abs(obs3.var_plus - obs2.var_plus) < 1e-6

    def test_near_threshold_truncation_guard_trips(self):
        # at 0.9 of threshold the state needs far more than 150 levels;
        # the guard must refuse rather than return a distorted state
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9)
        with pytest.raises(TruncationError):
            fock.steady_state(p, 150)

    def test_threshold_margin_refused(self):
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9995)
        with pytest.raises(NotStableError):
            fock.steady_state(p, 64)

    def test_convergence_error_when_starved(self):
        # no solve in double precision reaches this residual
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.5)
        with pytest.raises(ConvergenceError, match="misses the target") as err:
            fock.steady_state(p, 64, tol=1e-300)
        assert err.value.residual > 0

    @pytest.mark.parametrize("dim", [1, 0, -5])
    def test_too_small_basis_rejected(self, dim):
        with pytest.raises(InvalidParameterError, match="dim"):
            fock.steady_state(VERIFY_POINT, dim)

    @pytest.mark.parametrize("dim", [64.5, 64.0, np.float64(64.0), True, "64"],
                             ids=["fraction", "float", "numpy-float", "bool", "str"])
    def test_non_integer_basis_rejected(self, dim):
        # the order for dim 64 is cached first: 64.0 would find its entry
        fock._dissected_even_block(64)
        with pytest.raises(InvalidParameterError, match="dim must be an integer"):
            fock.steady_state(VERIFY_POINT, dim)

    def test_numpy_integer_basis_accepted(self):
        rho = fock.steady_state(VERIFY_POINT, np.int64(32), boundary_tol=None)
        assert rho.dim == 32 and rho.data.shape == (32, 32)

    @pytest.mark.parametrize("option", [{"tol": 0.0}, {"tol": -1.0}], ids=["tol-0", "tol-neg"])
    def test_nonpositive_solver_options_rejected(self, option):
        with pytest.raises(InvalidParameterError, match=next(iter(option))):
            fock.steady_state(VERIFY_POINT, 64, **option)

    @pytest.mark.parametrize(
        "option",
        [{"tol": math.inf}, {"boundary_tol": math.nan}, {"boundary_tol": -1e-6}],
        ids=["tol-inf", "boundary_tol-nan", "boundary_tol-neg"],
    )
    def test_bad_solver_options_rejected(self, option):
        # unchecked, each of these returns a wrong state, switches the
        # truncation guard off silently, or fails inside SuperLU or range()
        with pytest.raises(InvalidParameterError, match=next(iter(option))):
            fock.steady_state(VERIFY_POINT, 64, **option)


CRITERION4_POINT = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9)
HEADLINE_POINT = SystemParams(a=100, kappa=0.8, beta=0.0677).with_relative_drive(0.99)
ORACLE_POINT = SystemParams(a=100, kappa=0.8, beta=0.0, epsilon=0.0)  # `casq oracle`'s default


def relative_errors(obs, p):
    var = analytic.variance_steady(p)
    n_cl = analytic.steady_record(p).n_cl
    return (abs(obs.mean_n / n_cl - 1.0), abs(obs.var_plus / var.plus - 1.0),
            abs(obs.var_minus / var.minus - 1.0))


class TestSqueezedFrame:
    def test_unsqueezed_point_is_the_lab_solve(self):
        # nothing squeezes the vacuum, so the frame is r = 0 and its solve
        # is the lab solve itself
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0)
        lab = fock.steady_state(p, 16)
        auto = fock.steady_state(p, 16, frame="auto")
        assert np.array_equal(auto.data, lab.data)
        assert (auto.frame_r, lab.frame_r) == (0.0, 0.0)

    def test_criterion_4_point_in_64_levels(self):
        # the number basis needs ~1216 levels here; the frame is thermal
        # with ~1.8 quanta, and 64 and 128 of its levels agree
        small = fock.steady_state(CRITERION4_POINT, 64, frame="auto")
        large = fock.steady_state(CRITERION4_POINT, 128, frame="auto")
        assert small.frame_r == pytest.approx(1.761, abs=1e-3)
        obs = [fock.observables(rho) for rho in (small, large)]
        for errors in map(relative_errors, obs, [CRITERION4_POINT] * 2):
            assert max(errors) < 1e-9
        for attr in ("mean_n", "var_plus", "var_minus"):
            assert getattr(obs[0], attr) == pytest.approx(getattr(obs[1], attr), rel=1e-9)

    def test_headline_point_near_threshold(self):
        # <n> = 664 at 0.99 of threshold, where the lab frame would need
        # thousands of levels
        rho = fock.steady_state(HEADLINE_POINT, 160, frame="auto")
        assert max(relative_errors(fock.observables(rho), HEADLINE_POINT)) < 1e-7

    @pytest.mark.parametrize("p, most_levels, rtol, pnd_atol", [
        (VERIFY_POINT, 40, 1e-10, 1e-12), (FIG6_POINT, 40, 1e-10, 1e-12),
        (CRITERION4_POINT, 80, 1e-10, 1e-12), (HEADLINE_POINT, 260, 1e-7, 1e-11),
        (ORACLE_POINT, 240, 1e-10, 1e-12),
    ], ids=["verify", "fig6", "criterion4", "headline", "oracle"])
    def test_sized_frame(self, p, most_levels, rtol, pnd_atol):
        # dim=0 sizes the basis from the frame's own occupation n_th: the
        # fewest levels whose thermal tail (n_th / (n_th + 1))^dim is below
        # 1e-13 (31, 23, 68, 202 and 237 levels here).  At the headline
        # point P(n) is off by 1.9e-12 of P(0) = 0.0375 at dims 202 to 300
        # alike: a round-off floor, as is its 1e-10 in the moments
        rho = fock.steady_state(p, frame="auto")
        n_th = fock._frame_moments(rho.data)[2]
        fewest = math.ceil(math.log(1e-13) / math.log(n_th / (n_th + 1.0)))
        assert rho.dim == fewest <= most_levels and rho.frame_r > 1.0
        obs = fock.observables(rho, n_max=64)
        assert max(relative_errors(obs, p)) < rtol
        pnd = analytic.photon_distribution(analytic.steady_record(p), 64).probs
        assert obs.pnd.shape == (65,)
        assert np.abs(obs.pnd - pnd).max() <= pnd_atol

    def test_sized_frame_needs_the_frame(self):
        with pytest.raises(InvalidParameterError, match="dim must be >= 2, got 0"):
            fock.steady_state(VERIFY_POINT, 0)
        with pytest.raises(InvalidParameterError, match="dim must be >= 2, got 1"):
            fock.steady_state(VERIFY_POINT, 1, frame="auto")

    def test_sized_frame_capped(self, monkeypatch):
        # the criterion-4 point needs 68 levels; a given dim is capped alike,
        # before anything is built
        monkeypatch.setattr(fock, "FRAME_DIM_MAX", 64)
        with pytest.raises(TruncationError, match="needs 68 levels, more than 64") as exc:
            fock.steady_state(CRITERION4_POINT, frame="auto")
        assert exc.value.suggested_dim == 68
        assert fock.steady_state(CRITERION4_POINT, 64, frame="auto").dim == 64
        monkeypatch.setattr(fock, "_even_steady_state", lambda *args: pytest.fail("built"))
        with pytest.raises(InvalidParameterError, match="dim must be <= FRAME_DIM_MAX = 64"):
            fock.steady_state(CRITERION4_POINT, 65, frame="auto")

    @pytest.mark.parametrize("p", [VERIFY_POINT, CRITERION4_POINT], ids=["verify", "criterion4"])
    def test_lab_photon_distribution(self, p):
        obs = fock.observables(fock.steady_state(p, 96, frame="auto"))
        pnd = analytic.photon_distribution(analytic.steady_record(p), 64).probs
        assert obs.pnd.shape == (96,)
        assert np.abs(obs.pnd[:65] - pnd).max() <= 1e-12

    def test_observables_match_dense_transform(self, rng):
        # a complex frame state, <b> != 0, against S rho' S+ with S = exp(r (a+^2 - a^2) / 2)
        # taken densely in a basis that holds S|k> for every k of its support
        import scipy.linalg

        r, dim, big = 0.7, 24, 160
        frame_data = random_interior_hermitian(rng, dim=dim, support=12)
        obs = fock.observables(fock.DensityMatrix(dim=dim, data=frame_data, frame_r=r))
        a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
        squeeze = scipy.linalg.expm(0.5 * r * (a.T @ a.T - a @ a))
        padded = np.zeros((big, big), dtype=complex)
        padded[:dim, :dim] = frame_data
        lab = squeeze @ padded @ squeeze.T
        mean_a, mean_a_sq, mean_n = moments_of(lab)
        assert abs(mean_a.real) > 0.1 and abs(mean_a.imag) > 0.1 and abs(mean_a_sq.imag) > 0.1
        assert obs.mean_a == pytest.approx(mean_a, abs=1e-12)
        assert obs.mean_a_sq == pytest.approx(mean_a_sq, abs=1e-12)
        assert obs.mean_n == pytest.approx(mean_n, abs=1e-12)
        np.testing.assert_allclose(obs.pnd, np.diag(lab).real[:dim], atol=1e-13)
        # the frame state gives the lab P(n) beyond its own dim levels too
        beyond = fock.observables(fock.DensityMatrix(dim=dim, data=frame_data, frame_r=r), n_max=59)
        np.testing.assert_allclose(beyond.pnd, np.diag(lab).real[:60], atol=1e-13)
        assert beyond.pnd[dim:].max() > 1e-4

    @pytest.mark.parametrize("frame", ["squeezed", "LAB", None, 0.5])
    def test_bad_frame_rejected(self, frame):
        with pytest.raises(InvalidParameterError, match="frame"):
            fock.steady_state(VERIFY_POINT, 32, frame=frame)

    def test_start_outside_artanh_domain_raises(self, monkeypatch):
        monkeypatch.setattr(fock, "_stationary_moments", lambda coeffs: (1.0, 0.0))
        with pytest.raises(ConvergenceError, match="stationary moments give .* outside"):
            fock.steady_state(VERIFY_POINT, 32, frame="auto")

    def test_sized_dim_refused_near_threshold(self):
        # A = 100, beta = 0 at 0.99 of threshold: the frame holds 55.6
        # thermal quanta, and the start sizes the dim before any solve
        p = SystemParams(a=100, kappa=0.8, beta=0.0).with_relative_drive(0.99)
        with pytest.raises(TruncationError, match="needs 1681 levels") as exc:
            fock.steady_state(p, frame="auto")
        assert exc.value.suggested_dim == 1681

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stationary_start_is_the_fixed_point(self, seed):
        # over the stable region: the term table's stationary moments are
        # the closed forms' and the moments engine's, and the frame they
        # give is the one the solve's own moments give back.  At 5600
        # random points with a sized dim up to 256 the moments agreed to
        # 2e-13 and the solves' var+-, <n> to 3e-11; at 395 of them the
        # solve's own r lay within 9.4e-11 of its frame's
        p = stable_params(np.random.default_rng(seed), 1)[0]
        c = coefficients(p)
        mean_a_sq, mean_n = fock._stationary_moments(c)
        rec = analytic.steady_record(p)
        lin = moments.steady_from_linear_solve(p)
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        for a_sq, n in ((mean_a_sq, mean_n), (lin.alpha_sq.real, lin.n_cl)):
            assert a_sq == pytest.approx(rec.alpha_sq, rel=1e-10)
            assert n == pytest.approx(rec.n_cl, rel=1e-10)
            assert 2.0 * (n + a_sq) == pytest.approx(s_plus, rel=1e-10)
            assert 2.0 * (a_sq - n) == pytest.approx(s_minus, abs=1e-10 * s_plus)
        n_th = math.sqrt((mean_n + 0.5) ** 2 - mean_a_sq ** 2) - 0.5
        assume(n_th <= 8.0)  # a sized dim of at most 255 levels keeps each solve small
        rho = fock.steady_state(p, frame="auto")
        assert rho.dim <= 256
        mean_b, mean_b_sq, mean_nb = fock._frame_moments(rho.data)
        _, own_a_sq, own_n = fock._lab_moments(rho.frame_r, mean_b, mean_b_sq, mean_nb)
        assert abs(fock._frame_r(own_a_sq.real, own_n) - rho.frame_r) <= 1e-8
        obs = fock.observables(rho)
        assert max(relative_errors(obs, p)) < 1e-8
        assert obs.mean_n == pytest.approx(lin.n_cl, rel=1e-8)
        assert obs.var_plus == pytest.approx(1.0 + lin.var_flow_plus, rel=1e-8)
        assert obs.var_minus == pytest.approx(1.0 - lin.var_flow_minus, rel=1e-8,
                                              abs=1e-10 * s_plus)

    def test_final_frame_truncation_guarded(self):
        # the frame solve's boundary population is guarded as a lab solve's is
        with pytest.raises(TruncationError):
            fock.steady_state(HEADLINE_POINT, 64, frame="auto")

    @pytest.mark.parametrize("frame_r", [math.nan, math.inf])
    def test_non_finite_frame_rejected(self, frame_r):
        with pytest.raises(InvalidParameterError, match="frame_r"):
            fock.DensityMatrix(dim=4, data=np.eye(4) / 4, frame_r=frame_r)


@pytest.mark.parametrize("dim", [0, -5])
def test_vacuum_too_small_basis_rejected(dim):
    with pytest.raises(InvalidParameterError, match="dim"):
        fock.vacuum(dim)


@pytest.mark.parametrize("dim", [64.0, 2.5, True], ids=["float", "fraction", "bool"])
def test_vacuum_non_integer_basis_rejected(dim):
    with pytest.raises(InvalidParameterError, match="dim must be an integer"):
        fock.vacuum(dim)


def nan_corner():
    data = fock.vacuum(8).data
    data[0, 0] = math.nan
    return data


def inf_boundary():
    data = fock.vacuum(8).data
    data[-1, -1] = math.inf
    return data


@pytest.mark.parametrize("data, read", [
    (nan_corner, lambda rho: fock.evolve(rho, VERIFY_POINT, 0.1)),
    (nan_corner, fock.observables),
    (nan_corner, lambda rho: fock.husimi(rho, 0j)),
    (inf_boundary, lambda rho: fock.evolve(rho, VERIFY_POINT, 0.0)),
], ids=["evolve", "observables", "husimi", "evolve-t0-boundary"])
def test_non_finite_data_refused(data, read):
    # unchecked, evolve blamed the step size, observables and husimi gave
    # NaN silently, and an infinite boundary entry was blamed on the truncation
    with pytest.raises(InvalidParameterError, match="data must be finite"):
        read(fock.DensityMatrix(dim=8, data=data()))


class TestObservables:
    def test_vacuum(self):
        obs = fock.observables(fock.vacuum(8))
        assert obs.mean_n == 0.0
        assert obs.var_plus == 1.0 and obs.var_minus == 1.0
        assert obs.mean_a == 0

    def test_phase_symmetric_state(self, rng):
        # any diagonal state has var_plus = var_minus = 1 + 2<n>
        weights = rng.uniform(size=10)
        weights /= weights.sum()
        data = np.zeros((16, 16), dtype=complex)
        data[:10, :10] = np.diag(weights)
        obs = fock.observables(fock.DensityMatrix(dim=16, data=data))
        assert obs.var_plus == pytest.approx(1 + 2 * obs.mean_n, rel=1e-12)
        assert obs.var_minus == pytest.approx(1 + 2 * obs.mean_n, rel=1e-12)

    def test_min_eig_on_demand(self):
        p = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
        rho = fock.steady_state(p, 256)
        obs = fock.observables(rho, compute_min_eig=True)
        assert obs.min_eig is not None
        assert obs.min_eig > -1e-9
        assert fock.observables(rho).min_eig is None


class TestHusimi:
    def test_vacuum_center(self):
        assert fock.husimi(fock.vacuum(8), 0j) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_vacuum_coherent_overlap(self):
        assert fock.husimi(fock.vacuum(32), 1.0 + 0j) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-12
        )
        alpha = 0.6 - 0.8j
        assert fock.husimi(fock.vacuum(32), alpha) == pytest.approx(
            math.exp(-abs(alpha) ** 2) / math.pi, rel=1e-12
        )

    def test_frame_state_refused(self):
        rho = fock.DensityMatrix(dim=8, data=fock.vacuum(8).data, frame_r=0.5)
        with pytest.raises(InvalidParameterError, match="squeezed frame"):
            fock.husimi(rho, 0j)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0, -math.inf),
                                       complex(1, math.nan)],
                             ids=["nan", "inf", "imag-inf", "imag-nan"])
    def test_non_finite_alpha_refused(self, alpha):
        # unchecked, the coherent coefficients give NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="alpha must be finite"):
                fock.husimi(fock.vacuum(8), alpha)

    def test_matches_analytic_q_function(self):
        p = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
        rho = fock.steady_state(p, 256)
        rec = analytic.steady_record(p)
        for alpha in (0j, 0.5 + 0j, -0.3 + 0.4j, 1.5j, 2.0 - 1.0j):
            q_closed = analytic.q_function(rec, alpha.real, alpha.imag)
            assert fock.husimi(rho, alpha) == pytest.approx(q_closed, abs=1e-4)


def test_oracle_imports_no_other_engine():
    # the oracle is one of four independent engines: it picks its squeezed
    # frame from its own moments, never from the closed forms or another engine
    banned = {"analytic", "moments", "montecarlo", "crosscheck"}
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(fock))):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "errors" in imported  # the walk sees the module's own relative imports
    assert not imported & banned, sorted(imported & banned)


def test_oracle_reads_no_closed_form_names():
    # the frame's start comes from the oracle's own term table: no name of
    # the closed forms or the moments engine, public or private, is read in
    # casq/fock.py, and nothing is imported by name at run time
    from casq import moments

    tree = ast.parse(inspect.getsource(fock))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    banned = {"analytic", "moments", "importlib", "import_module", "__import__"}
    for module in (analytic, moments):  # every top-level definition of either
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                banned.add(node.name)
            elif isinstance(node, ast.Assign):
                banned.update(t.id for t in node.targets
                              if isinstance(t, ast.Name) and t.id != "__all__")
    assert "steady_record" in banned and "steady_from_linear_solve" in banned
    assert "_terms" in names  # the walk sees the module's own names
    assert not names & banned, sorted(names & banned)

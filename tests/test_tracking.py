"""Tests for homotopy eigenvalue tracking."""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import csr_pencil, dense_pencil, derivative_at, pencil_at

from cavityuq.assembly import DiscreteSpace, MatrixPencil, assemble
from cavityuq.eigen import DENSE_CUTOFF, Eigenpair, solve_smallest
from cavityuq.errors import (
    DegeneracyError,
    DomainError,
    NewtonFailure,
    TrackingFailure,
)
from cavityuq.geometry import build_disk_patch
from cavityuq import pencil as pencil_mod
from cavityuq import tracking
from cavityuq.pencil import (
    HomotopyPencil,
    block_pencil,
    build_pillbox_pencil,
)
from cavityuq.tracking import (
    TrackConfig,
    TrackState,
    eigenpair_derivative,
    newton_correct,
    predict,
    track,
    track_modes,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.fixture(scope="module")
def tm_block():
    space = DiscreteSpace(2, 12)
    par = build_pillbox_pencil(0.05, 0.1, 1, space)
    b0 = par.blocks[0]
    return HomotopyPencil(
        block_pencil(par.at([0.05]), b0), [block_pencil(par.at([0.06]), b0)]
    )


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = TrackConfig()
        assert (cfg.n1, cfg.n2) == (3, 5)
        assert cfg.eta1 == pytest.approx(1.1)
        assert cfg.eta2 == pytest.approx(2.0 / 3.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            TrackConfig(eta1=0.9)
        with pytest.raises(DomainError):
            TrackConfig(eta2=1.2)
        with pytest.raises(DomainError):
            TrackConfig(n1=5, n2=5)
        with pytest.raises(DomainError):
            TrackConfig(min_step=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["eta1", "eta2", "newton_tol", "min_step", "initial_step"])
    def test_non_finite_parameters_rejected(self, key, value):
        # a NaN min_step would switch the step-underflow guard off
        with pytest.raises(DomainError, match="finite"):
            TrackConfig(**{key: value})


class TestDerivative:
    def test_stationary_homotopy_gives_zero(self):
        pen = dense_pencil(np.diag([1.0, 2.0]))
        pair = solve_smallest(pen, 1)[0]
        hom = HomotopyPencil(pen, [pen])
        [(de, dlam)] = derivative_at(hom, 0.0, pair, pen.mass @ pair.vector)
        assert np.abs(de).max() == 0.0 and dlam == 0.0

    def test_diagonal_first_order_perturbation(self):
        pen = dense_pencil(np.diag([1.0, 2.0]))
        pair = solve_smallest(pen, 1)[0]
        # K' = diag(3.7, -1.2) up to rounding, M' = 0
        hom = HomotopyPencil(pen, [dense_pencil(np.diag([1.0 + 3.7, 2.0 - 1.2]))])
        [(de, dlam)] = derivative_at(hom, 0.0, pair, pen.mass @ pair.vector)
        assert dlam == pytest.approx(3.7, abs=1e-12)
        assert np.abs(de).max() <= 1e-12

    def test_matches_finite_differences_on_radius_leg(self, tm_block):
        mid = pencil_at(tm_block, 0.5)
        pair = solve_smallest(mid, 1)[0]
        c = mid.mass @ pair.vector
        [(_, dlam)] = derivative_at(tm_block, 0.5, pair, c)
        h = 1e-4
        fd = (
            solve_smallest(pencil_at(tm_block, 0.5 + h), 1)[0].value
            - solve_smallest(pencil_at(tm_block, 0.5 - h), 1)[0].value
        ) / (2 * h)
        assert abs(dlam / fd - 1.0) <= 1e-5

    def test_multiple_eigenvalue_raises_degeneracy(self):
        pen = dense_pencil(np.eye(2))
        e = np.array([1.0, 0.0])
        pair = Eigenpair(1.0, e, 0.0)
        (failure,) = derivative_at(HomotopyPencil(pen, [pen]), 0.0, pair, pen.mass @ e)
        assert isinstance(failure, DegeneracyError)


def reference_pencil(homotopy, t):
    """The homotopy's (K, M) at t through scipy arithmetic, s K0 + t K1."""
    s = 1.0 - t
    return tuple(
        s * a.tocsr() + t * b.tocsr()
        for a, b in ((homotopy.start.stiffness, homotopy.ends[0].stiffness),
                     (homotopy.start.mass, homotopy.ends[0].mass))
    )


def reference_bordered(K, M, lam, Me, c, pattern):
    """The bordered matrix as sp.bmat assembles it from K - lam M, with every
    entry of the pencil's pattern, M e (given as Me) and c stored, zero or
    not."""
    n = pattern.n
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    kml = (K - lam * M).toarray()[rows, pattern.indices]
    i, zero = np.arange(n), np.zeros(n, dtype=int)
    return sp.bmat(
        [
            [sp.csc_matrix((kml, (rows, pattern.indices)), shape=(n, n)),
             sp.csc_matrix((-Me, (i, zero)), shape=(n, 1))],
            [sp.csc_matrix((c, (zero, i)), shape=(1, n)), None],
        ],
        format="csc",
    )


def rescaled(pencil):
    """An endpoint on the pencil's own pattern: 5/4 of its diagonal and of
    its off-diagonal entries with (i + j) % 3 != 1, stored zeros for the
    rest, and 0.01 more at (0, n-1) and (n-1, 0) where the pattern has them."""
    n, p = pencil.n, pencil.pattern
    keep = (p.rows == p.indices) | ((p.rows + p.indices) % 3 != 1)
    corner = (p.rows + p.indices == n - 1) & ((p.rows == 0) | (p.indices == 0))
    return MatrixPencil(p, *(
        np.where(keep, 1.25 * B.data, 0.0) + np.where(corner, 0.01, 0.0)
        for B in (pencil.stiffness, pencil.mass)
    ), validate=False)


def stored(ref, perm_c):
    """The bordered matrix ref as a layout with column ordering perm_c
    (None before the first factorization) stores it."""
    if perm_c is None:
        return ref
    return ref[:, np.argsort(perm_c)].tocsc()


def forced_zero_case():
    """K stores zeros (one where M has a nonzero entry, one where M stores a
    zero too), K - 2 M cancels on one off-diagonal pair, and e, M e and c
    hold zeros."""
    n = 6
    off = np.arange(n - 1)
    m_off = np.full(n - 1, 0.25)
    k_off = np.array([-1.0, 0.5, 0.0, -1.0, -1.0])   # (1, 2): 0.5 = 2 * 0.25
    rows = np.concatenate([np.arange(n), off, off + 1, [0, n - 1]])
    cols = np.concatenate([np.arange(n), off + 1, off, [n - 1, 0]])
    K, M = (
        sp.csr_matrix((np.concatenate([diag, a, a, [0.0, 0.0]]), (rows, cols)), shape=(n, n))
        for diag, a in ((np.full(n, 4.0), k_off), (np.ones(n), m_off))
    )
    pen = csr_pencil(K, M, validate=False)
    e = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 2.0])
    return pen, 2.0, e, e.copy()


class TestBorderedRefill:
    """The homotopy's refilled pencils and bordered matrices equal scipy's
    s K0 + t K1 and sp.bmat's, bit for bit, on endpoints on one pattern,
    with stored zeros kept.  Up to DENSE_CUTOFF unknowns each factored
    matrix is the dense bordered matrix, unpermuted, and its solves equal
    np.linalg.solve of it; above, it is the CSC matrix and its solves equal
    a default splu's of it, also once the layout reuses the column ordering
    of its first factorization."""

    @pytest.fixture(scope="class")
    def cases(self, tm_block):
        out = {}
        disk = assemble(build_disk_patch(0.05), DiscreteSpace(2, 4), bc="dirichlet")
        par = build_pillbox_pencil(0.05, 0.1, 1, DiscreteSpace(2, 6))
        te = next(b for b in par.blocks if b.family == "TE")
        big = assemble(build_disk_patch(0.05), DiscreteSpace(2, 24), bc="dirichlet")
        assert big.n > DENSE_CUTOFF
        for name, pen in (
            ("disk16", disk),
            ("pillbox-neumann", block_pencil(par.at([0.05]), te)),
            ("homotopy-0.37", pencil_at(tm_block, 0.37)),
            ("disk576-sparse", big),
        ):
            pair = solve_smallest(pen, 2)[1]
            e = pair.vector + 1e-3 * np.linspace(-1.0, 1.0, pen.n)
            out[name] = (pen, pair.value * (1.0 + 1e-3), e, pen.mass @ pair.vector)
        out["forced-zeros"] = forced_zero_case()
        return {
            name: (HomotopyPencil(pen, [rescaled(pen)]), lam, e, c)
            for name, (pen, lam, e, c) in out.items()
        }

    @pytest.mark.parametrize(
        "name", ["disk16", "pillbox-neumann", "homotopy-0.37", "forced-zeros", "disk576-sparse"]
    )
    def test_matches_bmat_bit_for_bit(self, cases, name):
        hom, lam, e, c = cases[name]
        dense = hom.start.n <= DENSE_CUTOFF
        rhs = 1.0 + np.arange(hom.start.n + 1.0)
        layouts = set()
        for t in (0.0, 0.37, 1.0):
            pen, (K, M) = pencil_at(hom, t), reference_pencil(hom, t)
            for got, want in ((pen.stiffness, K), (pen.mass, M)):
                assert np.array_equal(got.toarray(), want.toarray()), t
                # numpy sums each row in another order than scipy's matvec
                top = np.abs(want).max() * np.abs(e).sum()
                assert np.abs(got @ e - want @ e).max() <= 1e-15 * top, t
            # the norms Newton scales its residuals by: the stack's
            stack = hom.at(t, [0])
            norms = (spla.norm(K, np.inf), spla.norm(M, np.inf))
            got_norms = np.concatenate([stack.stiffness.norm_inf(), stack.mass.norm_inf()])
            assert got_norms.tobytes() == np.asarray(norms).tobytes(), t
            Me = pen.mass @ e
            ref = reference_bordered(K, M, lam, Me, c, hom.pattern)
            perm_c = getattr(hom.pattern.bordered, "perm_c", None)
            (lu,) = tracking._factor(stack, [lam], [Me], [c])
            A = lu.matrix
            layouts.add(id(hom.pattern.bordered))
            if dense:
                assert isinstance(A, np.ndarray) and hom.pattern.bordered.perm_c is None
                # equal values; toarray's sum turns a stored -0.0 into 0.0
                assert np.array_equal(A, ref.toarray()), t
                x, _ = lu.solve(rhs)
                assert np.array_equal(x, np.linalg.solve(ref.toarray(), rhs)), t
                continue
            if t == 1.0:   # the rescaled endpoint's stored zeros stay stored
                assert not A.data.all()
            for attr in ("indptr", "indices", "data"):
                got_a, want_a = getattr(A, attr), getattr(stored(ref, perm_c), attr)
                assert got_a.dtype == want_a.dtype, (t, attr)
                assert got_a.tobytes() == want_a.tobytes(), (t, attr)
            x, _ = lu.solve(rhs)
            assert np.array_equal(x, spla.splu(ref).solve(rhs)), t
        assert len(layouts) == 1
        if not dense:   # the first factorization fixed the ordering, the later ones reused it
            assert hom.pattern.bordered.perm_c is not None

    @pytest.mark.parametrize("name", ["disk16", "disk576-sparse"])
    def test_start_record_outlives_later_fills(self, cases, name):
        """Every fill builds a new matrix: a start record's factored matrix
        and its derivative at t = 0 stay as they were, bit for bit, after
        Newton and other factorizations on the same pattern."""
        hom, lam, e, c = cases[name]
        # a start pencil without records on a fresh layout, so the record's
        # matrix is the first on it and the column ordering comes after it
        start = MatrixPencil(hom.pattern, hom.start.stiffness.data, hom.start.mass.data,
                             validate=False)
        hom = HomotopyPencil(start, hom.ends)
        hom.pattern.bordered = None
        record, made = tracking._start_record(start, solve_smallest(start, 1)[0])
        assert made and list(start.starts.values()) == [record]
        A = record.lu.matrix
        kept = [np.array(a, copy=True) for a in
                ((A,) if isinstance(A, np.ndarray) else (A.data, A.indices, A.indptr))]
        derivative, pair = hom.derivative([0]), record.eigenpair
        [before] = eigenpair_derivative(derivative, pair, [record.lu])
        [(_, iters, factorizations)] = newton_correct(
            hom.at(0.01, [0]), [pair.vector], [pair.value], [record.c], 1e-10, 5
        )
        assert iters >= factorizations > 0
        for t in (0.0, 0.37, 1.0):
            tracking._factor(hom.at(t, [0]), [lam], [pencil_at(hom, t).mass @ e], [c])
        [after] = eigenpair_derivative(derivative, pair, [record.lu])
        assert record.lu.matrix is A
        now = (A,) if isinstance(A, np.ndarray) else (A.data, A.indices, A.indptr)
        assert [a.tobytes() for a in now] == [a.tobytes() for a in kept]
        assert before[0].tobytes() == after[0].tobytes() and before[1] == after[1]
        if name == "disk576-sparse":
            assert hom.pattern.bordered.perm_c is not None


class Counting:
    """Module proxy that counts calls of the named attributes."""

    def __init__(self, module, *names):
        self._module = module
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


class TestSolverCalls:
    def test_newton_loop_builds_no_scipy_matrices(self, monkeypatch):
        """A new dense bordered array for every factorization, no scipy
        matrix; one splu per factorization and one back-solve per bordered
        solve, both through the tracker's seam."""
        space = DiscreteSpace(2, 6)
        pens = [assemble(build_disk_patch(r), space, bc="dirichlet") for r in (0.05, 0.06)]
        starts = solve_smallest(pens[0], 2)
        matrices, back_solves = [], []
        seam = tracking.spla.splu

        def splu(A, **options):
            matrices.append(A)
            lu = seam(A, **options)

            def solve(rhs):
                back_solves.append(rhs.size)
                return lu.solve(rhs)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(tracking, "spla", SimpleNamespace(splu=splu))
        (states,) = track_modes(HomotopyPencil(pens[0], [pens[1]]), starts)
        assert len(matrices) > 1 and all(type(A) is np.ndarray for A in matrices)
        # each array is kept alive here, so no two can share an address
        assert len({A.ctypes.data for A in matrices}) == len(matrices)
        assert len(matrices) == sum(st.n_factorizations for st in states)
        assert len(back_solves) == sum(st.n_solves for st in states)


def kept_lapack():
    """The kept-LU routines, or a skip where numpy's build exports none."""
    routines = tracking._lapack()
    if routines is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer getrf and getrs")
    return routines


class TestKeptLU:
    """A dense bordered factorization is one LAPACK getrf, kept for one
    getrs per back-solve; where numpy's build exports no getrf, each
    back-solve is one gesv on the matrix.  Both give the same bits."""

    @pytest.mark.parametrize("n", [65, 326])
    def test_solves_equal_gesv_bit_for_bit(self, n):
        kept_lapack()
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        before = A.copy()
        lu = tracking.spla.splu(A)
        assert isinstance(lu, tracking._DenseLU)
        for rhs in rng.standard_normal((3, n)):
            assert lu.solve(rhs).tobytes() == np.linalg.solve(A, rhs).tobytes()
        assert A.tobytes() == before.tobytes()

    def test_non_square_array_is_refused_before_lapack(self):
        with pytest.raises(ValueError, match="square"):
            tracking._DenseLU(kept_lapack(), np.ones((3, 4)))

    @pytest.mark.parametrize("kept", [True, False], ids=["getrf", "gesv"])
    def test_zero_pivot_raises_degeneracy(self, monkeypatch, kept):
        # row 1 of K - 2 M is zero, and so are (M e)_1 and c_1: the bordered
        # matrix has a zero row, so elimination meets an exactly zero pivot
        pen = dense_pencil(np.diag([1.0, 2.0, 3.0]))
        e = np.array([1.0, 0.0, 0.0])
        if kept:
            kept_lapack()
        else:
            monkeypatch.setattr(tracking, "_lapack", lambda: None)
        (outcome,) = tracking._factor(pen, [2.0], [e], [e])
        # getrf fails in the factorization; without it, gesv does at the solve
        if kept:
            failure = outcome
        else:
            with pytest.raises(DegeneracyError) as raised:
                outcome.solve(np.ones(4))
            failure = raised.value
        assert isinstance(failure, DegeneracyError)
        cause = RuntimeError if kept else np.linalg.LinAlgError
        assert type(failure.__cause__) is cause


class TestStartRecords:
    def test_start_record_serves_every_homotopy_from_its_pencil(self):
        """A second homotopy from one start pencil factors nothing at t = 0,
        and its derivatives there equal a fresh factorization's bit for bit."""
        space = DiscreteSpace(2, 6)
        pens = [assemble(build_disk_patch(r), space, bc="dirichlet") for r in (0.05, 0.055, 0.06)]
        starts = solve_smallest(pens[0], 2)
        for st in track_modes(HomotopyPencil(pens[0], [pens[1]]), starts)[0]:
            assert st.n_factorizations > 0 and st.n_solves > st.n_factorizations
        h = HomotopyPencil(pens[0], [pens[2]])
        for start in starts:
            record, made = tracking._start_record(h.start, start)
            assert not made
            [shared] = eigenpair_derivative(h.derivative([0]), record.eigenpair, [record.lu])
            pair = Eigenpair(record.eigenpair.value, record.eigenpair.vector.copy(), 0.0)
            [fresh] = derivative_at(h, 0.0, pair, record.c.copy())
            assert shared[0].tobytes() == fresh[0].tobytes() and shared[1] == fresh[1]
        # the record's LU computed its norm once, for the first derivative
        for record in pens[0].starts.values():
            A = record.lu.matrix
            assert vars(record.lu)["norm_inf"] == np.abs(A).sum(axis=1).max()

    def test_singular_start_fails_every_end(self):
        """A start pair whose bordered matrix at t = 0 is singular fails every
        end with a DegeneracyError, returned in the end's place, not raised;
        with getrf, its record keeps the refused factorization."""
        pen = dense_pencil(np.eye(2))
        start = Eigenpair(1.0, np.array([1.0, 0.0]), 0.0)
        ends = [dense_pencil(np.diag([1.0, d])) for d in (2.0, 3.0)]
        tracks = track(HomotopyPencil(pen, ends), start)
        assert len(tracks) == 2 and all(isinstance(o, DegeneracyError) for o in tracks)
        (record,) = pen.starts.values()
        if tracking._lapack() is not None:
            assert all(o is record.lu for o in tracks)


class TestPredict:
    def test_zero_step_is_identity(self):
        pen = dense_pencil(np.diag([1.0, 2.0]))
        pair = solve_smallest(pen, 1)[0]
        e, lam = predict(pair, (np.array([0.3, 0.1]), 2.5), 0.0)
        assert lam == pair.value
        np.testing.assert_array_equal(e, pair.vector)

    def test_error_is_second_order_on_radius_leg(self, tm_block):
        mid = pencil_at(tm_block, 0.5)
        pair = solve_smallest(mid, 1)[0]
        c = mid.mass @ pair.vector
        [der] = derivative_at(tm_block, 0.5, pair, c)
        errs = []
        for dt in (0.1, 0.05):
            _, lam_pred = predict(pair, der, dt)
            lam_true = solve_smallest(pencil_at(tm_block, 0.5 + dt), 1)[0].value
            errs.append(abs(lam_pred - lam_true))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


class TestNewton:
    def test_exact_guess_needs_zero_iterations(self):
        pen = dense_pencil(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        pair = solve_smallest(pen, 1)[0]
        c = pen.mass @ pair.vector
        stack = HomotopyPencil(pen, [pen]).at(0.0, [0])
        [(out, iters, _)] = newton_correct(stack, [pair.vector], [pair.value], [c], 1e-10, 8)
        assert iters == 0
        assert out.value == pair.value

    def test_quadratic_convergence(self):
        pen = dense_pencil(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        pair = solve_smallest(pen, 1)[0]
        c = pen.mass @ pair.vector
        rng = np.random.default_rng(3)
        e0 = pair.vector + 1e-2 * rng.standard_normal(2)
        stack = HomotopyPencil(pen, [pen]).at(0.0, [0])
        [(out, iters, _)] = newton_correct(stack, [e0], [pair.value + 1e-2], [c], 1e-14, 10)
        assert 1 <= iters <= 4
        assert abs(out.value - pair.value) <= 1e-12
        assert abs(c @ out.vector - 1.0) <= 1e-12

    def test_iteration_cap_raises_with_count(self):
        pen = dense_pencil(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        pair = solve_smallest(pen, 1)[0]
        c = pen.mass @ pair.vector
        stack = HomotopyPencil(pen, [pen]).at(0.0, [0])
        (failure,) = newton_correct(
            stack, [pair.vector + 5.0], [pair.value + 50.0], [c], 1e-14, 2
        )
        assert isinstance(failure, NewtonFailure) and failure.iterations == 2

    @staticmethod
    def confirming_case():
        # the exact eigenvector with a wrong eigenvalue: the first update
        # lands within tol, and only |dlam| is left to confirm
        pen = dense_pencil(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        pair = solve_smallest(pen, 1)[0]
        stack = HomotopyPencil(pen, [pen]).at(0.0, [0])
        c = pen.mass @ pair.vector
        return pair, (stack, [pair.vector], [1.01 * pair.value], [c], 1e-10, 5)

    def test_confirming_update_reuses_the_last_factorization(self, monkeypatch):
        pair, args = self.confirming_case()
        spla_calls = Counting(tracking.spla, "splu")
        monkeypatch.setattr(tracking, "spla", spla_calls)
        [(out, iters, factorizations)] = newton_correct(*args)
        assert iters == 2
        assert factorizations == spla_calls.calls["splu"] == iters - 1
        assert out.value == pytest.approx(pair.value, rel=1e-14)

    def test_non_finite_confirming_update_fails(self, monkeypatch):
        _, args = self.confirming_case()

        seam = tracking.spla.splu

        def splu(A, **options):
            lu, solves = seam(A, **options), []

            def solve(rhs):
                solves.append(rhs)
                y = lu.solve(rhs)
                return y if len(solves) == 1 else np.full_like(y, np.nan)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(tracking, "spla", SimpleNamespace(splu=splu))
        (failure,) = newton_correct(*args)
        assert isinstance(failure, NewtonFailure) and "non-finite" in str(failure)
        assert failure.iterations == failure.factorizations == 1

    def test_failure_releases_the_pencil_without_cycle_collection(self):
        pen = dense_pencil(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        pair = solve_smallest(pen, 1)[0]
        c = pen.mass @ pair.vector
        stack = HomotopyPencil(pen, [pen]).at(0.0, [0])
        ref = weakref.ref(stack)
        gc.disable()
        try:
            (failure,) = newton_correct(
                stack, [pair.vector + 5.0], [pair.value + 50.0], [c], 1e-14, 2
            )
            assert isinstance(failure, NewtonFailure) and failure.iterations == 2
            del stack
            assert ref() is None
        finally:
            gc.enable()


class TestTrack:
    def test_identity_homotopy_single_step(self):
        pen = assemble(build_disk_patch(0.05), DiscreteSpace(2, 8), bc="dirichlet")
        start = solve_smallest(pen, 1)[0]
        (st,) = track(HomotopyPencil(pen, [pen]), start)
        assert st.t == 1.0
        assert st.newton_log == [0]
        assert st.eigenpair.value == start.value

    def test_radius_leg_reaches_direct_solve(self, tm_block):
        start = solve_smallest(tm_block.start, 1)[0]
        (st,) = track(tm_block, start)
        ref = solve_smallest(tm_block.ends[0], 1)[0].value
        assert abs(st.eigenpair.value / ref - 1.0) <= 1e-8
        assert st.min_overlap > 0.9
        ts = [t for t, _ in st.trajectory]
        assert ts == sorted(ts) and ts[-1] == 1.0
        assert abs(st.c @ st.eigenpair.vector - 1.0) <= 1e-12

    def test_random_pencils_land_on_spectrum(self):
        rng = np.random.default_rng(11)

        def spd(n):
            A = rng.standard_normal((n, n))
            return A @ A.T + n * np.eye(n)

        K0, M0, K1, M1 = spd(50), spd(50), spd(50), spd(50)
        h = HomotopyPencil(dense_pencil(K0, M0), [dense_pencil(K1, M1)])
        ref = la.eigh(K1, M1, eigvals_only=True)
        for start in solve_smallest(h.start, 5):
            lam = track(h, start)[0].eigenpair.value
            assert np.min(np.abs(ref - lam)) <= 1e-9 * abs(lam)

    def test_lone_start_is_never_ritz_projected(self, tm_block, monkeypatch):
        # a lone start is a cluster of one that Newton corrects from its
        # predicted pair: on the radius homotopy, whose eigenvectors do not
        # change, a Rayleigh quotient would leave Newton nothing to do
        def no_ritz(K, M):
            raise AssertionError("a cluster of one was Rayleigh-Ritz projected")

        monkeypatch.setattr(tracking, "_ritz", no_ritz)
        start = solve_smallest(tm_block.start, 1)[0]
        [(st,)] = tracking.track_cluster(tm_block, [start])
        ref = solve_smallest(tm_block.ends[0], 1)[0].value
        assert abs(st.eigenpair.value / ref - 1.0) <= 1e-8
        assert st.t == 1.0 and min(st.newton_log) >= 1
        rng = np.random.default_rng(11)
        K0, M0, K1, M1 = (A @ A.T + 50 * np.eye(50) for A in rng.standard_normal((4, 50, 50)))
        h = HomotopyPencil(dense_pencil(K0, M0), [dense_pencil(K1, M1)])
        ref = la.eigh(K1, M1, eigvals_only=True)
        for start in solve_smallest(h.start, 3):
            [(st,)] = tracking.track_cluster(h, [start])
            lam = st.eigenpair.value
            assert st.t == 1.0 and np.min(np.abs(ref - lam)) <= 1e-9 * abs(lam)

    def test_bad_start_rejected(self, tm_block):
        n = tm_block.start.n
        junk = Eigenpair(1.0, np.ones(n), 1.0)
        with pytest.raises(DomainError):
            track(tm_block, junk)


class TestStepControl:
    def test_growth_by_eta1_on_easy_path(self, tm_block):
        start = solve_smallest(tm_block.start, 1)[0]
        (st,) = track(tm_block, start, TrackConfig(initial_step=0.01))
        dts = np.diff([t for t, _ in st.trajectory])
        ratios = dts[1:4] / dts[:3]
        np.testing.assert_allclose(ratios, 1.1, rtol=1e-12)

    def test_rejection_and_shrink_on_fast_rotation(self):
        # eigenvectors rotate 1.4 rad over the homotopy; a full step converges
        # onto the wrong branch in 4 iterations, so n2=2 forces rejections
        K0 = np.diag([1.0, 10.0])
        R = rotation(1.4)
        h = HomotopyPencil(dense_pencil(K0), [dense_pencil(R @ K0 @ R.T)])
        start = solve_smallest(h.start, 1)[0]
        cfg = TrackConfig(n1=1, n2=2, initial_step=1.0)
        (st,) = track(h, start, cfg)
        assert st.n_rejects >= 1
        assert all(i <= 2 for i in st.newton_log)
        assert st.eigenpair.value == pytest.approx(1.0, rel=1e-10)
        assert st.min_overlap > 0.9

    def test_step_underflow_carries_last_state(self):
        K0 = np.diag([1.0, 10.0])
        R = rotation(1.4)
        h = HomotopyPencil(dense_pencil(K0), [dense_pencil(R @ K0 @ R.T)])
        start = solve_smallest(h.start, 1)[0]
        (failure,) = track(h, start, TrackConfig(n1=1, n2=2, initial_step=1.0, min_step=0.5))
        assert isinstance(failure, TrackingFailure)
        state = failure.state
        assert isinstance(state, TrackState)
        assert state.t == 0.0
        assert state.eigenpair.value == pytest.approx(start.value)


class TestTrackModes:
    def test_degenerate_pair_warned_and_flagged(self):
        space = DiscreteSpace(2, 12)
        par = build_pillbox_pencil(0.05, 0.1, 1, space)
        b0 = par.blocks[0]
        h = HomotopyPencil(
            block_pencil(par.at([0.05]), b0), [block_pencil(par.at([0.06]), b0)]
        )
        starts = solve_smallest(h.start, 3)
        with pytest.warns(UserWarning, match="degenerate"):
            (states,) = track_modes(h, starts)
        assert [s.flagged for s in states] == [False, True, True]
        M = h.ends[0].mass
        g = states[1].eigenpair.vector @ (M @ states[2].eigenpair.vector)
        assert abs(g) <= 1e-8
        ref = [p.value for p in solve_smallest(h.ends[0], 3)]
        for st, r in zip(states, ref):
            assert abs(st.eigenpair.value / r - 1.0) <= 1e-8

    def test_endpoint_pencils_are_left_unchanged(self):
        space = DiscreteSpace(2, 8)
        pens = [assemble(build_disk_patch(r), space, bc="dirichlet") for r in (0.05, 0.06)]
        before = [vars(p).copy() for p in pens]
        track_modes(HomotopyPencil(pens[0], [pens[1]]), solve_smallest(pens[0], 2))
        for pen, old in zip(pens, before):
            assert vars(pen).keys() == old.keys()
            assert all(vars(pen)[k] is v for k, v in old.items())

    def test_isolated_modes_do_not_warn(self):
        pen0 = dense_pencil(np.diag([1.0, 2.0, 4.0]))
        pen1 = dense_pencil(np.diag([1.5, 2.5, 4.5]))
        h = HomotopyPencil(pen0, [pen1])
        starts = solve_smallest(pen0, 3)
        import warnings

        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            (states,) = track_modes(h, starts)
        assert not [w for w in record if issubclass(w.category, UserWarning)]
        assert [s.flagged for s in states] == [False, False, False]



def avoided_crossing(seed=5, perturbation=0.0):
    """An 8 x 8 homotopy in a random orthonormal basis whose modes 0 and 1
    nearly cross: their diagonal entries cross at t = 1e-3, where a 1e-5
    coupling leaves a gap of 2e-5.  perturbation scales a random symmetric
    matrix added to the end."""
    n = 8
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A0 = np.diag([1.0, 1.001] + [float(k) for k in range(2, n)])
    A1 = np.diag([1.5, 0.501] + [k + 0.3 for k in range(2, n)])
    for A in (A0, A1):
        A[0, 1] = A[1, 0] = 1e-5
    A1[0, 2] = A1[2, 0] = A1[1, 2] = A1[2, 1] = 0.05
    B = perturbation * rng.standard_normal((n, n))
    A1 += B + B.T
    return HomotopyPencil(dense_pencil(Q @ A0 @ Q.T), [dense_pencil(Q @ A1 @ Q.T)])


def never_mixing(homotopy, pairs):
    """A mixing stand-in: no neighbour pair mixes at any end."""
    return [[False] * (len(pairs) - 1) for _ in homotopy.ends]


def end_gram(homotopy, states):
    E = np.column_stack([st.eigenpair.vector for st in states])
    return E.T @ (homotopy.ends[0].mass @ E)


class TestClusters:
    def test_avoided_crossing_is_one_cluster(self):
        h = avoided_crossing()
        starts = solve_smallest(h.start, 2)
        alone = [track(h, start)[0] for start in starts]
        # the first step jumps the avoided crossing: tracked alone, the
        # two modes end in swapped order
        assert alone[0].eigenpair.value > alone[1].eigenpair.value
        (states,) = track_modes(h, starts)
        assert [st.cluster for st in states] == [(0, 1), (0, 1)]
        ref = la.eigh(h.ends[0].stiffness.toarray(), eigvals_only=True)[:2]
        np.testing.assert_allclose([st.eigenpair.value for st in states], ref, rtol=1e-12)
        assert abs(end_gram(h, states)[0, 1]) <= 1e-12
        assert sum(st.n_solves for st in states) < sum(st.n_solves for st in alone)
        assert all(st.t == 1.0 and not st.retracked for st in states)

    def test_identity_is_value_order(self):
        # one Ritz pair per member at every accepted t, lowest first
        h = avoided_crossing()
        (states,) = track_modes(h, solve_smallest(h.start, 2))
        for (t0, low), (t1, high) in zip(states[0].trajectory, states[1].trajectory):
            assert t0 == t1 and low < high

    def test_step_with_collapsed_corrections_is_rejected(self):
        # on this homotopy the full first step corrects two Ritz pairs onto
        # one eigenpair; the step is rejected, and the shorter ones end on
        # the three lowest eigenpairs
        h = avoided_crossing(seed=11, perturbation=0.3)
        (states,) = tracking.track_cluster(h, solve_smallest(h.start, 3))
        assert [st.n_rejects for st in states] == [1, 1, 1]
        G = end_gram(h, states)
        assert np.abs(G - np.diag(np.diag(G))).max() <= tracking.ORTHO_TOL
        ref = la.eigh(h.ends[0].stiffness.toarray(), eigvals_only=True)[:3]
        np.testing.assert_allclose([st.eigenpair.value for st in states], ref, rtol=1e-12)

    def test_cluster_step_underflow_carries_last_state(self):
        # a tolerance below rounding rejects every step, and the second
        # rejection takes the shared step below min_step
        h = avoided_crossing()
        starts = solve_smallest(h.start, 2)
        cfg = TrackConfig(newton_tol=1e-300, min_step=0.5)
        (failure,) = track_modes(h, starts, cfg)
        assert isinstance(failure, TrackingFailure)
        assert str(failure).startswith("step underflow at t=0.000000")
        state = failure.state
        assert isinstance(state, TrackState)
        assert state.t == 0.0 and state.newton_log == [] and state.n_rejects == 2
        assert state.eigenpair.value == pytest.approx(starts[0].value)

    @pytest.mark.parametrize("family", ["TM", "TE"])
    def test_pillbox_radius_homotopy_forms_no_cluster(self, family):
        # the radius scales the cross-section: |D_aa - D_bb| is |s| times the
        # gap with |s| < 1, and D_ab is rounding, also for the exactly
        # degenerate TM110 and TE111 pairs
        par = build_pillbox_pencil(0.05, 0.1, 1, DiscreteSpace(2, 12))
        block = next(b for b in par.blocks if (b.family, b.axial) == (family, 1))
        base = block_pencil(par.base, block)
        section = par.base[family]
        starts = [
            Eigenpair(p.value + block.axial_shift, p.vector, p.residual)
            for p in solve_smallest(section, 4) if not pencil_mod.is_spurious(p, section)
        ]
        for r in (0.04, 0.06):
            h = HomotopyPencil(base, [block_pencil(par.at([r]), block)])
            assert not any(tracking.mixing(h, starts)[0])
            with pytest.warns(UserWarning, match="degenerate"):
                (states,) = track_modes(h, starts)
            assert all(st.cluster == () for st in states)
            assert sum(st.flagged for st in states) == 2

    def test_forced_collision_is_retracked(self, monkeypatch):
        h = avoided_crossing(seed=19, perturbation=0.1)
        starts = solve_smallest(h.start, 2)
        alone = [track(h, start)[0] for start in starts]
        assert abs(end_gram(h, alone)[0, 1]) > 0.99
        monkeypatch.setattr(tracking, "mixing", never_mixing)
        (states,) = track_modes(h, starts)
        assert all(st.retracked and st.cluster == (0, 1) for st in states)
        assert abs(end_gram(h, states)[0, 1]) <= tracking.ORTHO_TOL
        ref = la.eigh(h.ends[0].stiffness.toarray(), eigvals_only=True)
        values = [st.eigenpair.value for st in states]
        assert values[0] < values[1]
        assert all(np.min(np.abs(ref - v)) <= 1e-12 * v for v in values)
        # the first attempt's work stays counted
        for st, first in zip(states, alone):
            assert st.n_solves > first.n_solves
            assert st.newton_log[:len(first.newton_log)] == first.newton_log

    def test_collision_after_retrack_fails(self, monkeypatch):
        h = avoided_crossing(seed=19, perturbation=0.1)
        monkeypatch.setattr(tracking, "mixing", never_mixing)
        loop = tracking.track_cluster
        # the one end's members tracked alone, each by a homotopy of its own
        monkeypatch.setattr(
            tracking, "track_cluster",
            lambda homotopy, starts, cfg: [[loop(homotopy, [s], cfg)[0][0] for s in starts]],
        )
        (failure,) = track_modes(h, solve_smallest(h.start, 2))
        assert isinstance(failure, TrackingFailure)
        assert "one eigenpair after re-tracking" in str(failure)


def same_track(batch, alone):
    """A batch end's TrackState against the single homotopy's: values to
    1e-13 relative, the same steps, Newton iterations and counts."""
    assert batch.t == alone.t
    assert [t for t, _ in batch.trajectory] == [t for t, _ in alone.trajectory]
    np.testing.assert_allclose(
        [lam for _, lam in batch.trajectory], [lam for _, lam in alone.trajectory], rtol=1e-13
    )
    np.testing.assert_allclose(batch.eigenpair.vector, alone.eigenpair.vector, rtol=1e-13,
                               atol=1e-13 * np.abs(alone.eigenpair.vector).max())
    assert batch.newton_log == alone.newton_log
    for name in ("n_solves", "n_factorizations", "n_rejects", "cluster", "retracked", "flagged"):
        assert getattr(batch, name) == getattr(alone, name), name


class TestBatch:
    """A homotopy with B ends tracks each end as B single-end homotopies
    would: the same values, M-orthonormal vectors and counts, a rejection
    or failure staying with its end."""

    # end k rotates the start's eigenvectors by ANGLES[k]: under CFG, end 1
    # rejects its first step, end 2 fails after accepting part of the way,
    # and end 3 takes three rejections
    ANGLES = (0.05, 0.5, 1.0, 0.8, 1.4)
    CFG = TrackConfig(n1=2, n2=4, initial_step=1.0, min_step=0.2)

    @classmethod
    def rotated_ends(cls):
        K0 = np.diag([1.0, 10.0])
        return K0, [dense_pencil(rotation(a) @ K0 @ rotation(a).T) for a in cls.ANGLES]

    def test_lone_track_equals_single_homotopies(self):
        K0, ends = self.rotated_ends()
        singles, batched = dense_pencil(K0), dense_pencil(K0)   # each keeps its own records
        start = solve_smallest(singles, 1)[0]
        alone = [track(HomotopyPencil(singles, [end]), start, self.CFG)[0] for end in ends]
        tracks = track(HomotopyPencil(batched, ends), start, self.CFG)
        assert isinstance(tracks, tracking.Tracks) and len(tracks) == len(ends)
        assert isinstance(tracks[2], TrackingFailure) and isinstance(alone[2], TrackingFailure)
        assert str(tracks[2]) == str(alone[2]) and tracks[2].state.t == alone[2].state.t > 0.0
        # end 1's first step was rejected: its first accepted t is short of 1
        assert tracks[1].n_rejects >= 1 and tracks[1].trajectory[1][0] < 1.0
        for k in (0, 1, 3, 4):
            assert tracks[k].t == 1.0
            same_track(tracks[k], alone[k])
            e = tracks[k].eigenpair.vector
            assert abs(e @ (ends[k].mass @ e) - 1.0) <= 1e-13
        # read as one state, the tracks sum their ends' statistics
        done = [alone[k] for k in (0, 1, 3, 4)]
        assert tracks.n_solves == sum(st.n_solves for st in done)
        assert tracks.n_rejects == sum(st.n_rejects for st in done)
        assert tracks.newton_log == [it for st in done for it in st.newton_log]
        assert tracks.min_overlap == min(st.min_overlap for st in done)

    def test_track_modes_equals_single_homotopies(self):
        # a cluster and a lone mode, with the next pair as partner, at ends
        # of growing perturbation: each end as its own homotopy
        base = avoided_crossing()
        ends = [avoided_crossing(perturbation=p).ends[0] for p in (0.0, 0.02, 0.05)]
        singles = dense_pencil(base.start.stiffness.toarray())
        batched = dense_pencil(base.start.stiffness.toarray())
        pairs = solve_smallest(singles, 4)
        starts, partner = pairs[:3], pairs[3]
        alone = [
            track_modes(HomotopyPencil(singles, [end]), starts, partner=partner)[0]
            for end in ends
        ]
        batch = track_modes(HomotopyPencil(batched, ends), starts, partner=partner)
        assert len(batch) == len(ends) and all(st.cluster for st in batch[0][:2])
        for k, end in enumerate(ends):
            assert len(batch[k]) == len(starts)
            for got, want in zip(batch[k], alone[k]):
                same_track(got, want)
            E = np.column_stack([st.eigenpair.vector for st in batch[k]])
            np.testing.assert_allclose(E.T @ (end.mass @ E), np.eye(3), atol=1e-10)

    def test_failure_stays_with_its_end(self, monkeypatch):
        # a singular bordered system at one end's derivative fails that end
        # alone; the others finish as they would alone
        K0, ends = self.rotated_ends()
        start_pencil = dense_pencil(K0)
        start = solve_smallest(start_pencil, 1)[0]
        hom = HomotopyPencil(start_pencil, ends)
        derivatives = tracking.eigenpair_derivative
        # end 3's row of every derivative stack that holds it
        end_3 = hom.derivative([3])[0].data[0]

        def singular_at_end_3(derivative, pair, lus):
            out = derivatives(derivative, pair, lus)
            for k, row in enumerate(derivative[0].data):
                if np.array_equal(row, end_3):
                    out[k] = DegeneracyError("injected")
            return out

        monkeypatch.setattr(tracking, "eigenpair_derivative", singular_at_end_3)
        tracks = track(hom, start)
        assert str(tracks[3]) == "injected"
        assert all(tracks[k].t == 1.0 for k in (0, 1, 2, 4))

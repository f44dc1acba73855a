"""Galerkin assembly of stiffness and mass matrices on a mapped patch.

Scalar Helmholtz bilinear forms are integrated in the parametric square:
gradients are pulled back with the inverse Jacobian transpose and volume
elements carry ``|det J|``.  Quadrature is (p+1)-point Gauss-Legendre per
direction on every cell of the merged field/geometry breakpoint grid.

Everything that does not depend on the map is built once per space,
geometry breakpoint grid and boundary condition, and kept on the space (see
DiscreteSpace.kernel): the quadrature rule, the local shape and gradient
products, one CSR sparsity pattern with the Dirichlet rows and columns
already left out, and the map that scatters local entries into its data.
An assembly is then the Jacobians at the quadrature points, the metric, two
batched local products and a data-only scatter, so every pencil assembled on
one space shares one pattern, K and M alike.  Matrices are data on that
pattern (PatternMatrix), with a numpy product: nothing here imports scipy.
"""

from functools import cached_property

import numpy as np

from .errors import AssemblyError, DomainError
from .splines import BSplineBasis, uniform_open_knots

BC_KINDS = ("dirichlet", "neumann")


class DiscreteSpace:
    """Tensor-product B-spline field space on the parametric unit square.

    Fields live upstream of the geometry map: a coefficient vector is paired
    with the plain spline basis here and composed with the patch inverse, so
    one space serves every deformed configuration of the same patch.
    """

    def __init__(self, degree, n_elements):
        if int(degree) != degree or degree < 1:
            raise DomainError(f"polynomial degree must be a positive integer, got {degree}")
        if np.isscalar(n_elements):
            n_elements = (n_elements, n_elements)
        if len(n_elements) != 2 or any(int(n) != n or n < 1 for n in n_elements):
            raise DomainError(f"bad element counts {n_elements!r}")
        self.degree = int(degree)
        self.n_elements = tuple(int(n) for n in n_elements)
        self.bases = tuple(
            BSplineBasis(uniform_open_knots(self.degree, n), self.degree)
            for n in self.n_elements
        )
        self._kernels = {}

    @property
    def shape(self):
        return tuple(b.n_basis for b in self.bases)

    @property
    def n_dofs(self):
        nu, nv = self.shape
        return nu * nv

    def kernel(self, geo_bases, bc):
        """The assembly kernel for maps on geo_bases' breakpoints, built on
        first use and kept: every map of a study shares its pattern."""
        if bc not in BC_KINDS:
            raise DomainError(f"unknown boundary condition {bc!r}; expected one of {BC_KINDS}")
        key = (bc,) + tuple(b.kv.breakpoints.tobytes() for b in geo_bases)
        if key not in self._kernels:
            self._kernels[key] = _Kernel(self, geo_bases, bc)
        return self._kernels[key]


def boundary_dofs(space):
    """Flat indices i * n_v + j, ascending, of the basis functions (i, j)
    with nonzero trace on the patch boundary (u = 0, u = 1, v = 0 or v = 1)."""
    on_boundary = np.zeros(space.shape, dtype=bool)
    on_boundary[[0, -1], :] = True
    on_boundary[:, [0, -1]] = True
    return np.flatnonzero(on_boundary)


class SparsityPattern:
    """Canonical CSR index arrays of square matrices that differ only in data.

    Every row holds an entry: a pencil's mass matrix has a positive
    diagonal.  Every pencil assembled by one kernel is stored on its
    pattern, and so is every pencil a homotopy between them gives.  bordered
    is the tracker's bordered system on the pattern (tracking._Bordered),
    made by its first factorization there and shared by every later one.
    """

    def __init__(self, indptr, indices):
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.n = self.indptr.size - 1
        if not (np.diff(self.indptr) > 0).all():
            raise DomainError("sparsity pattern has an empty row")
        self.bordered = None

    def matrix(self, data):
        return PatternMatrix(self, data)

    @cached_property
    def rows(self):
        """The row of each entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def transpose(self):
        """Position of each entry's transpose, for a symmetric pattern: the
        entries in (column, row) order."""
        return np.argsort(self.indices.astype(np.intp) * self.n + self.rows)


class PatternMatrix:
    """A square matrix: data in its SparsityPattern's CSR entry order, or
    a stack of them, one matrix per row of 2-D data.

    A @ x takes a vector; a stack takes one vector per matrix, the rows of
    x.  Each row's products are summed by np.add.reduceat, the fastest numpy
    kernel measured against a bincount by row and rows padded to one width.
    A stack's reduceat runs along its rows: the sums of each matrix alone,
    in the same order.
    """

    def __init__(self, pattern, data):
        self.pattern = pattern
        self.data = data

    @property
    def shape(self):
        return (self.pattern.n, self.pattern.n)

    def __matmul__(self, x):
        x = np.asarray(x)
        p = self.pattern
        if self.data.ndim == 2:
            return stacked_products(x, self)[0]
        return np.add.reduceat(self.data * x[p.indices], p.indptr[:-1])

    def toarray(self):
        A = np.zeros(self.shape)
        A[self.pattern.rows, self.pattern.indices] = self.data
        return A

    def tocsr(self):
        """The scipy CSR matrix on this data, for the sparse tier's
        eigensolver and bench's Lanczos solves; imports scipy."""
        import scipy.sparse as sp

        p = self.pattern
        return sp.csr_matrix((self.data, p.indices, p.indptr), shape=self.shape)

    def norm_inf(self):
        """The largest absolute row sum, bit for bit scipy's spla.norm(A, inf).

        That is abs(A).sum(axis=1).max() in scipy: the same np.add.reduceat
        over the non-empty rows gives the same bits.  numpy sums each row
        pairwise, so a stored zero could move the last bit; zeros are
        dropped first.  A stack gives one norm per matrix.
        """
        data, indptr = self.data, self.pattern.indptr
        if data.ndim == 2:
            if data.all():   # every row of a pattern holds an entry
                return np.add.reduceat(np.abs(data), indptr[:-1], axis=1).max(axis=1)
            return np.array([self.pattern.matrix(row).norm_inf() for row in data])
        if not data.all():
            keep = data != 0.0
            data = data[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        if not data.size:
            return 0.0
        starts = indptr[:-1][np.diff(indptr) > 0]
        return np.add.reduceat(np.abs(data), starts).max()


def stacked_products(x, *stacks):
    """A @ x for each stack A of matrices on one pattern (PatternMatrix
    with 2-D data), row i of x multiplying matrix i: x is gathered once for
    them all."""
    p = stacks[0].pattern
    gathered = x[:, p.indices]
    return [np.add.reduceat(A.data * gathered, p.indptr[:-1], axis=1) for A in stacks]


class MatrixPencil:
    """Symmetric (K, M) pair of matrices with data k_data and m_data on one
    SparsityPattern.

    Validation needs a symmetric pattern.  starts holds the tracker's start
    records of the homotopies that start at this pencil
    (tracking._start_record), kept with the pencil, whose data must then
    stay as they are.
    """

    def __init__(self, pattern, k_data, m_data, validate=True):
        if pattern.n == 0:
            raise DomainError("empty pencil; the space has no retained DOFs")
        self.stiffness = pattern.matrix(k_data)
        self.mass = pattern.matrix(m_data)
        self.pattern = pattern
        self.starts = {}
        if validate:
            self._validate()

    def _validate(self):
        # a symmetric pattern's A^T is a gather of A's data
        for name, A in (("K", self.stiffness), ("M", self.mass)):
            skew = np.abs(A.data - A.data[self.pattern.transpose]).max(initial=0.0)
            if skew > 1e-12 * np.abs(A.data).max(initial=0.0):
                raise DomainError(f"{name} is not symmetric: |A-A^T| = {skew:.3e}")
        diagonal = self.pattern.rows == self.pattern.indices
        if diagonal.sum() < self.n or self.mass.data[diagonal].min() <= 0.0:
            raise DomainError("mass matrix has a nonpositive diagonal entry")

    @property
    def n(self):
        return self.pattern.n


class _DirectionRule:
    """Per-direction quadrature cells, stacked into arrays.

    ``nodes`` and ``weights`` have shape (n_cells, p + 1); ``first`` is each
    cell's first active field function; ``table[k, c, i]`` holds the k-th
    derivatives (k = 0, 1) of the p + 1 active functions at ``nodes[c, i]``.
    """

    def __init__(self, basis, geo_breaks):
        # sorted, each value once; np.unique would load numpy.ma
        merged = np.sort(np.concatenate([basis.kv.breakpoints, geo_breaks]))
        merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        keep = [merged[0]]
        for x in merged[1:]:
            if x - keep[-1] > 1e-12:
                keep.append(x)
        keep = np.array(keep)
        p = basis.degree
        xg, wg = np.polynomial.legendre.leggauss(p + 1)
        mid, half = 0.5 * (keep[:-1] + keep[1:]), 0.5 * (keep[1:] - keep[:-1])
        self.nodes = mid[:, None] + half[:, None] * xg
        self.weights = half[:, None] * wg
        # Gauss nodes lie inside their cell, so a cell's nodes share a span
        spans, ders = basis.eval_basis_derivatives(self.nodes.ravel(), 1)
        self.first = spans[:: p + 1] - p
        self.table = ders.reshape(2, *self.nodes.shape, p + 1)


class _Kernel:
    """Assembly on one space for maps on one breakpoint grid, one bc.

    us and vs are the quadrature nodes per direction: a map's Jacobians on
    the grid us x vs are all an assembly needs of it.  Local matrices have
    axes (cell, local function a * (p + 1) + b, same).  The scatter adds
    the local entries that land on one matrix entry in the order of the
    local matrices: order lists the entries a Dirichlet row or column does
    not drop, stably sorted by (row, column), and slot gives each its place
    in pattern's data.
    """

    def __init__(self, space, geo_bases, bc):
        for s, g in zip(space.bases, geo_bases):
            if s.kv.domain != g.kv.domain:
                raise DomainError("field space and geometry live on different parameter domains")
        self.rules = tuple(
            _DirectionRule(s, g.kv.breakpoints) for s, g in zip(space.bases, geo_bases)
        )
        rule_u, rule_v = self.rules
        self.us, self.vs = rule_u.nodes.ravel(), rule_v.nodes.ravel()
        nloc1 = space.degree + 1
        nloc = npts = nloc1 * nloc1    # local functions and quadrature points per cell
        self.cells = (rule_u.first.size, rule_v.first.size)
        n_cells = self.cells[0] * self.cells[1]
        # axes (cell_u, cell_v, node_u, node_v): cells outer, points inner
        self.weight = np.einsum("ai,bj->abij", rule_u.weights, rule_v.weights)

        # (cell, point, local function)
        def local(fu, fv):
            return np.einsum("aik,bjl->abijkl", fu, fv).reshape(n_cells, npts, nloc)

        (vals_u, ders_u), (vals_v, ders_v) = rule_u.table, rule_v.table
        self.values = local(vals_u, vals_v)
        self.grad = np.stack([local(ders_u, vals_v), local(vals_u, ders_v)], axis=2)
        # per cell, sum over (point, direction) pairs
        self.grad_t = self.grad.reshape(n_cells, 2 * npts, nloc).swapaxes(1, 2)

        local_idx = np.arange(nloc1)
        idx = (
            (rule_u.first[:, None, None, None] + local_idx[:, None]) * space.shape[1]
            + (rule_v.first[:, None] + local_idx)[None, :, None, :]
        ).reshape(n_cells, nloc)
        rows = np.broadcast_to(idx[:, :, None], (n_cells, nloc, nloc)).ravel()
        cols = np.broadcast_to(idx[:, None, :], (n_cells, nloc, nloc)).ravel()
        kept = np.ones(space.n_dofs, dtype=bool)
        if bc == "dirichlet":
            kept[boundary_dofs(space)] = False
        number = np.where(kept, np.cumsum(kept) - 1, -1)
        rows, cols = number[rows], number[cols]
        n = int(kept.sum())
        inside = np.flatnonzero((rows >= 0) & (cols >= 0))
        key = rows[inside] * n + cols[inside]
        by_key = np.argsort(key, kind="stable")
        self.order = inside[by_key]
        keys, self.slot = np.unique(key[by_key], return_inverse=True)
        self.pattern = SparsityPattern(np.searchsorted(keys, np.arange(n + 1) * n), keys % n)

    def pencil(self, J):
        """The pencil of a map with Jacobians J on the grid us x vs."""
        rule_u, rule_v = self.rules
        (cells_u, cells_v), nloc1 = self.cells, rule_u.nodes.shape[1]
        J = J.reshape(cells_u, nloc1, cells_v, nloc1, 2, 2).transpose(0, 2, 1, 3, 4, 5)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        bad = ~(np.isfinite(det) & (det > 0.0))
        if bad.any():
            cu, cv, iu, iv = np.unravel_index(np.argmax(bad), bad.shape)
            raise AssemblyError(
                f"Jacobian determinant {det[cu, cv, iu, iv]:.3e} at quadrature point "
                f"({rule_u.nodes[cu, iu]:.6f}, {rule_v.nodes[cv, iv]:.6f})"
            )
        # w det J^-1 J^-T = (w / det) adj(J) adj(J)^T
        adj = np.stack(
            [J[..., 1, 1], -J[..., 0, 1], -J[..., 1, 0], J[..., 0, 0]], axis=-1
        ).reshape(J.shape)
        metric = (self.weight / det)[..., None, None] * (adj @ np.swapaxes(adj, -1, -2))
        n_cells, npts, _, nloc = self.grad.shape
        flux = metric.reshape(n_cells, npts, 2, 2) @ self.grad
        k_loc = self.grad_t @ flux.reshape(n_cells, 2 * npts, nloc)
        vol = (self.weight * det).reshape(n_cells, npts, 1)
        m_loc = (vol * self.values).swapaxes(1, 2) @ self.values
        nnz = self.pattern.indices.size
        k, m = (
            np.bincount(self.slot, weights=A.ravel()[self.order], minlength=nnz)
            for A in (k_loc, m_loc)
        )
        return MatrixPencil(self.pattern, k, m, validate=True)


def assemble(geom, space, bc="dirichlet"):
    """Assembled pencil with the requested boundary treatment.

    Dirichlet rows and columns are eliminated outright; Neumann is the
    natural condition and keeps every DOF.  geom needs only bases and
    jacobian_grid, so a deformed map that gives its Jacobians as an axpy of
    fields (geometry.deform) is assembled like any other map.  A Jacobian
    determinant that is not positive at a quadrature point raises
    AssemblyError.
    """
    kernel = space.kernel(geom.bases, bc)
    _, J = geom.jacobian_grid(kernel.us, kernel.vs)
    return kernel.pencil(J)

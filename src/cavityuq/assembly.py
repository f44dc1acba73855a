"""Galerkin assembly of stiffness and mass matrices on a mapped patch.

Scalar Helmholtz bilinear forms are integrated in the parametric square:
gradients are pulled back with the inverse Jacobian transpose and volume
elements carry ``|det J|``.  Quadrature is (p+1)-point Gauss-Legendre per
direction on every cell of the merged field/geometry breakpoint grid.

All cells are integrated in one batch: the Jacobians at every quadrature
point come from one tensor-grid evaluation of the geometry, and the local
matrices of all cells from one batched product each, scattered once.
"""

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, DomainError, SingularityError
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

    @property
    def shape(self):
        return tuple(b.n_basis for b in self.bases)

    @property
    def n_dofs(self):
        nu, nv = self.shape
        return nu * nv


def boundary_dofs(space):
    """Flat indices i * n_v + j, ascending, of the basis functions (i, j)
    with nonzero trace on the patch boundary (u = 0, u = 1, v = 0 or v = 1)."""
    on_boundary = np.zeros(space.shape, dtype=bool)
    on_boundary[[0, -1], :] = True
    on_boundary[:, [0, -1]] = True
    return np.flatnonzero(on_boundary)


class MatrixPencil:
    """Symmetric (K, M) pair of CSR matrices."""

    def __init__(self, stiffness, mass, validate=True):
        K, M = (A if isinstance(A, sp.csr_matrix) else sp.csr_matrix(A) for A in (stiffness, mass))
        if K.shape != M.shape or K.shape[0] != K.shape[1]:
            raise DomainError(f"pencil shapes disagree: {K.shape} vs {M.shape}")
        if K.shape[0] == 0:
            raise DomainError("empty pencil; the space has no retained DOFs")
        if validate:
            for name, A in (("K", K), ("M", M)):
                skew = abs(A - A.T)
                top = abs(A).max()
                if skew.nnz and skew.max() > 1e-12 * top:
                    raise DomainError(f"{name} is not symmetric: |A-A^T| = {skew.max():.3e}")
            if M.diagonal().min() <= 0.0:
                raise DomainError("mass matrix has a nonpositive diagonal entry")
        self.stiffness = K
        self.mass = M

    @property
    def n(self):
        return self.stiffness.shape[0]


class _DirectionRule:
    """Per-direction quadrature cells, stacked into arrays.

    ``nodes`` and ``weights`` have shape (n_cells, p + 1); ``first`` is each
    cell's first active field function; ``table[k, c, i]`` holds the k-th
    derivatives (k = 0, 1) of the p + 1 active functions at ``nodes[c, i]``.
    """

    def __init__(self, basis, geo_breaks):
        merged = np.unique(np.concatenate([basis.kv.breakpoints, geo_breaks]))
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


def assemble_full(geom, space):
    """Assemble (K, M) on the whole tensor space, no boundary conditions."""
    du = geom.bases[0].kv.domain
    ds = space.bases[0].kv.domain
    if du != ds or geom.bases[1].kv.domain != space.bases[1].kv.domain:
        raise DomainError("field space and geometry live on different parameter domains")
    rule_u = _DirectionRule(space.bases[0], geom.bases[0].kv.breakpoints)
    rule_v = _DirectionRule(space.bases[1], geom.bases[1].kv.breakpoints)
    p = space.degree
    nloc1 = p + 1
    nloc = nloc1 * nloc1    # local functions per cell
    npts = nloc1 * nloc1    # quadrature points per cell
    cells_u, cells_v = rule_u.first.size, rule_v.first.size
    n_cells = cells_u * cells_v

    try:
        _, J = geom.jacobian_grid(rule_u.nodes.ravel(), rule_v.nodes.ravel())
    except SingularityError as exc:
        raise AssemblyError(str(exc)) from exc
    # axes (cell_u, cell_v, node_u, node_v): cells outer, points inner
    J = J.reshape(cells_u, nloc1, cells_v, nloc1, 2, 2).transpose(0, 2, 1, 3, 4, 5)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        cu, cv, iu, iv = np.unravel_index(np.argmax(bad), bad.shape)
        raise AssemblyError(
            f"Jacobian determinant {det[cu, cv, iu, iv]:.3e} at quadrature point "
            f"({rule_u.nodes[cu, iu]:.6f}, {rule_v.nodes[cv, iv]:.6f})"
        )
    weight = np.einsum("ai,bj->abij", rule_u.weights, rule_v.weights)
    # w det J^-1 J^-T = (w / det) adj(J) adj(J)^T
    adj = np.stack(
        [J[..., 1, 1], -J[..., 0, 1], -J[..., 1, 0], J[..., 0, 0]], axis=-1
    ).reshape(J.shape)
    metric = (weight / det)[..., None, None] * (adj @ np.swapaxes(adj, -1, -2))

    # (cell, point, local function a * (p + 1) + b)
    def local(fu, fv):
        return np.einsum("aik,bjl->abijkl", fu, fv).reshape(n_cells, npts, nloc)

    (vals_u, ders_u), (vals_v, ders_v) = rule_u.table, rule_v.table
    shape = local(vals_u, vals_v)
    grad = np.stack([local(ders_u, vals_v), local(vals_u, ders_v)], axis=2)
    flux = metric.reshape(n_cells, npts, 2, 2) @ grad
    # per cell, sum over (point, direction) pairs
    k_loc = grad.reshape(n_cells, 2 * npts, nloc).swapaxes(1, 2) @ flux.reshape(
        n_cells, 2 * npts, nloc
    )
    vol = (weight * det).reshape(n_cells, npts, 1)
    m_loc = (vol * shape).swapaxes(1, 2) @ shape

    local_idx = np.arange(nloc1)
    idx = (
        (rule_u.first[:, None, None, None] + local_idx[:, None]) * space.shape[1]
        + (rule_v.first[:, None] + local_idx)[None, :, None, :]
    ).reshape(n_cells, nloc)
    rows = np.broadcast_to(idx[:, :, None], k_loc.shape).ravel()
    cols = np.broadcast_to(idx[:, None, :], k_loc.shape).ravel()
    n = space.n_dofs
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def assemble(geom, space, bc="dirichlet"):
    """Assembled pencil with the requested boundary treatment.

    Dirichlet rows and columns are eliminated outright; Neumann is the
    natural condition and keeps every DOF.
    """
    if bc not in BC_KINDS:
        raise DomainError(f"unknown boundary condition {bc!r}; expected one of {BC_KINDS}")
    K, M = assemble_full(geom, space)
    if bc == "dirichlet":
        drop = boundary_dofs(space)
        kept = np.setdiff1d(np.arange(space.n_dofs), drop)
    else:
        kept = np.arange(space.n_dofs)
    K = K[kept][:, kept].tocsr()
    M = M[kept][:, kept].tocsr()
    return MatrixPencil(K, M)

"""Exact integer linear algebra and finite-group lattice computations.

Smith and Hermite normal forms are computed by elementary operations with
minimal-absolute-value pivoting on arbitrary-precision integers; correctness
over speed is the right trade at the ranks that occur here (<= 12).
Sublattices are always canonicalized through the Hermite form of their basis,
so equality tests and reports are deterministic.  Groups, lattices and maps
are taken as given: the group axioms, the homomorphism into GL(n, Z) and
equivariance are fixed facts of the data the package builds, checked once by
the tests rather than on every construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CompositionMismatch, InvariantViolation


class IntMat:
    """Immutable integer matrix, row-major tuple of tuples.

    IntMat(data) is the checking constructor, for data from outside the
    package (a CLI lattice payload, a caller's rows): it converts every
    entry with int() and refuses ragged rows, and a stated rows or cols
    that is negative or disagrees with the entries.  IntMat.trusted(data, rows, cols)
    takes rows of ints the package computed itself (products, sums,
    transposes, identities, normal forms, kernels, hexagon's action
    matrices) as they are, with their shape.  data always holds rows
    tuples, so an n x 0 matrix has n empty rows and equal matrices
    compare equal.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if data:
            self.rows = len(data)
            self.cols = len(data[0])
            if any(len(r) != self.cols for r in data):
                raise ValueError("ragged matrix")
            if rows not in (None, self.rows) or cols not in (None, self.cols):
                raise ValueError(f"{self.rows}x{self.cols} entries for a matrix "
                                 f"stated as rows={rows}, cols={cols}")
        else:
            self.rows, self.cols = rows or 0, cols or 0
            if self.rows < 0 or self.cols < 0:
                raise ValueError(f"negative shape rows={rows}, cols={cols}")
            if self.rows and self.cols:
                raise ValueError(f"no entries for a {self.rows}x{self.cols} matrix")
            data = ((),) * self.rows
        self.data = data

    @staticmethod
    def trusted(data, rows, cols):
        """The rows x cols matrix on data, rows of ints that the package
        computed, taken without int() or the ragged check."""
        m = IntMat.__new__(IntMat)
        m.data, m.rows, m.cols = tuple(map(tuple, data)), rows, cols
        return m

    @staticmethod
    def identity(n):
        return IntMat.trusted(_identity_rows(n), n, n)

    @staticmethod
    def zeros(r, c):
        return IntMat.trusted([(0,) * c] * r, r, c)

    def __mul__(self, other):
        if isinstance(other, IntMat):
            if self.cols != other.rows:
                raise CompositionMismatch(
                    f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            out = [[sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                    for j in range(other.cols)] for i in range(self.rows)]
            return IntMat.trusted(out, self.rows, other.cols)
        if not isinstance(other, int):
            return NotImplemented  # so a Fraction or float scalar raises TypeError
        return IntMat.trusted([[other * x for x in row] for row in self.data],
                              self.rows, self.cols)

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise CompositionMismatch(
                f"shape mismatch {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return IntMat.trusted([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)],
                              self.rows, self.cols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return IntMat.trusted([[-x for x in row] for row in self.data],
                              self.rows, self.cols)

    def __eq__(self, other):
        return (isinstance(other, IntMat) and other.rows == self.rows
                and other.cols == self.cols and other.data == self.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def transpose(self):
        return IntMat.trusted([[self.data[i][j] for i in range(self.rows)]
                               for j in range(self.cols)], self.cols, self.rows)

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def apply(self, vec):
        return [sum(self.data[i][k] * vec[k] for k in range(self.cols))
                for i in range(self.rows)]

    def det(self):
        """Bareiss fraction-free determinant."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss_det([list(r) for r in self.data])

    def is_unimodular(self):
        return self.rows == self.cols and abs(self.det()) == 1

    def to_lists(self):
        return [list(r) for r in self.data]

    def __repr__(self):
        return f"IntMat({self.to_lists()})"


def _bareiss_det(m):
    """Bareiss fraction-free determinant of the square matrix m, a list of
    int row lists, which it overwrites."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def mat_from_columns(cols, nrows):
    """The nrows x len(cols) matrix with the int columns cols."""
    return IntMat.trusted([[c[i] for c in cols] for i in range(nrows)],
                          nrows, len(cols))


def smith_normal_form(M):
    """Return (S, U, V) with U*M*V = S, S diagonal with d1 | d2 | ...,
    nonnegative diagonal, and U, V unimodular."""
    A = [list(r) for r in M.data]
    nr, nc = M.rows, M.cols
    if nr == 0 or nc == 0:
        return (IntMat.zeros(nr, nc), IntMat.identity(nr), IntMat.identity(nc))
    U = _identity_rows(nr)
    V = _identity_rows(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(nr):
            A[r][i] -= q * A[r][j]
        for r in range(nc):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def clear_at(t):
        # make A[t][t] the only nonzero entry in its row and column
        while True:
            # minimal absolute value pivot anywhere in the remaining block
            candidates = [(abs(A[i][j]), i, j)
                          for i in range(t, nr) for j in range(t, nc) if A[i][j]]
            if not candidates:
                return False
            _, pi, pj = min(candidates)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            pivot = A[t][t]
            if pivot == 0:
                continue
            done = True
            for i in range(nr):
                if i != t and A[i][t]:
                    q = A[i][t] // pivot
                    row_op(i, t, q)
                    if A[i][t]:
                        done = False
            for j in range(nc):
                if j != t and A[t][j]:
                    q = A[t][j] // pivot
                    col_op(j, t, q)
                    if A[t][j]:
                        done = False
            if done and all(A[i][t] == 0 for i in range(nr) if i != t) \
                    and all(A[t][j] == 0 for j in range(nc) if j != t):
                return True

    n = min(nr, nc)
    rank = 0
    for t in range(n):
        if clear_at(t):
            rank = t + 1
        else:
            break
    # normalize signs
    for t in range(rank):
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a:
                # mix column i+1 into column i and re-clear
                col_op(i, i + 1, -1)
                clear_at(i)
                for t in range(i, rank):
                    if A[t][t] < 0:
                        A[t] = [-x for x in A[t]]
                        U[t] = [-x for x in U[t]]
                changed = True
    return (IntMat.trusted(A, nr, nc), IntMat.trusted(U, nr, nr),
            IntMat.trusted(V, nc, nc))


def snf_diagonal(M):
    S, _, _ = smith_normal_form(M)
    n = min(S.rows, S.cols)
    return [S.data[i][i] for i in range(n) if S.data[i][i]]


def row_hnf(M):
    """Row-style Hermite normal form (unique): row span is preserved,
    pivots positive, entries above a pivot reduced into [0, pivot)."""
    A = [list(r) for r in M.data]
    nr, nc = M.rows, M.cols
    if nr == 0 or nc == 0:
        return IntMat.trusted((), 0, nc)
    r = 0
    for c in range(nc):
        # gcd the column below r into one entry
        while True:
            nz = [i for i in range(r, nr) if A[i][c]]
            if not nz:
                break
            pi = min(nz, key=lambda i: abs(A[i][c]))
            A[r], A[pi] = A[pi], A[r]
            done = True
            for i in range(r + 1, nr):
                if A[i][c]:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c]:
                        done = False
            if done:
                break
        if r < nr and A[r][c]:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
            if r == nr:
                break
    rows = [row for row in A[:r] if any(row)]
    return IntMat.trusted(rows, len(rows), nc)


def column_span_canonical(M):
    """Canonical form of the column lattice of M (HNF of the transpose)."""
    return row_hnf(M.transpose())


def kernel_basis(M):
    """Columns form a Z-basis of ker(M); automatically saturated.

    Canonicalized so the result only depends on the kernel, not on M.
    """
    S, _, V = smith_normal_form(M)
    n = min(S.rows, S.cols)
    rank = sum(1 for i in range(n) if S.data[i][i])
    cols = [V.col(j) for j in range(rank, M.cols)]
    if not cols:
        return IntMat.zeros(M.cols, 0)
    canon = row_hnf(IntMat.trusted(cols, len(cols), M.cols))
    return canon.transpose()


def solve_integer(M, v):
    """One integer solution x of M x = v, or None."""
    S, U, V = smith_normal_form(M)
    w = U.apply(list(v))
    n = min(S.rows, S.cols)
    y = [0] * M.cols
    for i in range(M.rows):
        d = S.data[i][i] if i < n else 0
        if d:
            if w[i] % d:
                return None
            y[i] = w[i] // d
        elif w[i]:
            return None
    return V.apply(y)


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables


class FiniteGroup:
    """Finite group on hashable labels with an explicit multiplication table.

    The table is taken as given and may name more pairs than the labels form
    (a subgroup shares its group's table).  The group axioms are checked by
    the tests on every group the package builds; the corpus here never
    exceeds order 12.
    """

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        self.table = table
        # by cancellation, e a = a for a single a makes e the identity
        a = self.labels[0]
        self.identity = next(e for e in self.labels if table[(e, a)] == a)
        self.generators = self._greedy_generators()

    def mul(self, a, b):
        return self.table[(a, b)]

    @property
    def order(self):
        return len(self.labels)

    def _closure(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen

    def _greedy_generators(self):
        gens = []
        for a in self.labels:
            if a == self.identity:
                continue
            if a not in self._closure(gens):
                gens.append(a)
                if len(self._closure(gens)) == self.order:
                    break
        return tuple(gens)

    def subgroup(self, labels):
        return FiniteGroup(labels, self.table)

    def all_subgroups(self):
        """Every subgroup, canonically ordered by (order, label list).

        Closures of all generating sets of size <= 3 suffice at order <= 12.
        """
        found = set()
        elems = self.labels
        for size in range(0, 4):
            for combo in itertools.combinations(elems, size):
                cl = frozenset(self._closure(combo))
                found.add(cl)
        subs = [tuple(sorted(s, key=lambda x: self.labels.index(x))) for s in found]
        subs.sort(key=lambda s: (len(s), tuple(str(x) for x in s)))
        return [self.subgroup(s) for s in subs]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# lattices with group action


class GLattice:
    """Free Z-module of finite rank with an action of a finite group.

    action maps each group label to a matrix in GL(rank, Z).  That it is a
    homomorphism of the group is checked by the tests on every lattice the
    package builds.
    """

    def __init__(self, rank, group, action):
        self.rank = rank
        self.group = group
        self.action = dict(action)

    @staticmethod
    def trivial(rank, group):
        eye = IntMat.identity(rank)
        return GLattice(rank, group, {g: eye for g in group.labels})

    def restrict(self, subgroup):
        return GLattice(self.rank, subgroup,
                        {g: self.action[g] for g in subgroup.labels})

    def direct_sum(self, other):
        if self.group is not other.group:
            raise CompositionMismatch("direct sum requires the same group object")
        n, m = self.rank, other.rank
        act = {}
        for g in self.group.labels:
            a, b = self.action[g], other.action[g]
            rows = [list(a.data[i]) + [0] * m for i in range(n)]
            rows += [[0] * n + list(b.data[i]) for i in range(m)]
            act[g] = IntMat.trusted(rows, n + m, n + m)
        return GLattice(n + m, self.group, act)


@dataclass(frozen=True)
class LatticeMap:
    """Equivariant map of G-lattices, matrix acting on column vectors."""

    source: GLattice
    target: GLattice
    matrix: IntMat

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise CompositionMismatch("map matrix shape does not match the lattices")
        if self.source.group is not self.target.group:
            raise CompositionMismatch("source and target must share the group")


def is_exact(maps):
    """Whether a chain of lattice maps is exact at every interior node:
    consecutive maps compose to zero and image equals kernel (as
    sublattices, compared through canonical Hermite forms)."""
    exact = True
    for i in range(len(maps) - 1):
        f, g = maps[i], maps[i + 1]
        if f.target is not g.source and f.target.rank != g.source.rank:
            raise CompositionMismatch(f"maps {i} and {i + 1} are not composable")
        comp = g.matrix * f.matrix
        if any(x for row in comp.data for x in row) or \
                column_span_canonical(f.matrix) != column_span_canonical(kernel_basis(g.matrix)):
            exact = False
    return exact


def fixed_submodule(L, G):
    """Canonical basis (columns) of the G-fixed sublattice of L; saturated."""
    gens = G.generators if G.generators else ()
    rows = []
    for g in gens:
        diff = L.action[g] - IntMat.identity(L.rank)
        rows.extend(diff.to_lists())
    if not rows:
        return IntMat.identity(L.rank)
    return kernel_basis(IntMat.trusted(rows, len(rows), L.rank))


def fixed_rank_by_traces(L, G):
    """Multiplicity of the trivial character: (1/|G|) sum of traces."""
    total = sum(sum(L.action[g].data[i][i] for i in range(L.rank)) for g in G.labels)
    if total % G.order:
        raise InvariantViolation(f"trace sum {total} is not divisible by |G| = {G.order}")
    return total // G.order


def h1(L, G):
    """Invariant factors of H^1(G, L), computed by exact linear algebra.

    Cocycles are coordinatized by their values on a generating set; the
    relation rows come from propagating the cocycle identity over the whole
    multiplication table.  Coboundaries are expressed in the resulting basis
    and the quotient read off a Smith form.
    """
    gens = list(G.generators)
    n = L.rank
    if not gens:
        return []
    m = len(gens)
    nm = n * m

    def block_matrix(mat, idx):
        # n x nm matrix placing mat at block idx
        rows = []
        for i in range(n):
            row = [0] * nm
            for j in range(n):
                row[idx * n + j] = mat.data[i][j]
            rows.append(row)
        return rows

    zero_rows = [[0] * nm for _ in range(n)]
    A = {G.identity: zero_rows}
    constraint_rows = []
    frontier = [G.identity]
    seen = {G.identity}
    order = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                t = G.mul(g, h)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    order.append(t)
        frontier = nxt
    # assign matrices in BFS order, then collect consistency rows for all edges
    for g in order:
        for idx, s in enumerate(gens):
            t = G.mul(g, s)
            blk = block_matrix(L.action[g], idx)
            cand = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(A[g], blk)]
            if t not in A:
                A[t] = cand
            else:
                for r1, r2 in zip(A[t], cand):
                    row = [a - b for a, b in zip(r1, r2)]
                    if any(row):
                        constraint_rows.append(row)
    Z = kernel_basis(IntMat.trusted(constraint_rows, len(constraint_rows), nm))
    if Z.cols == 0:
        return []
    # coboundary generators: m_g = (g - 1) x for x in standard basis of L
    cob_cols = []
    for j in range(n):
        col = []
        for s in gens:
            diff = L.action[s] - IntMat.identity(n)
            col.extend(diff.apply([1 if i == j else 0 for i in range(n)]))
        cob_cols.append(col)
    X_cols = []
    for col in cob_cols:
        x = solve_integer(Z, col)
        if x is None:
            raise InvariantViolation("coboundary not a cocycle")
        X_cols.append(x)
    X = mat_from_columns(X_cols, Z.cols)
    diag = snf_diagonal(X)
    free = Z.cols - len(diag)
    if free:
        raise InvariantViolation("H^1 of a finite group on a lattice must be finite")
    return sorted(d for d in diag if d > 1)


# the largest coefficient equivariant_iso_search puts on a kernel vector
ISO_SEARCH_BOUND = 3


def equivariant_iso_search(L1, L2):
    """Search for a unimodular intertwiner M with M r1(g) = r2(g) M.

    Solves the intertwining system over Z, then walks small integer
    combinations of its kernel basis (max coefficient ISO_SEARCH_BOUND,
    deterministic order) testing unimodularity.  Returns (matrix,
    bound_used) or (None, ISO_SEARCH_BOUND): a miss is inconclusive, not a
    proof of nonexistence.
    """
    if L1.group is not L2.group or L1.rank != L2.rank:
        return None, 0
    n = L1.rank
    gens = L1.group.generators or L1.group.labels
    rows = []
    for g in gens:
        r1, r2 = L1.action[g], L2.action[g]
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for a in range(n):
                    for b in range(n):
                        coeff = 0
                        if a == i:
                            coeff += r1.data[b][j]
                        if b == j:
                            coeff -= r2.data[i][a]
                        if coeff:
                            row[a * n + b] += coeff
                rows.append(row)
    basis = kernel_basis(IntMat.trusted(rows, len(rows), n * n))
    if basis.cols == 0:
        return None, 0
    # identity first when available, then combinations by growing sup-norm
    ident_flat = [1 if i % (n + 1) == 0 else 0 for i in range(n * n)]
    x = solve_integer(basis, ident_flat)
    if x is not None:
        return IntMat.identity(n), 0
    cols = [basis.col(j) for j in range(basis.cols)]
    nn = n * n
    for b in range(1, ISO_SEARCH_BOUND + 1):
        # scaled[k][c] is c times kernel vector k, as a flat list
        scaled = [{c: [c * x for x in col] for c in range(-b, b + 1) if c}
                  for col in cols]
        for combo in itertools.product(range(-b, b + 1), repeat=len(cols)):
            if b not in combo and -b not in combo:
                continue
            if next(c for c in combo if c) < 0:
                continue
            vec = list(map(sum, zip(*(s[c] for s, c in zip(scaled, combo) if c))))
            if abs(_bareiss_det([vec[i:i + n] for i in range(0, nn, n)])) == 1:
                return IntMat.trusted([vec[i:i + n] for i in range(0, nn, n)], n, n), b
    return None, ISO_SEARCH_BOUND

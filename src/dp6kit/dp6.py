"""Degree-6 del Pezzo surfaces as explicit quadric systems in P^6.

A surface is built from a rank-9 algebra with involution and a cubic etale
subalgebra L of symmetric elements: coordinates are a basis of F + Lperp and
the equations are the nine components of the adjoint map x -> x#, which cuts
out exactly the projectivized rank-one symmetric elements.

Lines are not searched for: over a splitting field both K and L split, the
matrices are transported into M3 of that field, L's basis is conjugated to
the diagonal, and the six known lines of the split model are pulled back
through the exact coordinate change.  The induced Frobenius permutation of
the lines is the hexagon element that drives every point-count prediction.

Points are counted without enumerating P^6: a rank-one matrix is x y^T, so
the surface fibres over P^2 (fibration_point_count).  The enumeration of
P^6 over numpy tables (raw_point_count, surface_points) is kept for point
lists and as the independent oracle for the count.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .algebra3 import (HERMITIAN, SPLIT_EXCHANGE, build_hermitian, build_split_exchange,
                       companion_matrix, cubic_from_generator, diagonal_cubic,
                       hermitian_cubic_generator, orth_complement, split_normalize)
from .errors import (Dp6kitError, EnumerationBudgetExceeded, InvariantViolation,
                     NotAnAutomorphism, WrongLineCount)
from .fields import (GF, embed, format_element, is_prime, mat_kernel, mat_solve,
                     poly_is_squarefree, poly_roots, rref)

# The most points of P^6(F_{q^k}) that any count over F_{q^k} accepts, so
# that the enumerator and the fibration accept the same inputs.
P6_BUDGET = 600_000
# The largest q^k at which split_model_points enumerates P^2 x P^2.
SPLIT_MODEL_BUDGET = 9


class DP6Surface:
    """Quadric model of S = S(B, tau, L) in P(F + Lperp) = P^6."""

    def __init__(self, algebra, cubic):
        self.algebra = algebra
        self.cubic = cubic
        self.field = algebra.field
        self.coord_basis = [algebra.one] + orth_complement(cubic)  # 1 + 6
        self.quadrics = self._quadrics()
        self.provenance = {
            "kind": algebra.kind,
            "field": algebra.descriptor(),
            "L": cubic.descriptor(),
        }
        self._lines_cache = None

    def _quadrics(self):
        """Nine quadratic forms: coordinates of (sum c_i b_i)# in the
        symmetric basis.  On the matrices m_i of the coordinate basis x# is
        the adjugate.  Most entries of the m_i are zero, so each entry
        of sum c_i m_i is a linear form in c with few terms; each cofactor is
        expanded as products of two such forms, and only pairs of nonzero
        entries are multiplied."""
        A = self.algebra
        zero = A.ring.zero
        lin = [[[(i, m[r][c]) for i, m in enumerate(self.coord_basis) if m[r][c]]
                for c in range(3)] for r in range(3)]
        coef = {}  # (i, j) with i <= j -> the c_i c_j coefficients of the adjugate
        for r in range(3):
            r1, r2 = [t for t in range(3) if t != r]
            for c in range(3):
                c1, c2 = [t for t in range(3) if t != c]
                # adj[c][r] = (-1)^(r+c) (M[r1][c1] M[r2][c2] - M[r1][c2] M[r2][c1])
                for f, g, negate in ((lin[r1][c1], lin[r2][c2], (r + c) % 2),
                                     (lin[r1][c2], lin[r2][c1], (r + c + 1) % 2)):
                    for i, x in f:
                        for j, y in g:
                            m = coef.setdefault((min(i, j), max(i, j)),
                                                [[zero] * 3 for _ in range(3)])
                            m[c][r] = m[c][r] - x * y if negate else m[c][r] + x * y
        forms = [dict() for _ in range(9)]
        for key in sorted(coef):
            for ell, value in enumerate(A.sym_matrix_coords(coef[key])):
                if value:
                    forms[ell][key] = value
        return tuple(forms)

    def embed_base(self, c, field):
        """A base-field element in an extension field, by the route the
        coordinate matrices take: through K in the Hermitian model."""
        if field is self.field:
            return c
        ctx = self.algebra.ctx
        return embed(ctx.embed_base(c) if ctx else c, field)

    def evaluate(self, coords, field):
        """Values of the nine quadrics at a point over field, the base field
        or an extension (coefficients embedded by embed_base)."""
        out = []
        for form in self.quadrics:
            acc = field.zero
            for (i, j), c in form.items():
                acc = acc + self.embed_base(c, field) * coords[i] * coords[j]
            out.append(acc)
        return out

    def quadric_polar(self, form, v, w, field):
        """Polar value Q(v + w) - Q(v) - Q(w) of one quadric over a field."""
        acc = field.zero
        for (i, j), c in form.items():
            cc = self.embed_base(c, field)
            if i == j:
                acc = acc + cc * (v[i] * w[i] + w[i] * v[i])
            else:
                acc = acc + cc * (v[i] * w[j] + v[j] * w[i])
        return acc

    def descriptor_json(self):
        return {
            "provenance": self.provenance,
            "quadrics": [{f"{i},{j}": format_element(c) for (i, j), c in form.items()}
                         for form in self.quadrics],
        }

    def __repr__(self):
        return f"DP6Surface({self.provenance})"


def build_surface(algebra, cubic):
    return DP6Surface(algebra, cubic)


# ---------------------------------------------------------------------------
# transporting the symmetric space into M3 over an extension field


def _embed_matrix(m, big):
    return tuple(tuple(embed(x, big) for x in row) for row in m)


def _sigma_matrices(surface, big):
    """Images of the coordinate basis in M3(big): the F-entries (exchange
    model) or K-entries (Hermitian model, which needs [big : F] even so K
    embeds) of each basis element's matrix."""
    return [_embed_matrix(b, big) for b in surface.coord_basis]


def expected_frobenius_type(surface):
    """(swap, cycle type) that the Frobenius hexagon element must have: it
    swaps the two triangles when K is a field, and permutes the lines of a
    triangle as Frobenius permutes the roots of L's minimal polynomial."""
    L = surface.cubic
    nroots = 3 if L.generator is None else len(poly_roots(L.minpoly, surface.field))
    return surface.algebra.kind == HERMITIAN, {3: (1, 1, 1), 1: (1, 2), 0: (3,)}[nroots]


def splitting_degree(surface):
    """Least m with both K and L split over F_{q^m}: the order of the
    Frobenius hexagon element."""
    swap, ct = expected_frobenius_type(surface)
    return lcm(2 if swap else 1, *ct)


# the six lines of the normalized split model, as spans of matrix units
_SPLIT_LINES = (
    ((0, 1), (0, 2)),  # row 1
    ((1, 0), (1, 2)),  # row 2
    ((2, 0), (2, 1)),  # row 3
    ((1, 0), (2, 0)),  # column 1
    ((0, 1), (2, 1)),  # column 2
    ((0, 2), (1, 2)),  # column 3
)


class LineOnSurface:
    """Projective line in P^6, stored as a reduced 2x7 echelon matrix."""

    def __init__(self, matrix, field):
        self.matrix = tuple(tuple(r) for r in matrix)
        self.field = field
        self.label = None

    def key(self):
        return tuple(x.code for row in self.matrix for x in row)

    def __eq__(self, other):
        return isinstance(other, LineOnSurface) and other.matrix == self.matrix

    def __hash__(self):
        return hash(self.matrix)

    def contains(self, point):
        """Membership of a 7-coordinate point (over self.field)."""
        rows = [list(r) for r in self.matrix] + [list(point)]
        _, pivots = rref(rows, self.field)
        return len(pivots) <= 2

    def __repr__(self):
        return f"Line[{self.label}]"


def _echelon_line(rows, field):
    m, pivots = rref(rows, field)
    rows = [tuple(r) for r in m if any(r)]
    if len(rows) != 2:
        raise WrongLineCount("line generators are not independent")
    return rows


class LinesResult:
    def __init__(self, field, lines, adjacency):
        self.field = field
        self.lines = lines  # dict label -> LineOnSurface
        self.adjacency = adjacency  # dict label -> set of labels


def find_lines(surface, m=None):
    """The six lines over the splitting field, labeled by the hexagon.

    Pull-back route: transport to M3 over F_{q^m}, conjugate L to the
    diagonal, express the six split-model lines in surface coordinates, and
    solve the exact linear systems back.
    """
    if surface._lines_cache is not None and m is None:
        return surface._lines_cache
    split_m = splitting_degree(surface)
    if m is None:
        m = split_m
    F = surface.field
    big = GF(F.p, F.k * m)
    sig = _sigma_matrices(surface, big)
    # conjugate the transported L to the diagonal subalgebra
    cert = split_normalize([_embed_matrix(b, big) for b in surface.cubic.basis], big)
    # psi: coordinates -> normalized matrices (9 x 7 over big)
    images = [cert.apply_matrix(mm) for mm in sig]
    psi_rows = [[images[j][r][c] for j in range(7)]
                for r in range(3) for c in range(3)]
    _, pivots = rref([list(r) for r in psi_rows], big)
    if len(pivots) != 7:
        raise WrongLineCount("coordinate map must be injective")
    lines = []
    for gens in _SPLIT_LINES:
        sol_rows = []
        for (r, c) in gens:
            target = [big.one if (rr, cc) == (r, c) else big.zero
                      for rr in range(3) for cc in range(3)]
            x = mat_solve([list(r_) for r_ in psi_rows], target, big)
            if x is None:
                raise WrongLineCount("split-model line not in the coordinate image")
            sol_rows.append(x)
        lines.append(LineOnSurface(_echelon_line(sol_rows, big), big))
    if len(set(lines)) != 6:
        raise WrongLineCount(f"expected 6 distinct lines, got {len(set(lines))}")
    # verify every equation vanishes identically on every line (symbolically)
    for ln in lines:
        v, w = [list(r) for r in ln.matrix]
        vals = surface.evaluate(v, big) + surface.evaluate(w, big)
        polars = [surface.quadric_polar(fm, v, w, big) for fm in surface.quadrics]
        if any(vals) or any(polars):
            raise WrongLineCount("surface equations do not vanish on a line")
    result = _label_hexagon(lines, big)
    if m == split_m:
        surface._lines_cache = result
    return result


def _label_hexagon(lines, field):
    lines = sorted(lines, key=lambda l: l.key())
    n = len(lines)
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            rows = [list(r) for r in lines[i].matrix] + [list(r) for r in lines[j].matrix]
            _, pivots = rref(rows, field)
            if len(pivots) <= 3:
                adj[i].add(j)
                adj[j].add(i)
    if any(len(adj[i]) != 2 for i in range(n)):
        raise WrongLineCount("line intersection graph is not 2-regular")
    # walk the cycle and 2-color it
    order = [0]
    prev = None
    while len(order) < n:
        nxt = [t for t in adj[order[-1]] if t != prev]
        prev = order[-1]
        order.append(nxt[0])
    if sorted(order) != list(range(n)):
        raise WrongLineCount("line intersection graph is not a 6-cycle")
    color = {idx: k % 2 for k, idx in enumerate(order)}
    e_class = sorted(i for i in range(n) if color[i] == color[0])
    f_class = sorted(i for i in range(n) if color[i] != color[0])
    labels = {}
    for k, i in enumerate(e_class):
        labels[i] = f"E{k + 1}"
        opp = [j for j in f_class if j not in adj[i]]
        if len(opp) != 1:
            raise WrongLineCount("each line must have a unique opposite")
        labels[opp[0]] = f"F{k + 1}"
    by_label = {labels[i]: lines[i] for i in range(n)}
    for lbl, ln in by_label.items():
        ln.label = lbl
    adjacency = {labels[i]: {labels[j] for j in adj[i]} for i in range(n)}
    return LinesResult(field, by_label, adjacency)


def frobenius_on_lines(surface):
    """Hexagon element induced by the q-power Frobenius on the lines."""
    from .hexagon import aut_from_images
    lr = find_lines(surface)
    q = surface.field.size
    mapping = {}
    for lbl, ln in lr.lines.items():
        fr_rows = [[x ** q for x in row] for row in ln.matrix]
        img = LineOnSurface(_echelon_line(fr_rows, lr.field), lr.field)
        hits = [l2 for l2, ln2 in lr.lines.items() if ln2 == img]
        if len(hits) != 1:
            raise NotAnAutomorphism("Frobenius image is not one of the six lines")
        mapping[lbl] = hits[0]
    return aut_from_images(mapping)


# ---------------------------------------------------------------------------
# point counting


_TABLE_CACHE = {}


def _tables(E):
    # code-indexed memo of FFElem's own + * - on the counting field E
    import numpy as np
    if E not in _TABLE_CACHE:
        elems = E.elements()
        _TABLE_CACHE[E] = (
            np.array([[(a + b).code for b in elems] for a in elems], dtype=np.int32),
            np.array([[(a * b).code for b in elems] for a in elems], dtype=np.int32),
            np.array([(-a).code for a in elems], dtype=np.int32))
    return _TABLE_CACHE[E]


def _embed_table(src, tgt):
    import numpy as np
    return np.array([embed(x, tgt).code for x in src.elements()], dtype=np.int32)


def projective_count(npoints_field):
    q = npoints_field
    return (q ** 7 - 1) // (q - 1)


class PointCountRecord:
    def __init__(self, q, k, raw, predicted, frobenius_label):
        self.q = q
        self.k = k
        self.raw = raw
        self.predicted = predicted
        self.frobenius_label = frobenius_label

    @property
    def ok(self):
        return self.raw == self.predicted

    def as_dict(self):
        return {"q": self.q, "k": self.k, "count": self.raw,
                "predicted": self.predicted, "frobenius": self.frobenius_label}

    def __repr__(self):
        return (f"PointCount(q={self.q},k={self.k},raw={self.raw},"
                f"predicted={self.predicted})")


def _counting_fields(surface, k):
    """(ext, E) for counting over ext = F_{q^k}: the point matrices live over
    E, which must also contain K.  k >= 1 and P6_BUDGET on |P^6(ext)| are
    checked before either field is built."""
    F = surface.field
    if k < 1:
        raise Dp6kitError(f"k must be >= 1, got {k}")
    Qp = F.size ** k
    total_pts = projective_count(Qp)
    if total_pts > P6_BUDGET:
        raise EnumerationBudgetExceeded(
            f"|P^6(F_{Qp})| = {total_pts} exceeds the budget {P6_BUDGET}")
    ext = GF(F.p, F.k * k)
    E = GF(F.p, F.k * lcm(k, 2)) if surface.algebra.kind == HERMITIAN else ext
    return ext, E


def _rank_one_blocks(surface, k):
    """Walk P^6(F_{q^k}) once, one block per leading coordinate, through
    exact integer multiplication tables.

    Yields (ext, lead, mask): index i of the block is the point with zeros
    before position lead, a 1 there, and the base-q^k digits of i (most
    significant first) after it; mask[i] says whether its point matrix has
    rank one, i.e. whether the point lies on the surface.  The nine 2x2
    minors are checked one at a time, each only on the indices where the
    previous ones vanished, and a matrix entry is computed only when a minor
    first needs it, on the indices still in play.
    """
    import numpy as np
    ext, E = _counting_fields(surface, k)
    Qp = ext.size
    sig = _sigma_matrices(surface, E)
    emb = _embed_table(ext, E)
    entries = [[(j, sig[j][r][c].code) for j in range(7) if sig[j][r][c]]
               for r in range(3) for c in range(3)]
    tables = _tables(E)
    for lead in range(7):
        block = Qp ** (6 - lead)
        mask = np.zeros(block, dtype=bool)
        mask[_rank_one_indices(Qp, lead, entries, emb, tables)] = True
        yield ext, lead, mask


def _rank_one_indices(Qp, lead, entries, emb, tables):
    """Indices of the lead block whose point matrix has all nine 2x2 minors
    zero (see _rank_one_blocks)."""
    import numpy as np
    add, mul, neg = tables
    idx = np.arange(Qp ** (6 - lead), dtype=np.int64)
    cols, mm = {}, {}  # coordinate and entry codes at the indices in idx

    def coord(j):
        if j <= lead:  # the zeros before the leading 1, and the 1 (code 1)
            return 1 if j == lead else 0
        if j not in cols:
            cols[j] = emb[idx // Qp ** (6 - j) % Qp]
        return cols[j]

    def M(r, c):
        if (r, c) not in mm:
            acc = np.zeros(len(idx), dtype=np.int64)
            for j, code in entries[3 * r + c]:
                acc = add[acc, mul[code][coord(j)]]
            mm[r, c] = acc
        return mm[r, c]

    for r in range(3):
        r1, r2 = [t for t in range(3) if t != r]
        for c in range(3):
            c1, c2 = [t for t in range(3) if t != c]
            keep = add[mul[M(r1, c1), M(r2, c2)], neg[mul[M(r1, c2), M(r2, c1)]]] == 0
            idx = idx[keep]
            for memo in (cols, mm):
                for key in memo:
                    memo[key] = memo[key][keep]
    return idx


def raw_point_count(surface, k):
    """Exact number of points of the surface over F_{q^k} by enumeration of
    P^6: the independent oracle for fibration_point_count."""
    return sum(int(mask.sum()) for _, _, mask in _rank_one_blocks(surface, k))


def surface_points(surface, k):
    """Explicit list of projective points over F_{q^k} (normalized leading 1),
    in code order; the same enumeration as raw_point_count, decoded.

    Used for point-set work (line membership, Segre comparison).
    """
    pts = []
    for ext, lead, mask in _rank_one_blocks(surface, k):
        Qp = ext.size
        head = [ext.zero] * lead + [ext.one]
        for idx in mask.nonzero()[0].tolist():
            pts.append(tuple(head + [ext.from_code(idx // Qp ** i)
                                     for i in range(5 - lead, -1, -1)]))
    return pts


def fibration_point_count(surface, k):
    """Exact number of points of the surface over F_{q^k}, fibred over P^2.

    The seven coordinate matrices span a subspace W of M3(E) cut out by two
    linear forms m -> sum L[r][c] m[r][c]; on m = x y^T they read x^T L y.
    With Q = q^k:

    * E = F_Q (exchange model, or Hermitian with k even): the points are the
      rank-one x y^T in W, so [x] in P^2(E) carries the projective space of
      the y with x^T L1 y = x^T L2 y = 0, of size (Q^(3-r) - 1)/(Q - 1) where
      r is the rank of those two equations;
    * E = F_{Q^2} (Hermitian, k odd): the points are the rank-one Hermitian
      lambda x sigma(x)^T in W, sigma(z) = z^Q, one for each [x] in P^2(E)
      with x^T L1 sigma(x) = x^T L2 sigma(x) = 0.

    P6_BUDGET bounds |P^6(F_Q)| here too, so the two counters accept the
    same inputs.  Neither the lines nor the Frobenius are used, so the count
    stays independent of the hexagon prediction.
    """
    ext, E = _counting_fields(surface, k)
    Q = ext.size
    rows = [[m[r][c] for r in range(3) for c in range(3)]
            for m in _sigma_matrices(surface, E)]
    forms = [[v[3 * r:3 * r + 3] for r in range(3)] for v in mat_kernel(rows, 9, E)]
    if len(forms) != 2:
        raise InvariantViolation(
            f"coordinate matrices span codimension {len(forms)} in M3, not 2")
    if E is ext:
        count = 0
        for x in _proj_plane(E):
            eqs = [[sum((x[r] * L[r][c] for r in range(3)), E.zero) for c in range(3)]
                   for L in forms]
            count += (Q ** (3 - len(rref(eqs, E)[1])) - 1) // (Q - 1)
        return count
    return _hermitian_zero_count(E, Q, forms)


def _hermitian_zero_count(E, Q, forms):
    """#{[x] in P^2(E) : x^T L sigma(x) = 0 for every L in forms}, where
    sigma(z) = z^Q.

    _proj_plane(E) lists the points in runs that share x0, x1 while the last
    coordinate b runs through E; on a run each form reads
    f + g sigma(b) + h b + L[2][2] b sigma(b) with f, g, h fixed, so sigma(b)
    and b sigma(b) are looked up by code.
    """
    elems = E.elements()
    conj = [z ** Q for z in elems]
    norm = [z * s for z, s in zip(elems, conj)]
    count, run, coeffs = 0, None, None
    for x0, x1, b in _proj_plane(E):
        if (x0.code, x1.code) != run:
            run = (x0.code, x1.code)
            s0, s1 = conj[x0.code], conj[x1.code]
            coeffs = [(x0 * (L[0][0] * s0 + L[0][1] * s1) + x1 * (L[1][0] * s0 + L[1][1] * s1),
                       x0 * L[0][2] + x1 * L[1][2], L[2][0] * s0 + L[2][1] * s1, L[2][2])
                      for L in forms]
        c = b.code
        if not any(f + g * conj[c] + h * b + n * norm[c] for f, g, h, n in coeffs):
            count += 1
    return count


def count_points(surface, k):
    """PointCountRecord with the exact count from fibration_point_count and
    the hexagon prediction q^{2k} + q^k tr(phi^k | Pic) + 1."""
    raw = fibration_point_count(surface, k)
    phi = frobenius_on_lines(surface)
    q = surface.field.size
    predicted = predicted_count(q, k, phi)
    return PointCountRecord(q, k, raw, predicted, phi.label)


def predicted_count(q, k, phi):
    from .hexagon import HexAut, pic_trace
    power = HexAut.identity()
    for _ in range(k):
        power = phi.compose(power)
    return q ** (2 * k) + q ** k * pic_trace(power) + 1


def zeta_check(surface):
    """Point counts against the hexagon prediction for k = 1, 2, ... while
    |P^6(F_{q^k})| is within P6_BUDGET.  k = 1 is always counted, so a
    surface over the budget is refused, not passed with no records."""
    records = [count_points(surface, 1)]
    while projective_count(surface.field.size ** (len(records) + 1)) <= P6_BUDGET:
        records.append(count_points(surface, len(records) + 1))
    return records


# ---------------------------------------------------------------------------
# the split biprojective model


def _iroot(n, e):
    """floor(n ** (1/e)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _parse_prime_power(q):
    """(p, e) with p prime and p^e = q.  Were q = p^e, no exponent above e
    would give an integer root, so only the root at the largest exact
    exponent is tested."""
    if q >= 2:
        e = max(e for e in range(1, q.bit_length()) if _iroot(q, e) ** e == q)
        p = _iroot(q, e)
        if is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _proj_plane(field):
    pts = []
    Q = field.size
    for lead in range(3):
        for rest in product(range(Q), repeat=2 - lead):
            pts.append(tuple([field.zero] * lead + [field.one]
                             + [field.from_code(c) for c in rest]))
    return pts


def _split_model_pairs(field):
    """The pairs (x, y) in P^2 x P^2 over field with x0 y0 = x1 y1 = x2 y2:
    the points of the biprojective split model, by walking every pair."""
    plane = _proj_plane(field)
    for x in plane:
        for y in plane:
            if x[0] * y[0] == x[1] * y[1] == x[2] * y[2]:
                yield x, y


def split_model_points(q, k=1):
    """#S(F_{q^k}) for the biprojective model x0 y0 = x1 y1 = x2 y2, by
    direct double enumeration of P^2 x P^2 (at most 91^2 pairs within
    SPLIT_MODEL_BUDGET): the brute-force oracle for the split count."""
    p, e = _parse_prime_power(q)
    if q ** k > SPLIT_MODEL_BUDGET:
        raise EnumerationBudgetExceeded(
            f"q^k = {q ** k} exceeds budget {SPLIT_MODEL_BUDGET}")
    return sum(1 for _ in _split_model_pairs(GF(p, e * k)))


def verify_split_equivalence(surface, k=1):
    """Bijection between the quadric-system points and the biprojective
    model through the Segre map, checked as equality of point sets."""
    if surface.provenance["kind"] != SPLIT_EXCHANGE:
        raise WrongLineCount("equivalence check applies to split provenance")
    pts = surface_points(surface, k)
    F = surface.field
    ext = GF(F.p, F.k * k)
    normalized = {_proj_normalize(ptup) for ptup in pts}
    # Segre images of the biprojective model, in surface coordinates
    sig = _sigma_matrices(surface, ext)
    psi_rows = [[sig[j][r][c] for j in range(7)] for r in range(3) for c in range(3)]
    segre = set()
    for x, y in _split_model_pairs(ext):
        target = [x[r] * y[c] for r in range(3) for c in range(3)]
        sol = mat_solve(psi_rows, target, ext)
        if sol is None:
            return False
        segre.add(_proj_normalize(tuple(sol)))
    return segre == normalized and len(segre) == len(pts)


def _proj_normalize(coords):
    lead = next(i for i, c in enumerate(coords) if c)
    inv = coords[lead].inverse()
    return tuple((c * inv).code for c in coords)


# ---------------------------------------------------------------------------
# torus orbit count and the splitting-implication check


def torus_count_check(surface):
    """|U(F_q)| against |det(q I - phi | T^)| for the complement U of the
    lines; torsors under a torus over a finite field are trivial, so the
    two numbers must agree exactly."""
    from .hexagon import t_hat
    from .intlattice import IntMat
    F = surface.field
    q = F.size
    pts = surface_points(surface, 1)
    lr = find_lines(surface)
    big = lr.field
    on_lines = 0
    for ptup in pts:
        bigpt = [surface.embed_base(c, big) for c in ptup]
        if any(ln.contains(bigpt) for ln in lr.lines.values()):
            on_lines += 1
    u_count = len(pts) - on_lines
    phi = frobenius_on_lines(surface)
    A = t_hat()[0].action[phi.label]
    qI = IntMat([[q if i == j else 0 for j in range(2)] for i in range(2)])
    det = (qI - A).det()
    return {
        "surface_points": len(pts),
        "points_on_lines": on_lines,
        "u_count": u_count,
        "torus_count": abs(det),
        "ok": u_count == abs(det),
    }


# ---------------------------------------------------------------------------
# the standard twist corpus over a finite base field


def _cubic_with_root_count(field, want):
    """Deterministic monic squarefree cubic over the field with the requested
    number of roots (code order search)."""
    Q = field.size
    for code in range(Q ** 3):
        coeffs = [field.from_code(code // Q ** i) for i in range(3)]
        f = tuple(coeffs) + (field.one,)
        if not poly_is_squarefree(f, field):
            continue
        if len(poly_roots(f, field)) == want:
            return coeffs
    raise InvariantViolation("no cubic with the requested factorization")


def standard_twists(field):
    """The six (K, L) combinations over a finite field, as named surfaces."""
    out = {}
    A = build_split_exchange(field)
    out["split"] = build_surface(A, diagonal_cubic(A))
    for name, want in (("ksplit-l21", 1), ("ksplit-l3", 0)):
        u = companion_matrix(_cubic_with_root_count(field, want), field)
        out[name] = build_surface(A, cubic_from_generator(A, u))
    B = build_hermitian(field)
    out["kinert-lsplit"] = build_surface(B, diagonal_cubic(B))
    out["kinert-l21"] = build_surface(B, hermitian_cubic_generator(B, 1))
    out["kinert-l3"] = build_surface(B, hermitian_cubic_generator(B, 0))
    return out


TWIST_NAMES = ("split", "ksplit-l21", "ksplit-l3",
               "kinert-lsplit", "kinert-l21", "kinert-l3")

"""Small exact linear algebra helpers over Q, Z and Z/p^E (Fraction / int, no floats).

Over Q, `rref` is the one row-echelon routine: `rank` and `nullspace` read
off it, and so do the cone computations and the lower central series of
`algebra.nilpotency_class`."""

import math
from fractions import Fraction
from functools import lru_cache


def rref(rows, ncols=None):
    """Reduced row echelon form over Q.  Returns (rref_rows, pivot_columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows, ncols=None):
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols):
    """Basis of the rational kernel of the matrix (rows x ncols)."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def diagonalize_rowlattice(A):
    """Diagonalize the integer matrix A (full row rank d, size d x m) by unimodular
    row and column operations: U A W = [diag(d_1..d_d) | 0].

    Returns (divisors, V) where V (m x m, unimodular) satisfies: the row lattice of A
    is spanned by {d_i * V[i]} and its saturation in Z^m by {V[i] : i < d}.
    """
    A = [list(map(int, row)) for row in A]
    d = len(A)
    m = len(A[0])
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    # column op C_j += q*C_k on A corresponds to row op R_k -= q*R_j on V;
    # column swap (j,k) on A corresponds to row swap on V.
    t = 0
    while t < d:
        pos = [(i, j) for i in range(t, d) for j in range(t, m) if A[i][j] != 0]
        if not pos:
            raise ValueError("matrix does not have full row rank")
        while True:
            i0, j0 = min(pos, key=lambda ij: abs(A[ij[0]][ij[1]]))
            A[t], A[i0] = A[i0], A[t]
            if j0 != t:
                for row in A:
                    row[t], row[j0] = row[j0], row[t]
                V[t], V[j0] = V[j0], V[t]
            piv = A[t][t]
            clean = True
            for i in range(t + 1, d):
                if A[i][t] != 0:
                    q = A[i][t] // piv
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        clean = False
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // piv
                    for row in A:
                        row[j] -= q * row[t]
                    V[t] = [a + q * b for a, b in zip(V[t], V[j])]
                    if A[t][j] != 0:
                        clean = False
            if clean:
                break
            pos = [(i, j) for i in range(t, d) for j in range(t, m) if A[i][j] != 0]
        t += 1
    divisors = [abs(A[i][i]) for i in range(d)]
    return divisors, V


def local_elimination(rows, ncols, p, E):
    """(valuations, least) of one elimination of rows . x = p^s b over Z/p^E.
    Each row holds ncols coefficients, then its right side b or, in every
    row alike, nothing for b = 0.  Entries may be any integers: every update
    is taken mod p^E, so nothing is copied or reduced first.  The list is
    eliminated in place: pivot rows leave it and updated rows replace the
    old ones, whose own entries never change.

    The pivot is an entry of least valuation v among the rows and columns
    left, so every other entry of its row is divisible by p^v and a unimodular
    change of variables clears them without touching the other rows; the
    pivot column is cleared from the other rows.  `valuations` lists the
    pivots' v in order.  With E for each row that never gets a pivot, they are
    the elementary divisors of the matrix mod p^E.

    A pivot equation has p^v solutions if p^v divides its right side and none
    otherwise; a column without a pivot is free, and a row without one needs
    a zero right side.  So for every s >= least the system has
    p^(sum(valuations) + E (ncols - len(valuations))) solutions in
    (Z/p^E)^ncols, and for 0 <= s < least none.  Row operations act linearly
    on the right side, so one elimination serves every scale p^s: a pivot row
    whose right side has valuation w needs s >= v - w, a row without a pivot
    needs s >= E - w.
    """
    q, valuation, gcd = p**E, _valuations(p, E), math.gcd
    cols = list(range(ncols)) if E else []  # ascending; mod p^0 every entry is 0
    valuations, least = [], 0
    while rows and cols:
        # the least (v, i, j) over entries nonzero mod p^E; scanning in
        # ascending order, the first unit found is that one
        v = E
        for i, row in enumerate(rows):
            for j in cols:
                if row[j] % p:
                    v, r, c = 0, i, j
                    break
                if row[j] and (w := valuation[gcd(row[j], q)]) < v:
                    v, r, c = w, i, j
            else:
                continue
            break
        if v == E:  # every entry left is 0 mod p^E
            break
        top = rows.pop(r)
        cols.remove(c)
        valuations.append(v)
        if len(top) > ncols:
            least = max(least, v - valuation[gcd(top[ncols], q)])
        pivot = p**v
        inverse = pow(top[c] // pivot, -1, q)
        for i, row in enumerate(rows):
            if row[c]:
                f = row[c] // pivot * inverse % q
                rows[i] = [(a - f * b) % q for a, b in zip(row, top)]
    least = max([least] + [E - valuation[gcd(row[ncols], q)] for row in rows if len(row) > ncols])
    return valuations, least


@lru_cache(maxsize=None)
def _valuations(p, E):
    """{p^v: v} for v = 0..E: the valuation of x mod p^E is that of gcd(x, p^E)."""
    return {p**v: v for v in range(E + 1)}

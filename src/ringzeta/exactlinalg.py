"""Small exact linear algebra helpers over Q and Z (Fraction / int, no floats)."""

import math
from fractions import Fraction


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


def solve_exact(rows, rhs):
    """Solve M x = rhs over Q; returns None when inconsistent, else one solution
    (the one with free variables set to 0)."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


class RowSpace:
    """Incrementally maintained rational row space (for lower-central series)."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # kept in echelon form
        self.pivots = []

    def add(self, vec):
        """Reduce vec against the basis; absorb it if independent.  Returns True if it grew."""
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((c for c in range(self.ncols) if v[c] != 0), None)
        if lead is None:
            return False
        inv = v[lead]
        v = [x / inv for x in v]
        self.rows.append(v)
        self.pivots.append(lead)
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [tuple(row) for row in self.rows]


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


def scaled_solutions_mod(rows, rhs, ncols, p, E):
    """(N, least): for every s >= least the system rows . x = p^s rhs
    (mod p^E) has N solutions x in (Z/p^E)^ncols, and for 0 <= s < least none.

    Smith-type elimination over the local ring Z/p^E: the pivot is an entry of
    least valuation v among the rows and columns left, so every other entry of
    its row is divisible by p^v and a unimodular change of variables clears
    them without touching the other rows.  The pivot equation then has p^v
    solutions if p^v divides its right side and none otherwise; a column that
    never gets a pivot is free and contributes p^E, and a row that never gets
    one needs a zero right side.  Row operations act linearly on the right
    side, so one elimination of rhs serves every scale p^s: a pivot row whose
    reduced right side has valuation w needs s >= v - w, a row without a pivot
    needs s >= E - w.
    """
    q = p**E
    valuation = {p**v: v for v in range(E + 1)}

    def val(x):
        return valuation[math.gcd(x, q)]

    mat = [[x % q for x in row] for row in rows]
    rhs = [x % q for x in rhs]
    live, cols = list(range(len(mat))), list(range(ncols))
    log = least = 0
    while live and cols:
        entries = [(val(mat[i][j]), i, j) for i in live for j in cols if mat[i][j]]
        if not entries:
            break
        v, r, c = min(entries)
        least = max(least, v - val(rhs[r]))
        live.remove(r)
        cols.remove(c)
        log += v
        pivot = p**v
        inverse = pow(mat[r][c] // pivot, -1, q)
        for i in live:
            if mat[i][c]:
                f = mat[i][c] // pivot * inverse % q
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
                rhs[i] = (rhs[i] - f * rhs[r]) % q
    least = max([least] + [E - val(rhs[i]) for i in live])
    return p ** (log + E * len(cols)), least

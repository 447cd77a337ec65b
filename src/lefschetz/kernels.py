"""Integer echelon kernels backing the exact linear algebra layer.

Rows are sparse ``{column: value}`` mappings with nonzero integer values.
``rref_int`` produces primitive, fully reduced rows; ``det_bareiss`` is a
fraction-free determinant.

``det_bareiss`` skips a row whose multiplier in the pivot column is already
zero when the pivot equals the previous one: the update would leave it
unchanged.  On the unit upper-triangular matrices with one dense bottom row of
``family.SnMatrix`` every upper row is skipped at every step, so a
determinant costs O(n^2) instead of O(n^3).
"""

from math import gcd

BACKEND = "python"  # the only implementation; benchmark runs record it


def _content(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _primitive(row):
    # divide by the content, keep the leading entry positive
    g = _content(row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row, piv, col):
    # am*row - bm*piv, scaled so the entry at ``col`` cancels
    a = piv[col]
    b = row[col]
    g = gcd(a, b)
    am = a // g
    bm = b // g
    out = dict(row) if am == 1 else {c: am * v for c, v in row.items()}
    for c, v in piv.items():
        w = out.get(c, 0) - bm * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return out


def rref_int(rows):
    """Reduced echelon form of sparse integer rows.

    Returns ``(pivot_rows, pivot_columns)`` with ``pivot_columns`` strictly
    increasing.  ``pivot_rows[i]`` is a primitive integer row whose entry at
    ``pivot_columns[i]`` is positive and whose entries at every other pivot
    column vanish; dividing each row by its pivot entry therefore recovers
    the rational reduced echelon form.
    """
    pivots = {}
    for src in rows:
        row = dict(src)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive(row)
                break
            row = _eliminate(row, piv, lead)
            if row:
                row = _primitive(row)
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    for j in range(len(out) - 1, -1, -1):
        row = out[j]
        for k in range(j + 1, len(out)):
            c = cols[k]
            if c in row:
                row = _eliminate(row, out[k], c)
        out[j] = _primitive(row)
    return out, cols


def det_bareiss(mat):
    """Exact determinant of a square integer matrix given as row lists."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        pkk = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            # With mik == 0 and pkk == prev the update leaves ri unchanged
            # (ri[j] * pkk // prev == ri[j], ri[k] already 0), so it is
            # skipped and the result is bit-identical.
            if mik or pkk != prev:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pkk - mik * rk[j]) // prev
                ri[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]

"""Integer echelon kernels backing the exact linear algebra layer.

``rref_int`` and ``rank_int`` read sparse ``{column: value}`` rows with
nonzero integer values; ``rref_int`` produces primitive, fully reduced
rows.  ``det_bareiss`` is a fraction-free determinant of dense integer
rows.

Echelonization is two passes.  The forward pass, ``_forward``, reduces each
input row against the pivot rows found so far until it vanishes or has a
new lead column, and keeps one primitive row with a positive lead per lead
column.  The back-substitution in ``rref_int`` then clears every pivot
column from the rows above it.  ``rank_int`` reads only the forward pass:
the number of its pivots.  Both passes step with the same two helpers,
``_eliminate`` and then ``_normalize``.  Each stored row is the primitive
row, with a positive lead, of a fixed sequence of eliminations: the lead
columns, and so the sequence, depend only on supports, and scaling a row
along the way changes the result only by a scalar that ``_normalize``
removes.  The output is therefore independent of where rows are
normalized.  Input rows are never modified and never returned.

``det_bareiss`` skips a row whose multiplier in the pivot column is already
zero when the pivot equals the previous one: the update would leave it
unchanged.  On the unit upper-triangular matrices with one dense bottom row of
``family.SnMatrix.rows`` every upper row is skipped at every step, so a
determinant costs O(n^2), the size of its input, instead of O(n^3).
"""

from math import gcd

BACKEND = "python"  # the only implementation; benchmark runs record it


def _normalize(row, lead):
    # divide by the content, with the sign that makes row[lead] positive
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row, piv, col):
    # am*row - bm*piv, scaled so the entry at ``col`` cancels; a new dict
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


def _forward(rows):
    """``{lead column: primitive row with a positive lead}``, one pivot row
    per lead column, from eliminating each row against the pivots so far.

    The caller's rows are never changed, and none of them is stored: a row
    stored before any elimination step is copied."""
    pivots = {}
    for src in rows:
        if not src:
            continue
        row = src
        lead = min(row)
        while True:
            piv = pivots.get(lead)
            if piv is None:
                if row is src:
                    row = _normalize(row, lead)
                    if row is src:
                        row = dict(src)
                pivots[lead] = row
                break
            row = _eliminate(row, piv, lead)
            if not row:
                break
            lead = min(row)
            row = _normalize(row, lead)
    return pivots


def rank_int(rows):
    """Rank of sparse integer rows: the number of pivots of the forward pass.

    The pivot rows have distinct lead columns, so they are linearly
    independent.  Each input row is reduced by integer combinations with
    pivot rows until it vanishes or becomes a pivot row itself, so every
    input row lies in the span of the pivots, and every pivot lies in the
    span of the input rows.  The pivots are thus a basis of the row space;
    no back-substitution is needed to count them.
    """
    return len(_forward(rows))


def rref_int(rows):
    """Reduced echelon form of sparse integer rows.

    Returns ``(pivot_rows, pivot_columns)`` with ``pivot_columns`` strictly
    increasing.  ``pivot_rows[i]`` is a primitive integer row whose entry at
    ``pivot_columns[i]`` is positive and whose entries at every other pivot
    column vanish; dividing each row by its pivot entry therefore recovers
    the rational reduced echelon form.
    """
    pivots = _forward(rows)
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    for j in range(len(out) - 1, -1, -1):
        row = out[j]
        for k in range(j + 1, len(out)):
            c = cols[k]
            if c in row:
                row = _eliminate(row, out[k], c)
        out[j] = _normalize(row, cols[j])
    return out, cols


def det_bareiss(mat):
    """Exact determinant of a square integer matrix given as dense rows,
    which are copied and never modified."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
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

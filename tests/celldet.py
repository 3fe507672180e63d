"""The per-point label-Fourier cell determinant, kept as the reference that
the determinants in the bar coordinates (gram.cell_factors) are tested
against: each point sums its Fourier blocks from the Gram entries and
expands them by minors."""

from cycbrauer.deltapoly import SymbolicParams
from cycbrauer.gram import _block_kinds, cell_form, cell_pairing
from cycbrauer.linalg import minor_det


def fourier_det(m, n, mu, params):
    """det G of cell_gram(m, n, mu, params), one label-Fourier block per
    orbit {l, -l} (identity in gram.cell_gram), or None for a symbolic
    matrix above 12 x 12; the field must hold a primitive m-th root of
    unity."""
    pairing = cell_pairing(m, n)
    values = cell_form(m, n, mu, params, compute_det=False).values
    codes = pairing.index.tolist()
    if isinstance(params, SymbolicParams) and len(codes) > 12:
        return None
    b = len(codes) // m
    xi = params.field.root_of_unity(m)
    powers = [xi ** e for e in range(m)]
    hats = [[[sum((values[v] * powers[l * s % m]
                   for s, v in enumerate(codes[a * m][c * m:(c + 1) * m])
                   if values[v]), params.zero) for l in range(m)]
             for c in range(b)] for a in range(b)]
    circulant = _block_kinds(pairing.index, m).tolist()
    det = -params.one if b * ((m - 1) // 2) % 2 else params.one
    for l in range(m // 2 + 1):
        index = [(t, a) for t in sorted({l, -l % m}) for a in range(b)]
        # the transformed matrix at rows (t, a), columns (u, c)
        block = [[hats[a][c][u] if u == (-t % m if circulant[a][c] else t)
                  else params.zero for u, c in index] for t, a in index]
        det = det * minor_det(block, params.zero, params.one)
    return det

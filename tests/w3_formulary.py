"""Golden table: every degree-4 flag monomial with its exact character value."""

from hilbtaut.charpoly import CharPoly


def sym(name):
    return CharPoly.symbol(name)


B, D, LW, W2, SG, TG = (sym(k) for k in ("b", "d", "Lomega", "omega2", "sigma", "twogm2"))
ZERO = CharPoly()

FORMULARY = [
    # monomials in at most two point slots vanish
    ((4, 0, 0, 0, 0), ZERO),
    ((0, 4, 0, 0, 0), ZERO),
    ((0, 0, 4, 0, 0), ZERO),
    ((3, 1, 0, 0, 0), ZERO),
    ((1, 3, 0, 0, 0), ZERO),
    ((2, 2, 0, 0, 0), ZERO),
    ((2, 0, 2, 0, 0), ZERO),
    ((0, 2, 2, 0, 0), ZERO),
    # monomials not involving the third stage vanish
    ((0, 0, 0, 4, 0), ZERO),
    ((1, 1, 0, 2, 0), ZERO),
    ((2, 0, 0, 2, 0), ZERO),
    ((1, 0, 0, 3, 0), ZERO),
    ((2, 1, 0, 1, 0), ZERO),
    # third powers of a single point class vanish
    ((3, 0, 1, 0, 0), ZERO),
    ((0, 3, 1, 0, 0), ZERO),
    ((1, 0, 3, 0, 0), ZERO),
    # products of all three point classes
    ((2, 1, 1, 0, 0), B * D * D),
    ((1, 2, 1, 0, 0), B * D * D),
    ((1, 1, 2, 0, 0), B * D * D),
    ((2, 0, 1, 1, 0), B * D),
    ((0, 2, 1, 1, 0), B * D),
    ((1, 0, 2, 1, 0), B * D),
    ((0, 1, 2, 1, 0), B * D),
    ((1, 1, 1, 1, 0), B * D),
    ((1, 1, 1, 0, 1), B * D * 3),
    ((0, 0, 2, 2, 0), -B * TG),
    ((0, 0, 2, 1, 1), B * 2 - B * TG),
    ((1, 0, 1, 1, 1), B * 2 - D * LW),
    ((0, 1, 1, 1, 1), B * 2 - D * LW),
    ((1, 1, 0, 1, 1), B * 2),
    ((2, 0, 0, 1, 1), B * 2),
    ((0, 2, 0, 1, 1), B * 2),
    ((1, 0, 1, 2, 0), -D * LW),
    ((0, 1, 1, 2, 0), -D * LW),
    ((1, 0, 0, 2, 1), LW * (-2)),
    ((0, 1, 0, 2, 1), LW * (-2)),
    ((0, 0, 1, 2, 1), D * (W2 - SG) - LW * 2),
    ((1, 0, 0, 1, 2), LW * (-8)),
    ((0, 1, 0, 1, 2), LW * (-8)),
    ((0, 0, 1, 1, 2), LW * (-8) + D * (W2 - SG)),
    ((0, 0, 0, 1, 3), W2 * 26 - SG * 18),
    ((0, 0, 0, 2, 2), W2 * 8 - SG * 6),
    ((0, 0, 1, 3, 0), D * (W2 - SG)),
    ((0, 0, 0, 3, 1), (W2 - SG) * 2),
    ((2, 1, 0, 0, 1), B * D * 2),
    ((2, 0, 1, 0, 1), B * D * 2),
    ((1, 2, 0, 0, 1), B * D * 2),
    ((2, 0, 0, 0, 2), B * 6 - B * TG),
    ((0, 2, 0, 0, 2), B * 6 - B * TG),
    ((0, 0, 2, 0, 2), B * 6 - B * TG),
    ((1, 1, 0, 0, 2), B * 6 - D * LW * 2),
    ((1, 0, 1, 0, 2), B * 6 - D * LW * 2),
    ((1, 0, 0, 0, 3), LW * (-24) + D * W2 - D * SG),
    ((0, 0, 1, 0, 3), LW * (-24) + D * W2 - D * SG),
    ((0, 0, 0, 0, 4), (W2 * 13 - SG * 9) * 6),
]

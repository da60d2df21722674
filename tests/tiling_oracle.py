"""Test oracle: the case-2 tiling by walking the critical chain.

In case 2 the critical orbit never enters P_N(0), so below a critical piece
past level N exactly one child is critical and every other child maps
univalently to level N.  This walk cuts the critical piece level by level up
to ``max_tile_level``, keeps the non-critical children of each critical piece
in ``sub_pieces`` order as tiles, and leaves the one critical piece at the
last level unresolved.  ``tiling.tile`` reaches the same tiles by its one
greedy descent, which tests tau <= N per child; the tests check that both
agree.
"""

from yoccoz.errors import YoccozError
from yoccoz.puzzle import critical_piece, is_critical, sub_pieces


def case2_tiles(lam, level, max_tile_level):
    """(tiles, unresolved) of the level-n critical piece in case 2."""
    piece = critical_piece(lam, level)
    tiles = []
    outer = piece
    for k in range(piece.level + 1, max_tile_level + 1):
        subs = sub_pieces(lam, outer)
        crit = [s for s in subs if is_critical(lam, s)]
        if len(crit) != 1:
            raise YoccozError("critical piece must have exactly one critical child")
        tiles.extend(s for s in subs if s != crit[0])
        outer = crit[0]
    return tiles, 1

"""Built-in demonstration groups: last-row shear families with known dynamics.

Each fixture is a small abelian group of unipotent shears acting on the last
coordinate.  They exhibit the full range of closure behaviour: lattice-closed
orbits, orbits dense in a line or plane, and convergent unbounded sequences
that become bounded after restriction to an invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import GeneratorSet
from .linalg import Vector, as_vector


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    group: GeneratorSet
    points: dict[str, Vector] = field(default_factory=dict)


def _last_row_group(fieldname: str, n: int, rows: list[list[str]], names: list[str]) -> GeneratorSet:
    gens = []
    for entries in rows:
        mat = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        mat[n - 1] = entries
        gens.append(mat)
    return GeneratorSet.from_strings(fieldname, gens, names)


def shear3() -> Fixture:
    """Two shears on R^3: orbits are lattices or dense lines."""
    g = _last_row_group("real", 3, [["1", "0", "1"], ["0", "1", "1"]], ["A", "B"])
    return Fixture(
        "shear3",
        "two unipotent shears on R^3; closed orbit at rational base points, "
        "line-dense orbit at irrational ones",
        g,
        {
            "closed": as_vector(["1", "1", "0"]),
            "dense_line": as_vector(["1", "sqrt(2)", "0"]),
            "hyperplane": as_vector(["0", "1", "0"]),
        },
    )


def shear4() -> Fixture:
    """Same phenomenon one dimension up."""
    g = _last_row_group("real", 4, [["1", "0", "0", "1"], ["0", "1", "0", "1"]], ["A", "B"])
    return Fixture(
        "shear4",
        "two unipotent shears on R^4; closed orbit for rational first "
        "coordinates, line-dense otherwise",
        g,
        {
            "closed": as_vector(["1", "1", "1/2", "1/3"]),
            "dense_line": as_vector(["1", "sqrt(2)", "0", "0"]),
        },
    )


def cshear5() -> Fixture:
    """Three complex shears on C^5: plane-dense orbit at radical base points."""
    g = _last_row_group(
        "complex",
        5,
        [
            ["1", "0", "0", "0", "1"],
            ["0", "1", "0", "0", "1"],
            ["0", "0", "1", "0", "1"],
        ],
        ["A", "B", "C"],
    )
    return Fixture(
        "cshear5",
        "three complex shears on C^5; rational-complex base points give closed "
        "orbits, the radical base point fills a complex line",
        g,
        {
            "closed": as_vector(["1+i", "2+i", "1+2*i", "0", "0"]),
            "dense_plane": as_vector(["1+i", "sqrt(3)+i*sqrt(2)", "sqrt(2)+i", "0", "0"]),
        },
    )


def radical4() -> Fixture:
    """Irrational shear on R^4: unbounded convergent sequences, bounded on the hull."""
    g = GeneratorSet.from_strings(
        "real",
        [
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["sqrt(2)-1", "1", "0", "1"],
            ],
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["1", "0", "0", "1"],
            ],
        ],
        ["A", "B"],
    )
    return Fixture(
        "radical4",
        "an irrational and a rational shear on R^4; a sequence of group "
        "elements converges pointwise while its matrices blow up, yet stays "
        "bounded on the invariant hull of the base point",
        g,
        {
            "base": as_vector(["1", "1", "0", "0"]),
            "limit": as_vector(["1", "1", "0", "sqrt(3)"]),
        },
    )


def all_fixtures() -> list[Fixture]:
    return [shear3(), shear4(), cshear5(), radical4()]

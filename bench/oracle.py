"""Closed-form Hom, Ext^1, tensor and Tor_1 of finitely generated abelian
groups, used to check the answers of the homalg workload.

Each module's cyclic decomposition comes from sympy's Smith normal form,
which shares no code with finhom.  A group is compared as its free rank
plus the sorted list of its elementary divisors (prime powers), so two
answers agree exactly when the groups are isomorphic.

For cyclic pieces Z and Z/p^a:
  Hom(Z, Z) = Z, Hom(Z, Z/m) = Z/m, Hom(Z/m, Z) = 0, Hom(Z/m, Z/n) = Z/gcd
  Ext(Z, -) = 0, Ext(Z/m, Z) = Z/m, Ext(Z/m, Z/n) = Z/gcd
  Z ox Z = Z, Z ox Z/n = Z/n, Z/m ox Z/n = Z/gcd
  Tor(Z, -) = Tor(-, Z) = 0, Tor(Z/m, Z/n) = Z/gcd
and every functor is additive in both arguments.
"""

from __future__ import annotations

from math import gcd


def decompose(gens: int, rels) -> tuple:
    """(free rank, sorted elementary divisors) of Z^gens / column span of
    the gens x r relation matrix ``rels``."""
    from sympy import Matrix, ZZ, factorint
    from sympy.matrices.normalforms import smith_normal_form

    cols = len(rels[0]) if rels else 0
    if cols == 0:
        return gens, ()
    D = smith_normal_form(Matrix(rels), domain=ZZ)
    diag = [abs(int(D[i, i])) for i in range(min(D.rows, D.cols))]
    rank = sum(1 for d in diag if d)
    elementary = []
    for d in diag:
        if d > 1:
            elementary.extend(p ** k for p, k in factorint(d).items())
    return gens - rank, tuple(sorted(elementary))


def _pair(x, y, table) -> tuple:
    """Free rank and elementary divisors of F(X, Y) for decomposed X, Y."""
    (fx, tx), (fy, ty) = x, y
    free = 0
    tors = []
    for a in [0] * fx + list(tx):
        for b in [0] * fy + list(ty):
            piece = table(a, b)
            if piece == 0:
                free += 1
            elif piece is not None and piece > 1:
                tors.append(piece)
    return free, tuple(sorted(tors))


def _hom(a, b):
    if a == 0:
        return b
    return None if b == 0 else gcd(a, b)


def _ext1(a, b):
    if a == 0:
        return None
    return a if b == 0 else gcd(a, b)


def _tensor(a, b):
    if a == 0:
        return b
    return a if b == 0 else gcd(a, b)


def _tor1(a, b):
    return None if a == 0 or b == 0 else gcd(a, b)


# 0 stands for a copy of Z, None for the zero group; gcd of two prime powers
# is again a prime power (or 1), so the pieces are elementary divisors
TABLES = {("ext", 0): _hom, ("ext", 1): _ext1, ("tor", 0): _tensor, ("tor", 1): _tor1}


def expected(kind: str, degree: int, A: tuple, B: tuple) -> tuple:
    return _pair(A, B, TABLES[(kind, degree)])


def parse_group(text: str) -> tuple:
    """Free rank and elementary divisors of a report witness such as
    ``Z/2 + Z/12 + Z`` or ``0``."""
    from sympy import factorint

    if text == "0":
        return 0, ()
    free = 0
    elementary = []
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        elif part.startswith("Z/"):
            d = int(part[2:])
            elementary.extend(p ** k for p, k in factorint(d).items())
        else:
            raise ValueError(f"unreadable group {text!r}")
    return free, tuple(sorted(elementary))


def check_report(kind: str, gens, rels, machine: str) -> str | None:
    """None when the machine report of ``finhom ext|tor --max-degree 1``
    on modules A, B matches the closed forms, else a description."""
    A = decompose(gens[0], rels[0])
    B = decompose(gens[1], rels[1])
    seen = {}
    for line in machine.splitlines():
        parts = line.split("\t")
        if parts[0] == "check" and len(parts) == 4:
            if parts[2] != "pass":
                return f"{parts[1]} reported {parts[2]}"
            seen[parts[1]] = parts[3]
    if sorted(seen) != ["degree-0", "degree-1"]:
        return f"report has checks {sorted(seen)}"
    for degree in (0, 1):
        try:
            got = parse_group(seen[f"degree-{degree}"])
        except ValueError as exc:
            return str(exc)
        want = expected(kind, degree, A, B)
        if got != want:
            return f"degree {degree}: got {got}, closed form {want}"
    return None

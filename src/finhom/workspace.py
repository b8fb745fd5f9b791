"""The line-oriented workspace input format.

Keyword-led declarations, one per line, comments starting with '#':

    ring <id> (Z | Zmod <n> | Fp <p>)
    module <id> over <ring-id> gens <g> rels [[r11,...],...]
    map <id> : <mod-id> -> <mod-id> matrix [[...],...]
    complex <id> over <ring-id> degrees <lo>..<hi> object <n> <mod-id> ... diff <n> <map-id> ...
    chainmap <id> : <cx-id> -> <cx-id> comp <n> <map-id> ...
    quiver <id> vertices v1:<ring-id> ... edges e1: v->w ringmap [...] ...
    repmodule <id> over <quiver-id> at v1 <mod-id> ... edge e1 <map-id> ...
    liftproblem <id> i <map-id> p <map-id> top <map-id> bottom <map-id>

Integers are decimal with arbitrary precision.  Every object is
validated when the workspace is loaded: differentials must square to
zero, map matrices must respect relations, lifting squares must
commute; the violated invariant is named in the error.  Parsing errors
carry line and column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .complexes import ChainComplex, ChainMap
from .errors import ParseError, ValidationError
from .matrix import Matrix
from .model import LiftProblem
from .modules import FpModule, ModuleMap
from .quiver import QuiverEdge, QuiverRep, QuiverRepModule
from .rings import Integers, IntegersModN, PrimeField, Ring


@dataclass
class Workspace:
    rings: Dict[str, Ring] = field(default_factory=dict)
    modules: Dict[str, FpModule] = field(default_factory=dict)
    maps: Dict[str, ModuleMap] = field(default_factory=dict)
    complexes: Dict[str, ChainComplex] = field(default_factory=dict)
    chainmaps: Dict[str, ChainMap] = field(default_factory=dict)
    quivers: Dict[str, QuiverRep] = field(default_factory=dict)
    repmodules: Dict[str, QuiverRepModule] = field(default_factory=dict)
    liftproblems: Dict[str, LiftProblem] = field(default_factory=dict)
    order: List[Tuple[str, str]] = field(default_factory=list)  # (kind, id)

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (self.rings == other.rings and self.modules == other.modules
                and self.maps == other.maps and self.complexes == other.complexes
                and self.chainmaps == other.chainmaps
                and self.quivers == other.quivers
                and {k: (m.vertex_modules, m.edge_maps)
                     for k, m in self.repmodules.items()}
                == {k: (m.vertex_modules, m.edge_maps)
                    for k, m in other.repmodules.items()}
                and set(self.liftproblems) == set(other.liftproblems))


class _Tokens:
    def __init__(self, text: str, line: int):
        self.raw = text
        self.line = line
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.raw) and self.raw[self.pos].isspace():
            self.pos += 1

    def peek_char(self) -> Optional[str]:
        self._skip_ws()
        return self.raw[self.pos] if self.pos < len(self.raw) else None

    def done(self) -> bool:
        return self.peek_char() is None

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, line=self.line, column=self.pos + 1)

    def word(self, expect: Optional[str] = None) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.raw) and not self.raw[self.pos].isspace() \
                and self.raw[self.pos] not in "[]:,":
            self.pos += 1
        if start == self.pos:
            raise self.error(f"expected a word{' ' + expect if expect else ''}")
        w = self.raw[start:self.pos]
        if expect is not None and w != expect:
            raise ParseError(f"expected {expect!r}, found {w!r}",
                             line=self.line, column=start + 1)
        return w

    def keyword(self, kw: str):
        self.word(expect=kw)

    def punct(self, symbol: str):
        self._skip_ws()
        if not self.raw.startswith(symbol, self.pos):
            raise self.error(f"expected {symbol!r}")
        self.pos += len(symbol)

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.raw) and self.raw[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.raw) and self.raw[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.raw[start:self.pos].lstrip("+-"):
            raise self.error("expected an integer")
        return int(self.raw[start:self.pos])

    def matrix_literal(self) -> List[List[int]]:
        self._skip_ws()
        self.punct("[")
        rows: List[List[int]] = []
        if self.peek_char() == "]":
            self.punct("]")
            return rows
        while True:
            self.punct("[")
            row: List[int] = []
            if self.peek_char() != "]":
                while True:
                    row.append(self.integer())
                    if self.peek_char() == ",":
                        self.punct(",")
                    else:
                        break
            self.punct("]")
            rows.append(row)
            if self.peek_char() == ",":
                self.punct(",")
            else:
                break
        self.punct("]")
        return rows


def parse_ring_token(tokens: _Tokens) -> Ring:
    kind = tokens.word()
    if kind == "Z":
        return Integers()
    if kind == "Zmod":
        return IntegersModN(tokens.integer())
    if kind == "Fp":
        return PrimeField(tokens.integer())
    raise tokens.error(f"unknown ring kind {kind!r} (expected Z, Zmod or Fp)")


def ring_from_name(name: str) -> Ring:
    """Ring parser for command-line flags: Z, Zmod<n> or Fp<p>."""
    if name == "Z":
        return Integers()
    if name.startswith("Zmod"):
        return IntegersModN(int(name[4:]))
    if name.startswith("Fp"):
        return PrimeField(int(name[2:]))
    raise ParseError(f"unknown ring {name!r} (expected Z, Zmod<n> or Fp<p>)")


def _matrix_from_rows(ring: Ring, rows: List[List[int]], expect_rows: int,
                      tokens: _Tokens) -> Matrix:
    if not rows:
        # [] means "no columns", whatever the declared row count
        return Matrix(ring, expect_rows, 0, [[] for _ in range(expect_rows)])
    if len(rows) != expect_rows:
        raise tokens.error(
            f"matrix has {len(rows)} rows where {expect_rows} were declared")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise tokens.error("ragged matrix literal")
    return Matrix(ring, expect_rows, cols, rows)


def parse_workspace(text: str) -> Workspace:
    ws = Workspace()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = _Tokens(stripped, lineno)
        kind = tokens.word()
        try:
            _PARSERS[kind](ws, tokens)
        except KeyError:
            raise ParseError(f"unknown declaration {kind!r}", line=lineno, column=1)
        if not tokens.done():
            raise tokens.error("trailing input after declaration")
    return ws


def _fresh(ws: Workspace, table: dict, name: str, tokens: _Tokens):
    if name in table:
        raise tokens.error(f"duplicate identifier {name!r}")


def _lookup(table: dict, name: str, what: str, tokens: _Tokens):
    try:
        return table[name]
    except KeyError:
        raise ParseError(f"dangling reference to {what} {name!r}",
                         line=tokens.line, column=tokens.pos)


def _parse_ring(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.rings, name, t)
    ws.rings[name] = parse_ring_token(t)
    ws.order.append(("ring", name))


def _parse_module(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.modules, name, t)
    t.keyword("over")
    ring = _lookup(ws.rings, t.word(), "ring", t)
    t.keyword("gens")
    g = t.integer()
    t.keyword("rels")
    rows = t.matrix_literal()
    rel = _matrix_from_rows(ring, rows, g, t)
    ws.modules[name] = FpModule(ring, g, rel)
    ws.order.append(("module", name))


def _parse_map(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.maps, name, t)
    t.punct(":")
    src = _lookup(ws.modules, t.word(), "module", t)
    t.punct("->")
    tgt = _lookup(ws.modules, t.word(), "module", t)
    t.keyword("matrix")
    rows = t.matrix_literal()
    mat = _matrix_from_rows(src.ring, rows, tgt.gens, t)
    try:
        ws.maps[name] = ModuleMap(src, tgt, mat)
    except ValidationError as exc:
        raise ValidationError(f"map {name!r}: {exc}")
    ws.order.append(("map", name))


def _parse_complex(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.complexes, name, t)
    t.keyword("over")
    ring = _lookup(ws.rings, t.word(), "ring", t)
    t.keyword("degrees")
    lo = t.integer()
    t.punct("..")
    hi = t.integer()
    objects = {}
    diffs = {}
    while not t.done():
        kw = t.word()
        if kw == "object":
            n = t.integer()
            objects[n] = _lookup(ws.modules, t.word(), "module", t)
        elif kw == "diff":
            n = t.integer()
            diffs[n] = _lookup(ws.maps, t.word(), "map", t)
        else:
            raise t.error(f"expected 'object' or 'diff', found {kw!r}")
    for n in objects:
        if not lo <= n <= hi:
            raise t.error(f"object degree {n} outside the declared range")
    try:
        ws.complexes[name] = ChainComplex(ring, objects, diffs)
    except ValidationError as exc:
        raise ValidationError(f"complex {name!r}: {exc}")
    ws.order.append(("complex", name))


def _parse_chainmap(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.chainmaps, name, t)
    t.punct(":")
    src = _lookup(ws.complexes, t.word(), "complex", t)
    t.punct("->")
    tgt = _lookup(ws.complexes, t.word(), "complex", t)
    comps = {}
    while not t.done():
        t.keyword("comp")
        n = t.integer()
        comps[n] = _lookup(ws.maps, t.word(), "map", t)
    try:
        ws.chainmaps[name] = ChainMap(src, tgt, comps)
    except ValidationError as exc:
        raise ValidationError(f"chainmap {name!r}: {exc}")
    ws.order.append(("chainmap", name))


def _parse_quiver(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.quivers, name, t)
    t.keyword("vertices")
    vertices = []
    vertex_rings = {}
    while True:
        v = t.word()
        if v == "edges":
            break
        t.punct(":")
        vertex_rings[v] = _lookup(ws.rings, t.word(), "ring", t)
        vertices.append(v)
        if t.done():
            break
    edges = []
    while not t.done():
        e = t.word()
        t.punct(":")
        src = t.word()
        t.punct("->")
        tgt = t.word()
        t.keyword("ringmap")
        images = t.matrix_literal()
        if images and images != [[1]]:
            raise t.error("ring maps are determined by 1 -> 1; use [[1]] or []")
        edges.append(QuiverEdge(e, src, tgt))
    try:
        ws.quivers[name] = QuiverRep(tuple(vertices), vertex_rings, tuple(edges))
    except ValidationError as exc:
        raise ValidationError(f"quiver {name!r}: {exc}")
    ws.order.append(("quiver", name))


def _parse_repmodule(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.repmodules, name, t)
    t.keyword("over")
    rep = _lookup(ws.quivers, t.word(), "quiver", t)
    vertex_modules = {}
    edge_maps = {}
    while not t.done():
        kw = t.word()
        if kw == "at":
            v = t.word()
            vertex_modules[v] = _lookup(ws.modules, t.word(), "module", t)
        elif kw == "edge":
            e = t.word()
            m = _lookup(ws.maps, t.word(), "map", t)
            edge_maps[e] = m.matrix
        else:
            raise t.error(f"expected 'at' or 'edge', found {kw!r}")
    try:
        ws.repmodules[name] = QuiverRepModule(rep, vertex_modules, edge_maps)
    except ValidationError as exc:
        raise ValidationError(f"repmodule {name!r}: {exc}")
    ws.order.append(("repmodule", name))


def _parse_liftproblem(ws: Workspace, t: _Tokens):
    name = t.word()
    _fresh(ws, ws.liftproblems, name, t)
    t.keyword("i")
    i = _lookup(ws.chainmaps, t.word(), "chainmap", t)
    t.keyword("p")
    p = _lookup(ws.chainmaps, t.word(), "chainmap", t)
    t.keyword("top")
    top = _lookup(ws.chainmaps, t.word(), "chainmap", t)
    t.keyword("bottom")
    bottom = _lookup(ws.chainmaps, t.word(), "chainmap", t)
    try:
        ws.liftproblems[name] = LiftProblem(i, p, top, bottom)
    except ValidationError as exc:
        raise ValidationError(f"liftproblem {name!r}: {exc}")
    ws.order.append(("liftproblem", name))


_PARSERS = {
    "ring": _parse_ring,
    "module": _parse_module,
    "map": _parse_map,
    "complex": _parse_complex,
    "chainmap": _parse_chainmap,
    "quiver": _parse_quiver,
    "repmodule": _parse_repmodule,
    "liftproblem": _parse_liftproblem,
}


# -- serialization ------------------------------------------------------------------


def _matrix_text(m: Matrix) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in m.entries) + "]"


def _ring_text(r: Ring) -> str:
    if r.modulus is None:
        return "Z"
    if r.kind == "PrimeField":
        return f"Fp {r.modulus}"
    return f"Zmod {r.modulus}"


def serialize_workspace(ws: Workspace) -> str:
    ring_names = {v: k for k, v in ws.rings.items()}
    module_names = {id(v): k for k, v in ws.modules.items()}
    map_names = {id(v): k for k, v in ws.maps.items()}
    lines = []

    def module_name(M, context):
        key = id(M)
        if key in module_names:
            return module_names[key]
        for name, mod in ws.modules.items():
            if mod == M:
                return name
        raise ValidationError(f"{context}: module is not declared in the workspace")

    def map_name(f, context):
        if id(f) in map_names:
            return map_names[id(f)]
        for name, mp in ws.maps.items():
            if mp == f:
                return name
        raise ValidationError(f"{context}: map is not declared in the workspace")

    for kind, name in ws.order:
        if kind == "ring":
            lines.append(f"ring {name} {_ring_text(ws.rings[name])}")
        elif kind == "module":
            M = ws.modules[name]
            lines.append(f"module {name} over {ring_names[M.ring]} "
                         f"gens {M.gens} rels {_matrix_text(M.relations)}")
        elif kind == "map":
            f = ws.maps[name]
            lines.append(f"map {name} : {module_name(f.source, name)} -> "
                         f"{module_name(f.target, name)} matrix {_matrix_text(f.matrix)}")
        elif kind == "complex":
            X = ws.complexes[name]
            bits = [f"complex {name} over {ring_names[X.ring]} "
                    f"degrees {X.lo}..{X.hi}"]
            for n in X.support:
                if X.module_at(n).gens:
                    bits.append(f"object {n} {module_name(X.module_at(n), name)}")
            for n in sorted(X.differentials):
                bits.append(f"diff {n} {map_name(X.differentials[n], name)}")
            lines.append(" ".join(bits))
        elif kind == "chainmap":
            f = ws.chainmaps[name]
            src = _complex_name(ws, f.source, name)
            tgt = _complex_name(ws, f.target, name)
            bits = [f"chainmap {name} : {src} -> {tgt}"]
            for n in sorted(f.components):
                bits.append(f"comp {n} {map_name(f.components[n], name)}")
            lines.append(" ".join(bits))
        elif kind == "quiver":
            q = ws.quivers[name]
            bits = [f"quiver {name} vertices"]
            for v in q.vertices:
                bits.append(f"{v}:{ring_names[q.ring_at(v)]}")
            bits.append("edges")
            for e in q.edges:
                bits.append(f"{e.name}: {e.source}->{e.target} ringmap [[1]]")
            lines.append(" ".join(bits))
        elif kind == "repmodule":
            m = ws.repmodules[name]
            qname = next(k for k, v in ws.quivers.items() if v is m.rep or v == m.rep)
            bits = [f"repmodule {name} over {qname}"]
            for v in m.rep.vertices:
                bits.append(f"at {v} {module_name(m.vertex_modules[v], name)}")
            for e in m.rep.edges:
                mapname = None
                for k, mp in ws.maps.items():
                    if mp.matrix == m.edge_maps[e.name]:
                        mapname = k
                        break
                bits.append(f"edge {e.name} {mapname}")
            lines.append(" ".join(bits))
        elif kind == "liftproblem":
            prob = ws.liftproblems[name]
            names = []
            for part in (prob.i, prob.p, prob.top, prob.bottom):
                names.append(next(k for k, v in ws.chainmaps.items() if v == part))
            lines.append(f"liftproblem {name} i {names[0]} p {names[1]} "
                         f"top {names[2]} bottom {names[3]}")
    return "\n".join(lines) + "\n"


def _complex_name(ws: Workspace, X: ChainComplex, context: str) -> str:
    for name, cx in ws.complexes.items():
        if cx == X:
            return name
    raise ValidationError(f"{context}: complex is not declared in the workspace")

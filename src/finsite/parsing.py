"""Line-oriented text formats for categories, topologies, and witnesses.

Each parser returns the built value or raises :class:`ParseFailure`
carrying span-tagged diagnostics.  Serializers emit a canonical sorted
form; parsing canonical output and serializing again is byte-identical.

Category files::

    category <name>
    object <id>
    arrow <id> : <dom> -> <cod>
    compose <g> . <f> = <h>        # h = g after f

Identities are implicit (ids ``id_<object>`` are reserved).  Objects
mentioned as arrow endpoints are registered automatically; explicit
``object`` lines are how isolated objects are declared and are always
emitted on output.

Topology files::

    topology <name> on <category>
    cover <object> : {<arrow>, ...}

Braces list generating arrows; the parser applies sieve closure, and the
maximal sieve at every object is implicit.

Witness files are a single declaration::

    monoid <G> mul=<arrow> unit=<arrow> [product=<apex>:<p1>:<p2>] [product3=...]
    group  <G> mul=<arrow> unit=<arrow> inv=<arrow> [product=...] [product3=...]
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import GroupObjectWitness, group_witness, monoid_witness
from .errors import DEFAULT_CANDIDATE_CAP, FinsiteError, ResourceError
from .fincat import FinCategory, ProductCone
from .gtopology import GrothendieckTopology
from .sieves import Sieve, _sieves_on, maximal_sieve

_ID = re.compile(r"^[\w()|.*+\-]+$")
_valid_id = _ID.match  # a match, so true, iff the token is an id
_COVER = re.compile(r"^\s*cover\s+(\S+)\s*:\s*\{(.*)\}\s*$")
_LITERAL = re.compile(r"^\s*\{(.*)\}\s*$")
_WORD = re.compile(r"\S+")
_LABEL = re.compile(r"[^,\s](?:[^,]*[^,\s])?")  # one label of a sieve literal, without the spaces around it


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col_start: int
    col_end: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col_start}-{self.col_end}"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan

    def __str__(self):
        return f"{self.span}: [{self.code}] {self.message}"


class ParseFailure(FinsiteError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class _Reader:
    def __init__(self, text, filename):
        self.filename = filename
        self.diagnostics = []
        self.lines = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].rstrip()
            if stripped:  # rstripped, so it ends in a non-space
                self.lines.append((i, stripped))

    def span(self, lineno, text, part=None, col=None):
        """The whole line, or the token ``part`` at 0-based column ``col``;
        an empty one (as in ``mul=``) marks one column, the line's last at most."""
        if part is None:
            return SourceSpan(self.filename, lineno, 1, max(len(text), 1))
        width = max(len(part), 1)
        col = min(col, len(text) - width)
        return SourceSpan(self.filename, lineno, col + 1, col + width)

    def error(self, code, message, lineno, text, part=None, col=None):
        self.diagnostics.append(Diagnostic(code, message, self.span(lineno, text, part, col)))

    def fail_if_errors(self):
        if self.diagnostics:
            raise ParseFailure(self.diagnostics)


def _col(line: str, i: int) -> int:
    """The 0-based column of the i-th whitespace-separated token of
    ``line``; found only for a diagnostic."""
    return [m.start() for m in _WORD.finditer(line)][i]


# -- labels --------------------------------------------------------------


class LabelIndex:
    """What each label (``str``) names in a category C: the only place text
    is resolved against C.

    ``objects`` and ``arrows`` map a label to the object or arrow it
    names; a label that two arrows share names the later one in
    ``C.all_arrows()``.  ``masks(x)`` maps each label that names an arrow
    into x to the down-set mask of that arrow's factoring class (see
    ``finsite.sieves``), so the sieve a literal generates is the OR of its
    labels' masks.
    """

    def __init__(self, C):
        self.C = C
        self.objects = {str(x): x for x in C.objects}
        self.arrows = {str(a): a for a in C.all_arrows()}
        self._masks: dict = {}

    def masks(self, x) -> dict:
        if x not in self._masks:
            space, arrows = _sieves_on(self.C, x), self.arrows
            down, class_of = space.down, space.class_of
            self._masks[x] = {t: down[class_of(a)] for a in self.C.arrows_into(x) if arrows[t := str(a)] == a}
        return self._masks[x]


def label_index(C) -> LabelIndex:
    """The label index of C, built the first time text is read against C."""
    if C._labels is None:
        C._labels = LabelIndex(C)
    return C._labels


def _read_sieve(r, lineno, line, labels, x, body, start):
    """The sieve on x generated by the arrows that ``body``, the inside of
    a sieve literal at column ``start`` of ``line``, names, as
    ``sieve_closure`` gives it: one dict lookup and one OR per label.
    None, with a diagnostic for each label that names no arrow into x,
    when there is such a label."""
    masks, ideal = labels.masks(x), 0
    for t in filter(None, map(str.strip, body.split(","))):
        mask = masks.get(t)
        if mask is None:
            break
        ideal |= mask
    else:
        return _sieves_on(labels.C, x).sieve(ideal)
    for m in _LABEL.finditer(body):
        t, col = m.group(), start + m.start()
        if t in masks:
            continue
        a = labels.arrows.get(t)
        if a is None:
            r.error("unknown-arrow", f"unknown arrow {t!r}", lineno, line, t, col)
        else:
            r.error("wrong-codomain", f"arrow {t!r} lands in {labels.C.cod(a)!r}, not in {str(x)!r}", lineno, line, t, col)
    return None


def parse_sieve_literal(text: str, C, x, filename: str = "<string>") -> Sieve:
    """The sieve on x that a literal ``{<arrow>, ...}`` names, read as a
    topology file's cover line is."""
    r = _Reader(text, filename)
    m = _LITERAL.match(text)
    if m is None:
        r.error("syntax", "sieve literal must be brace-delimited", 1, text)
        r.fail_if_errors()
    S = _read_sieve(r, 1, text, label_index(C), x, m.group(1), m.start(1))
    r.fail_if_errors()
    return S


# -- categories ---------------------------------------------------------


def parse_category_file(text: str, filename: str = "<string>") -> FinCategory:
    r = _Reader(text, filename)
    if not r.lines:
        r.error("missing-header", "expected a 'category <name>' header", 1, "")
        r.fail_if_errors()
    lineno, line = r.lines[0]
    head = line.split()
    if len(head) != 2 or head[0] != "category" or not _valid_id(head[1]):
        r.error("missing-header", "expected 'category <name>' as the first declaration", lineno, line)
        r.fail_if_errors()
    name = head[1]
    objects: dict = {}  # in order of first mention
    arrows: dict = {}
    compose_decls: list = []
    for lineno, line in r.lines[1:]:
        toks = line.split()
        if toks[0] == "object" and len(toks) == 2:
            obj = toks[1]
            if not _valid_id(obj):
                r.error("syntax", f"invalid object id {obj!r}", lineno, line, obj, _col(line, 1))
            elif obj in objects:
                r.error("duplicate-object", f"object {obj!r} declared twice", lineno, line, obj, _col(line, 1))
            else:
                objects[obj] = None
        elif toks[0] == "arrow" and len(toks) == 6 and toks[2] == ":" and toks[4] == "->":
            aid, dom, cod = toks[1], toks[3], toks[5]
            if not (_valid_id(aid) and _valid_id(dom) and _valid_id(cod)):
                i = next(i for i in (1, 3, 5) if not _valid_id(toks[i]))
                r.error("syntax", f"invalid id {toks[i]!r}", lineno, line, toks[i], _col(line, i))
                continue
            if aid.startswith("id_"):
                r.error("reserved-id", f"arrow id {aid!r} uses the reserved identity prefix", lineno, line, aid, _col(line, 1))
                continue
            if aid in arrows:
                r.error("duplicate-arrow", f"arrow {aid!r} declared twice", lineno, line, aid, _col(line, 1))
                continue
            objects.setdefault(dom)
            objects.setdefault(cod)
            arrows[aid] = (dom, cod)
        elif toks[0] == "compose" and len(toks) == 6 and toks[2] == "." and toks[4] == "=":
            compose_decls.append((lineno, line, toks[1], toks[3], toks[5]))
        else:
            r.error("syntax", f"unrecognized declaration {toks[0]!r}", lineno, line, toks[0], _col(line, 0))
    for x in objects:  # after the declared arrows, as in FinCategory.from_data
        arrows[f"id_{x}"] = (x, x)
    table = {}
    for lineno, line, g, f, h in compose_decls:
        try:
            (fd, fc), (gd, gc), (hd, hc) = arrows[f], arrows[g], arrows[h]
        except KeyError:
            i, a = next((i, a) for i, a in ((1, g), (3, f), (5, h)) if a not in arrows)
            r.error("unknown-arrow", f"compose line references unknown arrow {a!r}", lineno, line, a, _col(line, i))
            continue
        if fc != gd:
            r.error("ill-typed-compose", f"cod({f!r}) is {fc!r} but dom({g!r}) is {gd!r}", lineno, line, g, _col(line, 1))
            continue
        if (hd, hc) != (fd, gc):
            r.error("ill-typed-compose", f"composite {h!r} must run {fd!r} -> {gc!r}", lineno, line, h, _col(line, 5))
            continue
        if g.startswith("id_") or f.startswith("id_"):  # a unit law fixes the composite
            known = f if g.startswith("id_") else g
        else:  # the first line given for the pair does
            known = table.setdefault((g, f), h)
        if h != known:
            r.error("conflicting-compose", f"{g} . {f} is {known!r}, not {h!r}", lineno, line, h, _col(line, 5))
    r.fail_if_errors()
    try:
        return FinCategory._with_units(name, objects, arrows, table)
    except FinsiteError as e:
        raise ParseFailure([Diagnostic("structural", str(e), SourceSpan(filename, 1, 1, 1))]) from e


def serialize_category(C: FinCategory) -> str:
    lines = [f"category {C.name}"]
    for x in sorted(C.objects, key=str):
        lines.append(f"object {x}")
    for a in C.all_arrows():
        if C.is_identity(a):
            continue
        lines.append(f"arrow {a} : {C.dom(a)} -> {C.cod(a)}")
    comps = []
    for (g, f), h in C._table.items():
        if C.is_identity(g) or C.is_identity(f):
            continue
        # identity composites are referenced under their reserved name
        label = f"id_{C.dom(h)}" if C.is_identity(h) else str(h)
        comps.append((str(g), str(f), label))
    for g, f, h in sorted(comps):
        lines.append(f"compose {g} . {f} = {h}")
    return "\n".join(lines) + "\n"


# -- topologies ----------------------------------------------------------


def parse_topology_file(text: str, C, filename: str = "<string>") -> GrothendieckTopology:
    """The topology candidate that ``text`` lists over the already-parsed
    category C, as explicit cover sets.  It is only parsed: ``check_axioms``
    gives the verdict on it."""
    r = _Reader(text, filename)
    if not r.lines:
        r.error("missing-header", "expected a 'topology <name> on <category>' header", 1, "")
        r.fail_if_errors()
    lineno, line = r.lines[0]
    head = line.split()
    if len(head) != 4 or head[0] != "topology" or head[2] != "on":
        r.error("missing-header", "expected 'topology <name> on <category>'", lineno, line)
        r.fail_if_errors()
    name = head[1]
    if head[3] != C.name:
        r.error("wrong-category", f"topology is declared on {head[3]!r} but the category is {C.name!r}", lineno, line, head[3], _col(line, 3))
    labels = label_index(C)
    covers: dict = {x: {maximal_sieve(C, x)} for x in C.objects}
    for lineno, line in r.lines[1:]:
        m = _COVER.match(line)
        if not m:
            r.error("syntax", "expected 'cover <object> : {<arrows>}'", lineno, line)
            continue
        obj_tok, body = m.groups()
        x = labels.objects.get(obj_tok)
        if x is None:
            r.error("unknown-object", f"unknown object {obj_tok!r}", lineno, line, obj_tok, m.start(1))
            continue
        S = _read_sieve(r, lineno, line, labels, x, body, m.start(2))
        if S is not None:
            covers[x].add(S)
    r.fail_if_errors()
    return GrothendieckTopology(C, name=name, covers=covers)


def serialize_topology(J: GrothendieckTopology) -> str:
    """The topology file of J, each cover printed from its mask
    (``_ObjectSieves.literal``): a cover set J holds from each sieve's own
    object, and covers not yet listed from the up-set masks of J's minimal
    covers, under J's sieve cap.  The literals at each object are sorted
    by length, then text: by text, then stably by ``len``, so no key is
    computed in Python."""
    C = J.category
    name = re.sub(r"[^\w()|.*+\-]", "-", J.name) if J.name else "topology"
    lines = [f"topology {name} on {C.name}"]
    for x in sorted(C.objects, key=str):
        covers = J._covers.get(x)
        if covers is None:
            sieves = _sieves_on(C, x)
            top = (1 << len(sieves.keys)) - 1
            literals = [sieves.literal(m) for m in sieves.up_sets(J._stored(x), J._sieve_cap) if m != top]
        else:
            tx = maximal_sieve(C, x)
            literals = [S._space.literal(S._ideal) for S in covers if S is not tx]
        literals.sort()
        literals.sort(key=len)  # stable: by length, then text
        lines += [f"cover {x} : {lit}" for lit in literals]
    return "\n".join(lines) + "\n"


# -- witnesses -----------------------------------------------------------


def _parse_cone(tok, col, labels, r, lineno, line):
    """The (apex, p1, p2) that the cone spec ``tok``, at column ``col`` of
    ``line``, names."""
    parts = tok.split(":")
    if len(parts) != 3:
        r.error("syntax", f"cone spec {tok!r} must be <apex>:<p1>:<p2>", lineno, line, tok, col)
        return None
    if parts[0] not in labels.objects:
        r.error("unknown-object", f"unknown apex {parts[0]!r}", lineno, line, parts[0], col)
        return None
    for before, p in zip(parts, parts[1:]):
        col += len(before) + 1
        if p not in labels.arrows:
            r.error("unknown-arrow", f"unknown projection {p!r}", lineno, line, p, col)
            return None
    return labels.objects[parts[0]], labels.arrows[parts[1]], labels.arrows[parts[2]]


def parse_witness_file(text: str, C, filename: str = "<string>", candidate_cap: int = DEFAULT_CANDIDATE_CAP):
    r = _Reader(text, filename)
    if len(r.lines) != 1:
        r.error("syntax", "expected exactly one witness declaration", *(r.lines[0] if r.lines else (1, "")))
        r.fail_if_errors()
    lineno, line = r.lines[0]
    toks = line.split()
    kind = toks[0] if toks else ""
    if kind not in ("monoid", "group") or len(toks) < 2:
        r.error("syntax", "expected 'monoid <G> ...' or 'group <G> ...'", lineno, line)
        r.fail_if_errors()
    labels = label_index(C)
    if toks[1] not in labels.objects:
        r.error("unknown-object", f"unknown carrier {toks[1]!r}", lineno, line, toks[1], _col(line, 1))
        r.fail_if_errors()
    G = labels.objects[toks[1]]
    opts, at = {}, {}  # option -> its value, and the index of its token
    for i, tok in enumerate(toks[2:], start=2):
        if "=" not in tok:
            r.error("syntax", f"expected key=value, got {tok!r}", lineno, line, tok, _col(line, i))
            continue
        k, v = tok.split("=", 1)
        if k in opts:
            r.error("syntax", f"option {k!r} given twice", lineno, line, tok, _col(line, i))
            continue
        opts[k], at[k] = v, i
    allowed = {"mul", "unit", "product", "product3"} | ({"inv"} if kind == "group" else set())
    for k in opts:
        if k not in allowed:
            r.error("syntax", f"unknown option {k!r}", lineno, line, k, _col(line, at[k]))
    for k in ("mul", "unit") + (("inv",) if kind == "group" else ()):
        if k not in opts:
            r.error("syntax", f"missing required option {k!r}", lineno, line)
    r.fail_if_errors()

    def arrow_of(k):
        v = opts[k]
        if v not in labels.arrows:
            r.error("unknown-arrow", f"unknown arrow {v!r} for {k}", lineno, line, v, _col(line, at[k]) + len(k) + 1)
            return None
        return labels.arrows[v]

    mu, eta = arrow_of("mul"), arrow_of("unit")
    zeta = arrow_of("inv") if kind == "group" else None
    cone_gg = cone_ggg = None
    if "product" in opts:
        parsed = _parse_cone(opts["product"], _col(line, at["product"]) + len("product="), labels, r, lineno, line)
        if parsed:
            cone_gg = ProductCone(G, G, parsed[0], parsed[1], parsed[2])
    if "product3" in opts:
        if cone_gg is None:
            r.error("syntax", "product3 needs an explicit product", lineno, line)
        else:
            parsed = _parse_cone(opts["product3"], _col(line, at["product3"]) + len("product3="), labels, r, lineno, line)
            if parsed:
                cone_ggg = ProductCone(cone_gg.apex, G, parsed[0], parsed[1], parsed[2])
    r.fail_if_errors()
    try:
        if kind == "monoid":
            return monoid_witness(C, G, mu=mu, eta=eta, cone_gg=cone_gg, cone_ggg=cone_ggg, candidate_cap=candidate_cap)
        return group_witness(C, G, mu=mu, eta=eta, zeta=zeta, cone_gg=cone_gg, cone_ggg=cone_ggg, candidate_cap=candidate_cap)
    except ResourceError:
        raise  # a cap hit is not a fault of the file
    except FinsiteError as e:
        raise ParseFailure([Diagnostic("structural", str(e), r.span(lineno, line))]) from e


def serialize_witness(C, w) -> str:
    if isinstance(w, GroupObjectWitness):
        inv = f" inv={w.zeta}"
        kind = "group"
    else:
        inv = ""
        kind = "monoid"
    gg, ggg = w.cone_gg, w.cone_ggg
    return (
        f"{kind} {w.carrier} mul={w.mu} unit={w.eta}{inv}"
        f" product={gg.apex}:{gg.p1}:{gg.p2}"
        f" product3={ggg.apex}:{ggg.p1}:{ggg.p2}\n"
    )

"""Canonical JSON documents for instances, maps, bimodules and reports.

One object per file.  Canonical form: keys sorted, two-space indent,
sparse tensor entries sorted lexicographically by indices with zeros
omitted, rationals as lowest-term strings, F_p values as ints in [0, p).
Strict parsing rejects non-canonical input; lenient parsing (the default)
normalizes it and returns warnings.  parse(serialize(doc)) is bit-exact.
"""

from __future__ import annotations

import json
import os

from .bimodules import AltBimodule, PreBimodule, action_factors
from .core import EvenBilinear, EvenMap, SuperSpace, ValidationError
from .fields import FieldError, field_from_json, field_to_json
from .laws import HomAlgebra, HomPreAlgebra, LawReport

DOCUMENT_KINDS = ("algebra", "pre-algebra", "map", "bimodule", "report")
# instance document kind -> class; each class declares its PRODUCTS
_INSTANCES = {"algebra": HomAlgebra, "pre-algebra": HomPreAlgebra}
BASE_KINDS = tuple(_INSTANCES)
MAX_DIM = 64  # cap on n0 + n1 of every space a document declares
# variant -> (bimodule class, the refusal of another base); each bimodule
# class declares its BASE and its ACTIONS
_BIMODULES = {
    "alt": (AltBimodule, "an alt bimodule needs an algebra base"),
    "pre": (PreBimodule, "a pre bimodule needs a pre-algebra base"),
}


class DocumentError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class _Ctx:
    """Collects located errors; in lenient mode canonicality problems
    become warnings instead."""

    __slots__ = ("strict", "errors", "warnings")

    def __init__(self, strict):
        self.strict = strict
        self.errors = []
        self.warnings = []

    def err(self, where, msg):
        self.errors.append(f"{where}: {msg}")

    def bend(self, where, msg):
        if self.strict:
            self.errors.append(f"{where}: {msg}")
        else:
            self.warnings.append(f"{where}: {msg}")

    def raise_if_failed(self):
        if self.errors:
            raise DocumentError(self.errors)


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _scalar_from_json(field, v, ctx, where):
    # the field's own decoder knows canonical form, and bend() refuses what
    # it warns of when the reading is strict
    try:
        val, warn = field.from_json(v)
    except FieldError as e:
        ctx.err(where, str(e))
        return field.zero
    if warn:
        ctx.bend(where, warn)
    return val


def _field_from_doc(doc, ctx):
    try:
        return field_from_json(doc["scalars"])
    except (FieldError, ValidationError, KeyError, TypeError) as e:
        ctx.err("scalars", str(e) if str(e) else "missing or malformed")
        ctx.raise_if_failed()


def _dims_from_doc(doc, ctx, key="dims"):
    d = doc.get(key)
    ok = (
        isinstance(d, list)
        and len(d) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in d)
    )
    if not ok:
        ctx.err(key, f"expected [n0, n1] with nonnegative integers, got {d!r}")
    elif d[0] + d[1] > MAX_DIM:
        ctx.err(key, f"n0 + n1 = {d[0] + d[1]} exceeds the cap of {MAX_DIM}")
    ctx.raise_if_failed()
    return d[0], d[1]


def _check_keys(doc, required, optional, ctx):
    for k in required:
        if k not in doc:
            ctx.err(k, "missing")
    for k in doc:
        if k not in required and k not in optional:
            ctx.bend(k, "unknown key")
    ctx.raise_if_failed()


def entries_to_json(bil: EvenBilinear):
    field = bil.out.field
    return [[i, j, k, field.to_json(v)] for i, j, k, v in bil.sparse_entries()]


# At most this many malformed, out-of-range or duplicate entries of one list
# are reported each on its own line; one more line counts the rest.
_ENTRY_ERROR_LINES = 5


def _entries_from_json(field, lst, left, right, out, ctx, where):
    if not isinstance(lst, list):
        ctx.err(where, f"expected a list of [i,j,k,value] entries, got {type(lst).__name__}")
        ctx.raise_if_failed()
    cells = left.dim * right.dim * out.dim
    if len(lst) > cells:  # some index triple repeats or is out of range
        ctx.err(where, f"{len(lst)} entries for the {cells} cells of {left.dim}x{right.dim}x{out.dim}")
        ctx.raise_if_failed()
    entries = []
    prev = None
    seen = set()
    refused = 0

    def refuse(loc, msg):
        nonlocal refused
        refused += 1
        if refused <= _ENTRY_ERROR_LINES:
            ctx.err(loc, msg)

    for pos, entry in enumerate(lst):
        loc = f"{where}[{pos}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            refuse(loc, f"expected [i, j, k, value], got {entry!r}")
            continue
        i, j, k, v = entry
        idx_ok = all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j, k))
        if not idx_ok or not (0 <= i < left.dim and 0 <= j < right.dim and 0 <= k < out.dim):
            refuse(loc, f"indices ({i},{j},{k}) out of range")
            continue
        if (i, j, k) in seen:
            refuse(loc, f"duplicate entry for ({i},{j},{k})")
            continue
        seen.add((i, j, k))
        if prev is not None and (i, j, k) < prev:
            ctx.bend(loc, "entries not sorted by indices")
        prev = (i, j, k)
        val = _scalar_from_json(field, v, ctx, loc)
        if not val:
            ctx.bend(loc, "explicit zero entry")
            continue
        entries.append((i, j, k, val))
    if refused > _ENTRY_ERROR_LINES:
        ctx.err(where, f"and {refused - _ENTRY_ERROR_LINES} more malformed, out-of-range or "
                       "duplicate entries")
    ctx.raise_if_failed()
    try:
        return EvenBilinear.from_entries(left, right, out, entries)
    except ValidationError as e:
        raise DocumentError([f"{where}: {m}" for m in e.errors])


def matrix_to_json(m: EvenMap):
    field = m.codomain.field
    return [[field.to_json(v) for v in row] for row in m.entries]


def _matrix_from_json(field, rows, domain, codomain, ctx, where):
    ok = isinstance(rows, list) and len(rows) == codomain.dim and all(
        isinstance(r, list) and len(r) == domain.dim for r in rows
    )
    if not ok:
        ctx.err(where, f"expected a {codomain.dim} x {domain.dim} matrix")
        ctx.raise_if_failed()
    cells = [
        (r, c, _scalar_from_json(field, v, ctx, f"{where}[{r}][{c}]"))
        for r, row in enumerate(rows)
        for c, v in enumerate(row)
    ]
    ctx.raise_if_failed()
    try:
        return EvenMap.from_entries(domain, codomain, [cell for cell in cells if cell[2]])
    except ValidationError as e:
        raise DocumentError([f"{where}: {m}" for m in e.errors])


def _doc(kind, space, body, name, metadata):
    """A document of this kind over space: its scalars and dims, the body's
    keys, then the name and metadata when given.  A space beyond MAX_DIM is
    refused, as load would refuse the document."""
    doc = {"kind": kind, "scalars": field_to_json(space.field), "dims": [space.even, space.odd]}
    doc.update(body)
    for key in ("dims", "codomain_dims"):
        n = sum(doc.get(key, ()))
        if n > MAX_DIM:
            raise ValidationError([f"{key}: n0 + n1 = {n} exceeds the cap of {MAX_DIM}"])
    if name:
        doc["name"] = name
    if metadata:
        doc["metadata"] = metadata
    return doc


def algebra_to_doc(a, name: str | None = None, metadata: dict | None = None):
    """The document of an instance of either kind: each declared product
    under its key, then the twist."""
    for kind, cls in _INSTANCES.items():
        if isinstance(a, cls):
            body = {key: entries_to_json(getattr(a, attr)) for attr, key in cls.PRODUCTS}
            body["twist"] = matrix_to_json(a.alpha)
            return _doc(kind, a.space, body, name or a.name, metadata)
    raise ValidationError([f"not an instance: {a!r}"])


pre_to_doc = algebra_to_doc


def map_to_doc(f: EvenMap, name: str | None = None, metadata: dict | None = None):
    body = {"matrix": matrix_to_json(f)}
    if f.codomain != f.domain:
        body["codomain_dims"] = [f.codomain.even, f.codomain.odd]
    return _doc("map", f.domain, body, name, metadata)


def bimodule_to_doc(m, base_path: str, name: str | None = None, metadata: dict | None = None):
    for variant, (cls, _) in _BIMODULES.items():
        if isinstance(m, cls):
            body = {"variant": variant, "base": base_path, "beta": matrix_to_json(m.beta)}
            body.update((key, entries_to_json(getattr(m, key))) for key in cls.ACTIONS)
            return _doc("bimodule", m.module, body, name or m.name, metadata)
    raise ValidationError([f"not a bimodule: {m!r}"])


def report_to_doc(rep: LawReport, field) -> dict:
    doc = {"kind": "report"}
    doc.update(rep.to_json_dict(field))
    return doc


def _space_from_doc(doc, required, ctx, optional=("name", "metadata")):
    """Check the keys of a document with scalars and dims besides the
    required ones; returns its field and its space."""
    _check_keys(doc, ("kind", "scalars", "dims") + required, optional, ctx)
    field = _field_from_doc(doc, ctx)
    n0, n1 = _dims_from_doc(doc, ctx)
    return field, SuperSpace(field, n0, n1)


def doc_to_instance(doc, ctx):
    """The instance of an algebra or pre-algebra document."""
    cls = _INSTANCES[doc["kind"]]
    keys = tuple(key for _, key in cls.PRODUCTS)
    field, space = _space_from_doc(doc, keys + ("twist",), ctx)
    products = [_entries_from_json(field, doc[key], space, space, space, ctx, key) for key in keys]
    alpha = _matrix_from_json(field, doc["twist"], space, space, ctx, "twist")
    return cls(*products, alpha, name=doc.get("name", ""))


def doc_to_map(doc, ctx) -> EvenMap:
    field, domain = _space_from_doc(doc, ("matrix",), ctx, ("codomain_dims", "name", "metadata"))
    codomain = domain
    if "codomain_dims" in doc:
        codomain = SuperSpace(field, *_dims_from_doc(doc, ctx, key="codomain_dims"))
    return _matrix_from_json(field, doc["matrix"], domain, codomain, ctx, "matrix")


def doc_to_bimodule(doc, ctx, base_dir: str):
    variant = doc.get("variant")
    if variant not in ("alt", "pre"):
        raise DocumentError([f"variant: expected alt or pre, got {variant!r}"])
    cls, needs = _BIMODULES[variant]
    field, v = _space_from_doc(doc, ("base", "variant", "beta") + cls.ACTIONS, ctx)
    if not isinstance(doc["base"], str) or os.path.isabs(doc["base"]):
        raise DocumentError([f"base: expected a relative path, got {doc['base']!r}"])
    base_path = os.path.join(base_dir, doc["base"])
    _, base, warnings = _load(base_path, ctx.strict, BASE_KINDS)
    ctx.warnings += [f"{base_path}: {w}" for w in warnings]
    beta = _matrix_from_json(field, doc["beta"], v, v, ctx, "beta")
    if not isinstance(base, cls.BASE):
        raise DocumentError([f"base: {needs}"])
    a = base.space
    if a.field != field:
        mine, theirs = (json.dumps(field_to_json(f)) for f in (field, a.field))
        raise DocumentError([f"scalars: {mine} differ from the base's {theirs}"])
    acts = {key: _entries_from_json(field, doc[key], *action_factors(key, a, v), v, ctx, key)
            for key in cls.ACTIONS}
    return cls(base, beta, name=doc.get("name", ""), **acts)


def parse_text(text: str, strict: bool = False, base_dir: str | None = None):
    """Parse and validate one document.  Returns (doc, object, warnings);
    for reports the object is the doc itself."""
    return _parse(text, strict, base_dir, DOCUMENT_KINDS)


def _parse(text, strict, base_dir, kinds):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError([f"line {e.lineno} col {e.colno}: {e.msg}"])
    except RecursionError:
        raise DocumentError(["JSON nested too deeply to read"]) from None
    except ValueError as e:  # an integer literal beyond the interpreter's digit limit
        raise DocumentError([f"unreadable JSON: {e}"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["top level: expected an object"])
    kind = doc.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise DocumentError([f"kind: expected one of {', '.join(DOCUMENT_KINDS)}, got {kind!r}"])
    if kind not in kinds:
        # a bimodule base is refused before its own base is read, so base
        # resolution never nests
        raise DocumentError(
            [f"kind: a bimodule base must be an algebra or pre-algebra, got {kind!r}; "
             "base references cannot chain or cycle"]
        )
    ctx = _Ctx(strict)
    if kind in BASE_KINDS:
        obj = doc_to_instance(doc, ctx)
    elif kind == "map":
        obj = doc_to_map(doc, ctx)
    elif kind == "bimodule":
        if base_dir is None:
            raise DocumentError(["base: bimodule documents need a base directory to resolve"])
        obj = doc_to_bimodule(doc, ctx, base_dir)
    else:
        obj = doc
    return doc, obj, ctx.warnings


def load(path: str, strict: bool = False):
    return _load(path, strict, DOCUMENT_KINDS)


def _load(path, strict, kinds):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path, or not UTF-8
        raise DocumentError([f"{path}: {getattr(e, 'strerror', None) or e}"])
    try:
        return _parse(text, strict, os.path.dirname(path) or ".", kinds)
    except DocumentError as e:
        raise DocumentError([f"{path}: {m}" for m in e.errors])


def save(doc: dict, path: str) -> None:
    text = canonical_dumps(doc)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise DocumentError([f"{path}: {getattr(e, 'strerror', None) or e}"])


def object_to_doc(obj, name=None, metadata=None, base_path=None):
    if isinstance(obj, (HomAlgebra, HomPreAlgebra)):
        return algebra_to_doc(obj, name, metadata)
    if isinstance(obj, EvenMap):
        return map_to_doc(obj, name, metadata)
    if isinstance(obj, (AltBimodule, PreBimodule)):
        if base_path is None:
            raise ValidationError(["bimodule documents need a base path"])
        return bimodule_to_doc(obj, base_path, name, metadata)
    raise ValidationError([f"cannot serialize {obj!r}"])

"""parse_text on arbitrary input: mutated canonical documents and random JSON.

Whatever the text, parse_text either returns or raises DocumentError; no
other exception gets out.  Bimodule documents resolve their base against a
directory that holds the canonical base documents.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import superalt.io as sio
from superalt import integration, reduce_instance, regular_bimodule, truncpoly
from superalt.constructions import rb_split
from superalt.io import DocumentError

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def canonical_documents():
    a = truncpoly(2)
    a5 = reduce_instance(a, 5)
    pre = rb_split(a, integration(2))
    return {
        "algebra.json": sio.algebra_to_doc(a, name="p2"),
        "algebra5.json": sio.algebra_to_doc(a5),
        "pre.json": sio.pre_to_doc(pre),
        "map.json": sio.map_to_doc(integration(2)),
        "alt-bimodule.json": sio.bimodule_to_doc(regular_bimodule(a), "algebra.json"),
        "pre-bimodule.json": sio.bimodule_to_doc(regular_bimodule(pre), "pre.json"),
        "report.json": {"kind": "report", "law": "hom-alternative", "passed": True,
                        "checked": 8},
    }


DOCS = canonical_documents()


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    for name, doc in DOCS.items():
        sio.save(doc, str(d / name))
    (d / "binary.json").write_bytes(b"\xff\xfe\x00{")
    return str(d)


def parses_or_refuses(text, base_dir, strict=False):
    try:
        sio.parse_text(text, strict=strict, base_dir=base_dir)
    except DocumentError:
        pass


scalars = (
    st.none() | st.booleans() | st.integers(-10, 70) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["Q", "1/0", "0/1", "1/2", "-3", "1e5", "1e999999999", "0.5",
                      "algebra", "bimodule", "binary.json", "../x.json", "/abs.json",
                      "a\x00b", "alt", "pre", "Fp"])
    | st.text(max_size=6)
)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4)
    | st.dictionaries(st.sampled_from(["Fp", "kind", "dims"]), kids, max_size=2),
    max_leaves=12,
)


def mutate(doc, draw):
    """doc with one draw-chosen node replaced, deleted or extended."""
    if isinstance(doc, dict) and doc:
        key = draw(st.sampled_from(sorted(doc)))
    elif isinstance(doc, list) and doc:
        key = draw(st.integers(0, len(doc) - 1))
    else:
        return draw(values)
    action = draw(st.sampled_from(["descend", "descend", "replace", "delete", "add"]))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if action == "descend":
        out[key] = mutate(out[key], draw)
    elif action == "replace":
        out[key] = draw(values)
    elif action == "delete":
        del out[key]
    elif isinstance(out, dict):
        out[draw(st.text(max_size=6))] = draw(values)
    else:
        out.insert(key, draw(values))
    return out


@FUZZ
@given(name=st.sampled_from(sorted(DOCS)), data=st.data(), strict=st.booleans())
def test_mutated_canonical_documents_parse_or_raise_document_error(base_dir, name, data, strict):
    doc = DOCS[name]
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data.draw)
    parses_or_refuses(json.dumps(doc), base_dir, strict)


@FUZZ
@given(name=st.sampled_from(sorted(DOCS)), data=st.data())
def test_mutated_canonical_text_parses_or_raises_document_error(base_dir, name, data):
    text = sio.canonical_dumps(DOCS[name])
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        text = text[:at] + data.draw(st.text(max_size=3)) + text[at + cut:]
    parses_or_refuses(text, base_dir)


@FUZZ
@given(values)
def test_random_json_parses_or_raises_document_error(base_dir, value):
    parses_or_refuses(json.dumps(value), base_dir)


@FUZZ
@given(st.text(max_size=40))
def test_random_text_parses_or_raises_document_error(base_dir, text):
    parses_or_refuses(text, base_dir)


@pytest.mark.parametrize("text", [
    '{"kind": "map", "scalars": {"Fp": ' + "1" * 5000 + "}}",
    json.dumps({"kind": "map", "scalars": "Q", "dims": [1, 0], "matrix": [["1e999999999"]]}),
    json.dumps({"kind": "map", "scalars": "Q", "dims": [1, 0], "matrix": [["1e-999999999"]]}),
    json.dumps({"kind": "map", "scalars": "Q", "dims": [1, 0], "matrix": [["1e9999"]]}),
], ids=["long-integer", "huge-exponent", "tiny-exponent", "long-rational"])
def test_numbers_too_long_to_read_are_document_errors(text):
    with pytest.raises(DocumentError):
        sio.parse_text(text)


@pytest.mark.parametrize("base", ["binary.json", "a\x00b.json"])
def test_unreadable_base_paths_are_document_errors(base_dir, base):
    doc = dict(DOCS["alt-bimodule.json"], base=base)
    with pytest.raises(DocumentError):
        sio.parse_text(json.dumps(doc), base_dir=base_dir)

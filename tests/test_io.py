import json
import os
from fractions import Fraction

import pytest

import superalt.io as sio
from superalt import (
    QQ,
    EvenMap,
    SuperSpace,
    grassmann1_twisted,
    integration,
    octonions,
    reduce_instance,
    regular_bimodule,
    truncpoly,
    zero,
)
from superalt.core import ValidationError
from superalt.io import DocumentError
from conftest import to_cube


def test_canonical_dumps_shape():
    text = sio.canonical_dumps({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_algebra_round_trip_is_byte_exact(tmp_path, oct):
    doc = sio.algebra_to_doc(oct, name="octonions")
    path = tmp_path / "oct.json"
    sio.save(doc, str(path))
    text = path.read_text()
    doc2, obj, warnings = sio.parse_text(text)
    assert warnings == []
    assert sio.canonical_dumps(doc2) == text
    assert obj.mu == oct.mu and obj.alpha == oct.alpha


def test_prime_field_round_trip(tmp_path):
    a = reduce_instance(truncpoly(3), 5)
    doc = sio.algebra_to_doc(a)
    text = sio.canonical_dumps(doc)
    doc2, obj, warnings = sio.parse_text(text)
    assert warnings == []
    assert sio.canonical_dumps(doc2) == text
    assert obj.space.field.char == 5
    assert obj.mu == a.mu


def test_pre_algebra_round_trip(pre3):
    doc = sio.pre_to_doc(pre3)
    doc2, obj, _ = sio.parse_text(sio.canonical_dumps(doc))
    assert obj.prec == pre3.prec and obj.succ == pre3.succ


def test_map_round_trip(rb3):
    doc = sio.map_to_doc(rb3, name="integration")
    doc2, obj, _ = sio.parse_text(sio.canonical_dumps(doc))
    assert obj == rb3
    assert doc2["name"] == "integration"


def test_a_map_between_different_spaces_round_trips_strictly():
    domain, codomain = SuperSpace(QQ, 2, 1), SuperSpace(QQ, 1, 2)
    f = EvenMap.from_entries(domain, codomain, [(0, 1, 3), (1, 2, -1), (2, 2, Fraction(1, 2))])
    text = sio.canonical_dumps(sio.map_to_doc(f))
    doc, obj, warnings = sio.parse_text(text, strict=True)
    assert warnings == [] and sio.canonical_dumps(doc) == text
    assert doc["dims"] == [2, 1] and doc["codomain_dims"] == [1, 2]
    assert obj == f and obj.codomain == codomain


def _refusal(doc, base_dir=None):
    with pytest.raises(DocumentError) as ei:
        sio.parse_text(json.dumps(doc), base_dir=base_dir)
    return ei.value.errors


def test_an_entry_that_is_not_four_items_is_refused():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["product"][1] = [0, 1, 1]
    assert _refusal(doc) == ["product[1]: expected [i, j, k, value], got [0, 1, 1]"]


def test_a_matrix_of_the_wrong_shape_is_refused():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["twist"] = doc["twist"][:2]
    assert _refusal(doc) == ["twist: expected a 3 x 3 matrix"]


def test_a_nonzero_odd_block_entry_of_a_map_is_refused():
    doc = {"kind": "map", "scalars": "Q", "dims": [1, 1], "matrix": [["1", "1"], ["0", "1"]]}
    assert _refusal(doc) == ["matrix: odd block entry at (0, 1) must vanish"]


def test_a_bimodule_over_a_base_of_the_other_kind_is_refused(tmp_path, p3, pre3):
    sio.save(sio.algebra_to_doc(p3), str(tmp_path / "alg.json"))
    sio.save(sio.pre_to_doc(pre3), str(tmp_path / "pre.json"))
    alt = sio.bimodule_to_doc(regular_bimodule(p3), "pre.json")
    assert _refusal(alt, str(tmp_path)) == ["base: an alt bimodule needs an algebra base"]
    pre = sio.bimodule_to_doc(regular_bimodule(pre3), "alg.json")
    assert _refusal(pre, str(tmp_path)) == ["base: a pre bimodule needs a pre-algebra base"]


def test_a_bimodule_over_a_base_of_other_scalars_is_refused(tmp_path, oct):
    sio.save(sio.algebra_to_doc(reduce_instance(oct, 5)), str(tmp_path / "oct5.json"))
    sio.save(sio.bimodule_to_doc(regular_bimodule(oct), "oct5.json"), str(tmp_path / "reg.json"))
    with pytest.raises(DocumentError) as ei:
        sio.load(str(tmp_path / "reg.json"))
    assert ei.value.errors == [
        f"{tmp_path / 'reg.json'}: scalars: \"Q\" differ from the base's {{\"Fp\": 5}}"]


def test_sparse_entries_omit_zeros_and_sort(oct):
    entries = sio.algebra_to_doc(oct)["product"]
    assert all(len(e) == 4 and e[3] != "0" for e in entries)
    assert entries == sorted(entries, key=lambda e: (e[0], e[1], e[2]))


def test_lenient_parsing_normalizes_scalars(tmp_path):
    # a rational not in lowest terms, a bare int over Q, a residue beyond F_5
    for p, written, value in ((0, "2/4", Fraction(1, 2)), (0, 3, 3), (5, 7, 2)):
        doc = sio.algebra_to_doc(reduce_instance(truncpoly(3), p) if p else truncpoly(3))
        doc["product"][0][3] = written
        text = sio.canonical_dumps(doc)
        doc2, obj, warnings = sio.parse_text(text)
        assert len(warnings) == 1 and warnings[0].startswith("product[0]: ")
        assert str(written) in warnings[0]
        assert to_cube(obj.mu)[0][0][0] == value
        with pytest.raises(DocumentError, match=r"product\[0\]: "):
            sio.parse_text(text, strict=True)


def test_unsorted_entries_warn_then_error(tmp_path):
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["product"].reverse()
    text = json.dumps(doc)
    _, _, warnings = sio.parse_text(text)
    assert any("sort" in w.lower() for w in warnings)
    with pytest.raises(DocumentError):
        sio.parse_text(text, strict=True)


def test_duplicate_entries_are_always_an_error():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["product"].append(list(doc["product"][0]))
    doc["product"].sort(key=lambda e: (e[0], e[1], e[2]))
    with pytest.raises(DocumentError, match="duplicate"):
        sio.parse_text(json.dumps(doc))


def test_explicit_zero_entries_warn_and_drop():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["product"].insert(0, [0, 0, 1, "0"])
    _, obj, warnings = sio.parse_text(json.dumps(doc))
    assert any("zero" in w.lower() for w in warnings)
    assert obj.mu == truncpoly(3).mu


def test_parity_violating_entries_are_rejected():
    doc = sio.algebra_to_doc(grassmann1_twisted())
    doc["product"].insert(0, [0, 0, 1, "1"])
    with pytest.raises(DocumentError):
        sio.parse_text(json.dumps(doc))


def test_out_of_range_indices_are_rejected():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["product"].append([0, 0, 9, "1"])
    with pytest.raises(DocumentError):
        sio.parse_text(json.dumps(doc))


def test_unknown_keys_warn_in_lenient_mode():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["comment"] = "hello"
    _, _, warnings = sio.parse_text(json.dumps(doc))
    assert any("comment" in w for w in warnings)
    with pytest.raises(DocumentError):
        sio.parse_text(json.dumps(doc), strict=True)


def test_characteristic_two_documents_are_rejected():
    doc = sio.algebra_to_doc(truncpoly(3))
    doc["scalars"] = {"Fp": 2}
    with pytest.raises(DocumentError, match="characteristic 2"):
        sio.parse_text(json.dumps(doc))


def test_malformed_json_reports_location():
    with pytest.raises(DocumentError, match="line"):
        sio.parse_text("{not json")


def test_unknown_kind_is_rejected():
    with pytest.raises(DocumentError, match="kind"):
        sio.parse_text(json.dumps({"kind": "spell", "scalars": "Q"}))


def test_bimodule_documents_resolve_relative_paths(tmp_path, p3):
    base_doc = sio.algebra_to_doc(p3)
    sio.save(base_doc, str(tmp_path / "base.json"))
    sub = tmp_path / "sub"
    sub.mkdir()
    m = regular_bimodule(p3)
    mdoc = sio.bimodule_to_doc(m, "../base.json")
    sio.save(mdoc, str(sub / "mod.json"))
    doc2, obj, warnings = sio.load(str(sub / "mod.json"))
    assert warnings == []
    assert obj.base.mu == p3.mu
    assert obj.lsucc == m.lsucc and obj.rprec == m.rprec


def test_bimodule_round_trip_is_byte_exact(tmp_path, pre3, p3):
    sio.save(sio.pre_to_doc(pre3), str(tmp_path / "pre.json"))
    m = regular_bimodule(pre3)
    doc = sio.bimodule_to_doc(m, "pre.json")
    path = tmp_path / "m.json"
    sio.save(doc, str(path))
    text = path.read_text()
    doc2, obj, _ = sio.load(str(path))
    assert sio.canonical_dumps(doc2) == text
    assert obj.lprec == m.lprec and obj.rsucc == m.rsucc


def test_bimodule_text_needs_a_base_directory(p3, tmp_path):
    sio.save(sio.algebra_to_doc(p3), str(tmp_path / "base.json"))
    doc = sio.bimodule_to_doc(regular_bimodule(p3), "base.json")
    with pytest.raises(DocumentError, match="base"):
        sio.parse_text(sio.canonical_dumps(doc))
    _, obj, _ = sio.parse_text(sio.canonical_dumps(doc), base_dir=str(tmp_path))
    assert obj.base.mu == p3.mu


def test_load_wraps_errors_with_the_path(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[]")
    with pytest.raises(DocumentError) as ei:
        sio.load(str(p))
    assert "bad.json" in str(ei.value)


def test_report_documents_serialize_failures(oct):
    from superalt import check_product_law

    rep = check_product_law(oct, "hom-associative")
    doc = sio.report_to_doc(rep, oct.space.field)
    assert doc["kind"] == "report"
    assert doc["witness"] == [1, 2, 3]
    assert doc["residual"][6] == "-2"
    sio.canonical_dumps(doc)  # must be serializable


def test_object_to_doc_dispatch(p3, pre3, rb3):
    assert sio.object_to_doc(p3)["kind"] == "algebra"
    assert sio.object_to_doc(pre3)["kind"] == "pre-algebra"
    assert sio.object_to_doc(rb3)["kind"] == "map"
    m = regular_bimodule(p3)
    assert sio.object_to_doc(m, base_path="x.json")["kind"] == "bimodule"


def test_save_is_atomic_about_trailing_newline(tmp_path, p3):
    path = tmp_path / "a.json"
    sio.save(sio.algebra_to_doc(p3), str(path))
    assert path.read_text().endswith("}\n")


def test_grassmann_document_shape():
    from superalt import grassmann1

    doc = sio.algebra_to_doc(grassmann1())
    assert doc["dims"] == [1, 1]
    assert len(doc["product"]) == 3


def test_dims_are_capped_before_allocation():
    n = sio.MAX_DIM
    doc = {"kind": "map", "scalars": "Q", "dims": [n, 0], "matrix": [["0"] * n] * n}
    _, obj, _ = sio.parse_text(json.dumps(doc))
    assert obj.domain.dim == n
    doc = {"kind": "algebra", "scalars": "Q", "dims": [n, 1], "product": [], "twist": []}
    with pytest.raises(DocumentError, match=f"dims: n0 \\+ n1 = {n + 1} exceeds the cap"):
        sio.parse_text(json.dumps(doc))


def test_no_document_is_written_beyond_the_cap():
    n = sio.MAX_DIM
    assert sio.object_to_doc(zero(n, 0))["dims"] == [n, 0]
    with pytest.raises(ValidationError, match=f"dims: n0 \\+ n1 = {n + 1} exceeds the cap"):
        sio.object_to_doc(zero(n + 1, 0))
    wide = EvenMap.zero(SuperSpace(QQ, 1, 0), SuperSpace(QQ, n, 1))
    with pytest.raises(ValidationError, match=f"codomain_dims: n0 \\+ n1 = {n + 1} exceeds"):
        sio.object_to_doc(wide)


@pytest.mark.parametrize("opening,closing", [("[", ""), ('{"a": ', ""), ("[", "]")],
                         ids=["open-lists", "open-objects", "closed-lists"])
def test_deeply_nested_json_is_a_document_error(opening, closing):
    with pytest.raises(DocumentError, match="nested"):
        sio.parse_text(opening * 100000 + closing * 100000)

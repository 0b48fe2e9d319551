"""End-to-end command tests driven through main() in-process."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import superalt
import superalt.io as sio
from superalt import (
    QQ,
    EvenMap,
    HomAlgebra,
    PrimeField,
    alt_of,
    averaging_product,
    centroid_twist,
    corpus,
    derived_n,
    grassmann1,
    integration,
    octonions,
    plus_jordan,
    rb_split,
    reduce_instance,
    regular_bimodule,
    scale,
    search_operators,
    tensor_alt,
    transpose,
    truncpoly,
    yau_twist,
    zero,
)
from superalt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def workdir(tmp_path, capsys):
    """Directory pre-seeded with the documents most commands need."""
    d = tmp_path
    assert main(["corpus", "p3", "--out", str(d / "p3.json")]) == 0
    assert main(["corpus", "integration-3", "--out", str(d / "R.json")]) == 0
    assert main(["corpus", "octonions", "--out", str(d / "oct.json")]) == 0
    capsys.readouterr()
    return d


def test_a_reader_that_closes_stdout_early_ends_every_verb_with_one_error_line(workdir):
    # the child's stdout is a pipe whose read end is closed before it starts,
    # as when `superalt corpus list | head -1` has read its line
    src = str(Path(superalt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["corpus", "list"], ["check", "oct.json", "--law", "hom-alternative", "--jobs", "1"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "superalt.cli", *argv], cwd=workdir, env=env,
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2, argv
        assert proc.stderr.splitlines() == [
            "error: standard output was closed before the report was written"], argv


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    for name in ("octonions", "p3", "grassmann1", "matrix-2", "l1-oct"):
        assert name in out


def test_every_listed_corpus_name_builds_over_q_and_f5():
    for name in corpus.builtin_names():
        for prime, field in ((None, QQ), (5, PrimeField(5))):
            kind, obj = corpus.build_named(name, prime=prime)
            if kind == "algebra":
                assert isinstance(obj, HomAlgebra) and obj.space.field == field, (name, prime)
            else:
                assert kind == "map", name
                assert isinstance(obj, EvenMap) and obj.domain.field == field, (name, prime)


def test_corpus_unknown_name(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", "nope", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "nope" in err


def test_corpus_prime_reduction(capsys, tmp_path):
    out_path = tmp_path / "p35.json"
    code, _, _ = run(capsys, "corpus", "p3", "--prime", "5", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["scalars"] == {"Fp": 5}


def test_check_pass_emits_report(workdir, capsys):
    code, out, _ = run(capsys, "check", str(workdir / "oct.json"), "--law", "hom-alternative")
    assert code == 0
    human, rest = out.split("\n", 1)
    assert human == "PASS hom-alternative: 512 tuples checked"
    rep = json.loads(rest)
    assert rep["kind"] == "report" and rep["passed"] is True


def test_check_failure_exits_one_with_witness(workdir, capsys):
    code, out, _ = run(capsys, "check", str(workdir / "oct.json"), "--law", "hom-associative")
    assert code == 1
    human, rest = out.split("\n", 1)
    assert "FAIL hom-associative" in human
    assert "[1, 2, 3]" in human
    rep = json.loads(rest)
    assert rep["witness"] == [1, 2, 3]
    assert rep["residual"][6] == "-2"


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such.json", "--law", "hom-associative")
    assert code == 2 and "no-such.json" in err


def test_check_rejects_unknown_law(workdir):
    with pytest.raises(SystemExit) as ei:
        main(["check", str(workdir / "oct.json"), "--law", "jacobi"])
    assert ei.value.code == 2


def test_construct_chain_and_determinism(workdir, capsys):
    pre_path = workdir / "p3pre.json"
    code, out, _ = run(
        capsys, "construct", "rb-split",
        "--in", str(workdir / "p3.json"), "--map", str(workdir / "R.json"),
        "--out", str(pre_path),
    )
    assert code == 0 and "wrote" in out
    first = pre_path.read_text()
    assert main([
        "construct", "rb-split",
        "--in", str(workdir / "p3.json"), "--map", str(workdir / "R.json"),
        "--out", str(pre_path),
    ]) == 0
    capsys.readouterr()
    assert pre_path.read_text() == first

    code, out, _ = run(capsys, "check-pre", str(pre_path), "--law", "hom-prealternative")
    assert code == 0 and "PASS" in out

    alt_path = workdir / "p3alt.json"
    assert main(["construct", "alt", "--in", str(pre_path), "--out", str(alt_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(alt_path), "--law", "hom-alternative")
    assert code == 0


def test_construct_records_provenance_metadata(workdir, capsys):
    out_path = workdir / "pre.json"
    run(capsys, "construct", "rb-split",
        "--in", str(workdir / "p3.json"), "--map", str(workdir / "R.json"),
        "--out", str(out_path))
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["operation"] == "rb-split"
    # provenance records the paths exactly as given on the command line
    assert doc["metadata"]["inputs"] == [str(workdir / "p3.json")]
    assert doc["metadata"]["map"] == str(workdir / "R.json")


def test_construct_hypothesis_failure_exits_one(workdir, capsys):
    id_path = workdir / "id.json"
    sio.save(sio.map_to_doc(EvenMap.identity(truncpoly(3).space)), str(id_path))
    code, out, err = run(
        capsys, "construct", "rb-split",
        "--in", str(workdir / "p3.json"), "--map", str(id_path),
        "--out", str(workdir / "bad.json"),
    )
    assert code == 1
    assert "hypothesis failed for rb_split" in err
    human, rest = out.split("\n", 1)
    assert "FAIL rota-baxter" in human
    rep = json.loads(rest)
    assert rep["law"] == "rota-baxter" and rep["passed"] is False
    assert rep["residual"] and all(isinstance(v, str) for v in rep["residual"])


def test_construct_hypothesis_failure_over_fp_reports_residues(tmp_path, capsys):
    p35 = reduce_instance(truncpoly(3), 5)
    sio.save(sio.algebra_to_doc(p35), str(tmp_path / "p35.json"))
    sio.save(sio.map_to_doc(EvenMap.identity(p35.space)), str(tmp_path / "id.json"))
    code, out, err = run(capsys, "construct", "rb-split", "--in", str(tmp_path / "p35.json"),
                         "--map", str(tmp_path / "id.json"), "--out", str(tmp_path / "bad.json"))
    assert code == 1 and "hypothesis failed for rb_split" in err
    rep = json.loads(out.split("\n", 1)[1])
    assert rep["residual"] and all(type(v) is int for v in rep["residual"])


def test_construct_scale_takes_a_scalar(workdir, capsys):
    pre_path = workdir / "pre.json"
    run(capsys, "construct", "rb-split", "--in", str(workdir / "p3.json"),
        "--map", str(workdir / "R.json"), "--out", str(pre_path))
    out_path = workdir / "scaled.json"
    code, _, _ = run(capsys, "construct", "scale", "--in", str(pre_path),
                     "--lambda", "5/7", "--out", str(out_path))
    assert code == 0
    assert main(["check-pre", str(out_path), "--law", "hom-prealternative"]) == 0


@pytest.mark.parametrize("verb", ["construct", "search"])
def test_a_scalar_option_is_read_as_a_document_scalar(workdir, capsys, verb):
    """--lambda and --weight go through the field's JSON decoder, as the
    scalars of a document do: what it warns of (a rational not in lowest
    terms, a residue outside [0, p)) is refused with one error line and
    exit 2 under --strict-canonical, and read with one warning line
    otherwise, the same value as its canonical form."""
    if verb == "construct":
        pre = workdir / "pre.json"
        run(capsys, "construct", "rb-split", "--in", str(workdir / "p3.json"),
            "--map", str(workdir / "R.json"), "--out", str(pre))

        def argv(value, name):
            return ["construct", "scale", "--in", str(pre), "--lambda", value,
                    "--out", str(workdir / name)]

        given, canonical = "2/4", "1/2"
        message = "--lambda: rational '2/4' not in canonical form (want '1/2')"
    else:
        run(capsys, "corpus", "truncpoly-3", "--prime", "5", "--out", str(workdir / "p35.json"))

        def argv(value, name):
            return ["search", str(workdir / "p35.json"), "--kind", "rota-baxter",
                    "--weight", value, "--budget", "2000"]

        given, canonical = "7", "2"
        message = "--weight: residue 7 outside [0, 5)"
    assert run(capsys, *argv(given, "strict.json"), "--strict-canonical") == \
        (2, "", f"error: {message}\n")
    assert not (workdir / "strict.json").exists()
    code, out, err = run(capsys, *argv(given, "lenient.json"))
    assert (code, err) == (0, f"warning: {message}\n")
    expected = run(capsys, *argv(canonical, "canonical.json"))
    if verb == "construct":
        docs = [json.loads((workdir / name).read_text()) for name in ("lenient.json", "canonical.json")]
        assert [doc.pop("metadata")["lambda"] for doc in docs] == [given, canonical]
        assert docs[0] == docs[1]
    else:
        assert expected == (0, out, "")


# -- every construct op ----------------------------------------------------
# Each op runs on documents written from in-process instances, and its
# output must be the same construction serialized in process, with the
# provenance the command line gives.

CONSTRUCT_CASES = {
    # op: (--in files, option argv, the construction on the instances by file stem)
    "alt": (["pre"], [], lambda o: alt_of(o["pre"])),
    "transpose": (["pre"], [], lambda o: transpose(o["pre"])),
    "plus-jordan": (["oct"], [], lambda o: plus_jordan(o["oct"])),
    "tensor": (["g1", "p3"], [], lambda o: tensor_alt(o["g1"], o["p3"])),
    "centroid-twist": (["p3"], ["--map", "two.json"], lambda o: centroid_twist(o["p3"], o["two"])),
    "averaging": (["p3"], ["--map", "two.json"], lambda o: averaging_product(o["p3"], o["two"])),
    "rb-split": (["p3"], ["--map", "R.json"], lambda o: rb_split(o["p3"], o["R"])),
    "yau-twist": (["pre"], ["--map", "id.json"], lambda o: yau_twist(o["pre"], o["id"])),
    "derived": (["pre"], ["--n", "2"], lambda o: derived_n(o["pre"], 2)),
    "scale": (["pre"], ["--lambda", "5/7"], lambda o: scale(o["pre"], Fraction(5, 7))),
}


@pytest.fixture()
def construct_dir(tmp_path, monkeypatch):
    """A working directory holding one document per instance a construct op
    reads; returns the instances by file stem."""
    monkeypatch.chdir(tmp_path)
    p3 = truncpoly(3)
    objs = {
        "p3": p3,
        "oct": octonions(),
        "g1": grassmann1(),
        "R": integration(3),
        "pre": rb_split(p3, integration(3)),
        "two": EvenMap.diagonal(p3.space, [Fraction(2)] * 3),
        "id": EvenMap.identity(p3.space),
        "z33": zero(33, 0),
    }
    for stem, obj in objs.items():
        sio.save(sio.object_to_doc(obj), f"{stem}.json")
    return objs


@pytest.mark.parametrize("op", list(CONSTRUCT_CASES))
def test_every_construct_op_writes_its_construction(construct_dir, capsys, op):
    stems, option, build = CONSTRUCT_CASES[op]
    inputs = [f"{stem}.json" for stem in stems]
    code, out, err = run(capsys, "construct", op, "--in", *inputs, *option, "--out", "out.json")
    metadata = {"operation": op, "inputs": inputs}
    if option:
        key, value = option[0][2:], option[1]
        metadata[key] = int(value) if key == "n" else value
    doc = sio.object_to_doc(build(construct_dir), metadata=metadata)
    assert (code, err) == (0, "")
    assert out == f"wrote out.json ({doc['kind']} {doc['name']})\n"
    with open("out.json") as fh:
        assert fh.read() == sio.canonical_dumps(doc)


@pytest.mark.parametrize("argv, message", [
    (["derived", "--in", "pre.json"], "derived needs --n"),
    (["scale", "--in", "pre.json"], "scale needs --lambda"),
    (["rb-split", "--in", "p3.json"], "rb-split needs --map"),
    (["alt", "--in", "pre.json", "pre.json"], "alt takes exactly one --in file"),
    (["tensor", "--in", "p3.json"], "tensor takes exactly two --in files"),
    (["alt", "--in", "pre.json", "--map", "R.json", "--n", "5", "--lambda", "2"],
     "alt does not take --map"),
    (["rb-split", "--in", "p3.json", "--map", "R.json", "--n", "5"], "rb-split does not take --n"),
    (["derived", "--in", "pre.json", "--n", "1", "--lambda", "2"],
     "derived does not take --lambda"),
    (["tensor", "--in", "g1.json", "z33.json"],
     "tensor: the result's n0 + n1 = 66 exceeds the cap of 64"),
], ids=["derived-n", "scale-lambda", "rb-split-map", "alt-two-inputs", "tensor-one-input",
        "alt-stray-map", "rb-split-stray-n", "derived-stray-lambda", "tensor-beyond-the-cap"])
def test_a_construct_op_refuses_a_stray_or_missing_option_or_input(construct_dir, capsys, argv,
                                                                   message):
    code, out, err = run(capsys, "construct", *argv, "--out", "out.json")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]
    assert not os.path.exists("out.json")


def test_verify_bimodule_both_systems(workdir, capsys, tmp_path):
    p3 = truncpoly(3)
    mdoc = sio.bimodule_to_doc(regular_bimodule(p3), "p3.json")
    sio.save(mdoc, str(workdir / "reg.json"))
    code, out, _ = run(capsys, "verify-bimodule", str(workdir / "reg.json"), "--law", "alt")
    assert code == 0 and "alt-bimodule" in out

    pre_path = workdir / "pre.json"
    run(capsys, "construct", "rb-split", "--in", str(workdir / "p3.json"),
        "--map", str(workdir / "R.json"), "--out", str(pre_path))
    from superalt import rb_split

    pm = regular_bimodule(rb_split(p3, integration(3)))
    sio.save(sio.bimodule_to_doc(pm, "pre.json"), str(workdir / "regpre.json"))
    code, out, _ = run(capsys, "verify-bimodule", str(workdir / "regpre.json"), "--law", "pre")
    assert code == 0 and "pre-bimodule" in out


@pytest.mark.parametrize("names", [["self.json"], ["a.json", "b.json"]])
def test_verify_bimodule_cyclic_base_is_a_document_error(tmp_path, capsys, names):
    for i, name in enumerate(names):
        doc = {"kind": "bimodule", "base": names[(i + 1) % len(names)], "variant": "alt",
               "scalars": "Q", "dims": [1, 0], "beta": [["1"]], "lsucc": [], "rprec": []}
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-bimodule", str(tmp_path / names[0]), "--law", "alt")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "cycl" in line


def test_verify_bimodule_long_base_chain_is_a_document_error(workdir, capsys):
    # 400 bimodule documents, each naming the next as its base, the last p3.json
    names = [f"chain{i}.json" for i in range(400)] + ["p3.json"]
    for name, base in zip(names, names[1:]):
        doc = {"kind": "bimodule", "base": base, "variant": "alt",
               "scalars": "Q", "dims": [1, 0], "beta": [["1"]], "lsucc": [], "rprec": []}
        (workdir / name).write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-bimodule", str(workdir / names[0]), "--law", "alt")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "chain" in line


def test_verify_bimodule_passes_on_base_warnings(workdir, capsys):
    doc = json.loads((workdir / "p3.json").read_text())
    doc["product"][0][3] = "1/1"  # same value, non-canonical spelling
    (workdir / "bent.json").write_text(json.dumps(doc))
    sio.save(sio.bimodule_to_doc(regular_bimodule(truncpoly(3)), "bent.json"),
             str(workdir / "reg.json"))
    code, out, err = run(capsys, "verify-bimodule", str(workdir / "reg.json"), "--law", "alt")
    assert code == 0 and "alt-bimodule" in out
    (line,) = err.splitlines()
    assert line.startswith(f"warning: {workdir / 'bent.json'}: product[0]") and "1/1" in line


def test_verify_bimodule_rejects_an_absolute_base_path(workdir, capsys):
    mdoc = sio.bimodule_to_doc(regular_bimodule(truncpoly(3)), str(workdir / "p3.json"))
    sio.save(mdoc, str(workdir / "reg.json"))
    code, out, err = run(capsys, "verify-bimodule", str(workdir / "reg.json"), "--law", "alt")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "relative path" in line


@pytest.mark.parametrize("dims", [[100000, 0], [0, 65], [40, 25]])
@pytest.mark.parametrize("key", ["dims", "codomain_dims"])
def test_oversized_dims_are_a_document_error(tmp_path, capsys, key, dims):
    doc = {"kind": "map", "scalars": "Q", "dims": [1, 0], "matrix": [["1"]]}
    doc[key] = dims
    (tmp_path / "big.json").write_text(json.dumps(doc))
    (tmp_path / "a.json").write_text(json.dumps(
        {"kind": "algebra", "scalars": "Q", "dims": [1, 0], "product": [], "twist": [["1"]]}))
    code, out, err = run(capsys, "check-operator", str(tmp_path / "a.json"),
                         "--map", str(tmp_path / "big.json"), "--kind", "centroid")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and f"{key}: n0 + n1 = {sum(dims)} exceeds the cap" in line


def test_bad_entries_are_reported_in_a_few_lines(tmp_path, capsys):
    # 60 copies of one entry fit the 64 cells of a 4 x 4 x 4 product: 59
    # duplicates, of which a few are listed and the rest counted
    doc = {"kind": "algebra", "scalars": "Q", "dims": [2, 2], "product": [[0, 0, 0, "1"]] * 60,
           "twist": [["1" if i == j else "0" for j in range(4)] for i in range(4)]}
    (tmp_path / "dup.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(tmp_path / "dup.json"), "--law", "hom-alternative")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) <= 6 and all(line.startswith("error: ") for line in lines)
    assert "duplicate entry for (0,0,0)" in lines[0] and "and 54 more" in lines[-1]
    # a list longer than the cells is refused before any entry is read
    doc["product"] = [[0, 0, 0, "1"]] * 65
    (tmp_path / "long.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(tmp_path / "long.json"), "--law", "hom-alternative")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith("product: 65 entries for the 64 cells of 4x4x4")


def test_check_operator_exit_codes(workdir, capsys):
    code, out, _ = run(capsys, "check-operator", str(workdir / "p3.json"),
                       "--map", str(workdir / "R.json"), "--kind", "rota-baxter")
    assert code == 0 and "PASS rota-baxter" in out
    id_path = workdir / "id.json"
    sio.save(sio.map_to_doc(EvenMap.identity(truncpoly(3).space)), str(id_path))
    code, out, _ = run(capsys, "check-operator", str(workdir / "p3.json"),
                       "--map", str(id_path), "--kind", "rota-baxter")
    assert code == 1 and "FAIL" in out


def test_check_operator_o_operator_needs_bimodule(workdir, capsys):
    code, _, err = run(capsys, "check-operator", str(workdir / "p3.json"),
                       "--map", str(workdir / "R.json"), "--kind", "o-operator")
    assert code == 2 and "bimodule" in err
    mdoc = sio.bimodule_to_doc(regular_bimodule(truncpoly(3)), "p3.json")
    sio.save(mdoc, str(workdir / "reg.json"))
    code, out, _ = run(capsys, "check-operator", str(workdir / "p3.json"),
                       "--map", str(workdir / "R.json"), "--kind", "o-operator",
                       "--bimodule", str(workdir / "reg.json"))
    assert code == 0


def test_search_reports_counts(capsys, tmp_path):
    a_path = tmp_path / "p35.json"
    main(["corpus", "p3", "--prime", "5", "--out", str(a_path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "search", str(a_path), "--kind", "rota-baxter",
                       "--budget", "5000")
    assert code == 0
    human, rest = out.split("\n", 1)
    assert human == "search rota-baxter: 30 found, 5000 of 1953125 candidates checked (budget reached)"
    doc = json.loads(rest)
    assert doc["search"]["exhausted"] is False
    assert len(doc["search"]["found"]) == 30


def test_signed_permutation_search_reports_the_library_result(capsys, tmp_path):
    a_path = tmp_path / "l1p33.json"
    main(["corpus", "l1-p3", "--prime", "3", "--out", str(a_path)])
    capsys.readouterr()
    a = corpus.build_named("l1-p3", prime=3)[1]
    for budget in (None, 20):
        argv = ["search", str(a_path), "--kind", "endomorphism", "--signed-perms"]
        argv += [] if budget is None else ["--budget", str(budget)]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        res = search_operators(a, "endomorphism", budget=budget, signed_perms=True)
        human, rest = out.split("\n", 1)
        tail = "space exhausted" if res.exhausted else "budget reached"
        assert human == (f"search endomorphism: {len(res.found)} found, {res.candidates_checked} "
                         f"of {res.space_size} candidates checked ({tail})")
        assert json.loads(rest)["search"] == {
            "operator": "endomorphism",
            "found": [sio.matrix_to_json(f) for f in res.found],
            "candidates_checked": res.candidates_checked,
            "exhausted": res.exhausted,
            "space_size": res.space_size,
        }
    # -v logs one search line, and stdout stays as it is
    code, verbose, err = run(capsys, *argv, "-v")
    assert code == 0 and verbose == out
    (line,) = [line for line in err.splitlines() if " search: " in line]
    assert line.startswith("superalt: endomorphism search: ") and line.endswith(" s")
    assert f"{len(res.found)} found in " in line


def test_search_refuses_negative_budget(capsys, tmp_path):
    a_path = tmp_path / "p35.json"
    main(["corpus", "p3", "--prime", "5", "--out", str(a_path)])
    capsys.readouterr()
    code, out, err = run(capsys, "search", str(a_path), "--kind", "rota-baxter",
                         "--budget", "-1")
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()
    assert len(err.splitlines()) == 1 and "budget" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(workdir, capsys, jobs):
    code, out, err = run(capsys, "check", str(workdir / "p3.json"), "--law",
                         "hom-alternative", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --jobs must be at least 1, got {jobs}"]


def test_search_rejects_rational_scalars(workdir, capsys):
    code, _, err = run(capsys, "search", str(workdir / "p3.json"), "--kind", "endomorphism")
    assert code == 2 and "F_p" in err


def test_calibrate_prebimodule_confirms_default(capsys):
    code, out, _ = run(capsys, "calibrate-prebimodule")
    assert code == 0
    assert "pbm2+/pbm4-prec" in out


def test_strict_canonical_flag(workdir, capsys, tmp_path):
    doc = json.loads((workdir / "p3.json").read_text())
    doc["product"][0][3] = "1/1"  # same value, non-canonical spelling
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(bent), "--law", "hom-associative")
    assert code == 0 and "1/1" in err  # lenient: warn and continue
    code, _, err = run(capsys, "check", str(bent), "--law", "hom-associative",
                       "--strict-canonical")
    assert code == 2


def test_jobs_flag_parallel_run(tmp_path, capsys, scan_path, forked):
    """21^3 = 9261 triples reach laws.POOL_MIN_TUPLES, so --jobs 2 forks workers."""
    doc = tmp_path / "zero.json"
    assert main(["corpus", "zero-10-11", "--prime", "3", "--out", str(doc)]) == 0
    code, out, _ = run(capsys, "check", str(doc), "--law", "hom-alternative", "--jobs", "2")
    assert code == 0 and "9261 tuples" in out
    forked()


def test_help_lists_all_verbs(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out, _ = capsys.readouterr()
    for verb in ("check", "check-pre", "construct", "verify-bimodule",
                 "check-operator", "search", "corpus", "calibrate-jordan",
                 "calibrate-prebimodule"):
        assert verb in out


def test_deeply_nested_document_is_a_document_error(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100000)
    code, out, err = run(capsys, "check", str(tmp_path / "deep.json"), "--law", "hom-alternative")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "nested" in line


def test_a_large_prime_is_decided_at_once(tmp_path, capsys):
    doc = {"kind": "algebra", "scalars": {"Fp": 2**61 - 1}, "dims": [1, 0], "product": [],
           "twist": [[1]]}
    (tmp_path / "big.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(tmp_path / "big.json"), "--law", "hom-associative")
    assert code == 0 and "PASS" in out
    code, out, err = run(capsys, "corpus", "p3", "--prime", str(2**89 - 1),
                         "--out", str(tmp_path / "p.json"))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "too large" in line


def test_a_weight_with_a_huge_exponent_is_a_usage_error(workdir, capsys):
    code, out, err = run(capsys, "check-operator", str(workdir / "p3.json"), "--map",
                         str(workdir / "R.json"), "--kind", "rota-baxter", "--weight", "1e999999999")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "1e999999999" in line


# -- error table ---------------------------------------------------------
# Every verb ends each kind of bad input with exit 2, one stderr line that
# starts "error:" and no traceback.  A case applies where the verb takes
# the input: files for the verbs that read documents, --out for the verbs
# that write one, a scalar option where there is one (else a bad scalar
# inside the document).

ERROR_TABLE = {
    "check": {
        "missing file": ["check", "missing.json", "--law", "hom-alternative"],
        "malformed json": ["check", "malformed.json", "--law", "hom-alternative"],
        "wrong kind": ["check", "R.json", "--law", "hom-alternative"],
        "missing option": ["check", "p3.json"],
        "bad scalar": ["check", "bad-scalar.json", "--law", "hom-alternative"],
        "jobs 0": ["check", "p3.json", "--law", "hom-alternative", "--jobs", "0"],
    },
    "check-pre": {
        "missing file": ["check-pre", "missing.json", "--law", "hom-prealternative"],
        "malformed json": ["check-pre", "malformed.json", "--law", "hom-prealternative"],
        "wrong kind": ["check-pre", "p3.json", "--law", "hom-prealternative"],
        "missing option": ["check-pre", "pre.json"],
        "bad scalar": ["check-pre", "bad-scalar.json", "--law", "hom-prealternative"],
        "jobs 0": ["check-pre", "pre.json", "--law", "hom-prealternative", "--jobs", "0"],
    },
    "construct": {
        "missing file": ["construct", "alt", "--in", "missing.json", "--out", "x.json"],
        "malformed json": ["construct", "alt", "--in", "malformed.json", "--out", "x.json"],
        "wrong kind": ["construct", "alt", "--in", "p3.json", "--out", "x.json"],
        "missing option": ["construct", "alt", "--in", "pre.json"],
        "bad scalar": ["construct", "scale", "--in", "pre.json", "--lambda", "x",
                       "--out", "x.json"],
        "jobs 0": ["construct", "alt", "--in", "pre.json", "--out", "x.json", "--jobs", "0"],
        "out in a missing directory": ["construct", "alt", "--in", "pre.json",
                                       "--out", "nodir/x.json"],
        "out onto a directory": ["construct", "alt", "--in", "pre.json", "--out", "subdir"],
        "map on an op without one": ["construct", "alt", "--in", "pre.json", "--map", "R.json",
                                     "--out", "x.json"],
        "n on an op without one": ["construct", "rb-split", "--in", "p3.json", "--map", "R.json",
                                   "--n", "2", "--out", "x.json"],
        "lambda on an op without one": ["construct", "derived", "--in", "pre.json", "--n", "1",
                                        "--lambda", "2", "--out", "x.json"],
    },
    "verify-bimodule": {
        "missing file": ["verify-bimodule", "missing.json", "--law", "alt"],
        "malformed json": ["verify-bimodule", "malformed.json", "--law", "alt"],
        "wrong kind": ["verify-bimodule", "p3.json", "--law", "alt"],
        "missing option": ["verify-bimodule", "reg.json"],
        "bad scalar": ["verify-bimodule", "bad-scalar.json", "--law", "alt"],
        "jobs 0": ["verify-bimodule", "reg.json", "--law", "alt", "--jobs", "0"],
        "alt law on a pre bimodule": ["verify-bimodule", "regpre.json", "--law", "alt"],
        "pre law on an alt bimodule": ["verify-bimodule", "reg.json", "--law", "pre"],
        "base of other scalars": ["verify-bimodule", "regQ35.json", "--law", "alt"],
    },
    "check-operator": {
        "missing file": ["check-operator", "missing.json", "--map", "R.json",
                         "--kind", "rota-baxter"],
        "malformed json": ["check-operator", "p3.json", "--map", "malformed.json",
                           "--kind", "rota-baxter"],
        "wrong kind": ["check-operator", "p3.json", "--map", "p3.json", "--kind", "rota-baxter"],
        "missing option": ["check-operator", "p3.json", "--map", "R.json"],
        "bad scalar": ["check-operator", "p3.json", "--map", "R.json", "--kind", "rota-baxter",
                       "--weight", "x"],
        "jobs 0": ["check-operator", "p3.json", "--map", "R.json", "--kind", "rota-baxter",
                   "--jobs", "0"],
        "weight on another kind": ["check-operator", "p3.json", "--map", "R.json",
                                   "--kind", "centroid", "--weight", "1"],
        "bimodule on another kind": ["check-operator", "p3.json", "--map", "R.json",
                                     "--kind", "rota-baxter", "--bimodule", "reg.json"],
        "bimodule over another base": ["check-operator", "z3.json", "--map", "R.json",
                                       "--kind", "o-operator", "--bimodule", "reg.json"],
        "non-endomorphism on a pre-algebra": ["check-operator", "pre.json", "--map", "R.json",
                                              "--kind", "rota-baxter"],
    },
    "search": {
        "missing file": ["search", "missing.json", "--kind", "rota-baxter"],
        "malformed json": ["search", "malformed.json", "--kind", "rota-baxter"],
        "wrong kind": ["search", "R.json", "--kind", "rota-baxter"],
        "missing option": ["search", "p35.json"],
        "bad scalar": ["search", "p35.json", "--kind", "rota-baxter", "--weight", "x"],
        "jobs 0": ["search", "p35.json", "--kind", "rota-baxter", "--jobs", "0"],
        "weight on another kind": ["search", "p35.json", "--kind", "centroid", "--weight", "1"],
        "bimodule on another kind": ["search", "p35.json", "--kind", "rota-baxter",
                                     "--bimodule", "reg35.json"],
        "bimodule over another base": ["search", "z35.json", "--kind", "o-operator",
                                       "--bimodule", "reg35.json", "--budget", "2000"],
        "signed perms for an o-operator": ["search", "p35.json", "--kind", "o-operator",
                                           "--bimodule", "reg35.json", "--signed-perms"],
    },
    "corpus": {
        "missing option": ["corpus", "p3"],
        "bad scalar": ["corpus", "p3", "--prime", "4", "--out", "x.json"],
        "jobs 0": ["corpus", "p3", "--out", "x.json", "--jobs", "0"],
        "out in a missing directory": ["corpus", "truncpoly-3", "--out", "nodir/x.json"],
        "out onto a directory": ["corpus", "truncpoly-3", "--out", "subdir"],
    },
    "calibrate-jordan": {"jobs 0": ["calibrate-jordan", "--jobs", "0"]},
    "calibrate-prebimodule": {"jobs 0": ["calibrate-prebimodule", "--jobs", "0"]},
}


@pytest.fixture()
def error_dir(tmp_path, monkeypatch, capsys):
    """A working directory holding a valid document of each kind and the bad ones."""
    monkeypatch.chdir(tmp_path)
    for argv in (["corpus", "p3", "--out", "p3.json"],
                 ["corpus", "p3", "--prime", "5", "--out", "p35.json"],
                 ["corpus", "integration-3", "--out", "R.json"],
                 ["corpus", "zero-3-0", "--out", "z3.json"],
                 ["corpus", "zero-3-0", "--prime", "5", "--out", "z35.json"],
                 ["construct", "rb-split", "--in", "p3.json", "--map", "R.json",
                  "--out", "pre.json"]):
        assert main(argv) == 0
    sio.save(sio.bimodule_to_doc(regular_bimodule(truncpoly(3)), "p3.json"), "reg.json")
    pre3 = rb_split(truncpoly(3), integration(3))
    sio.save(sio.bimodule_to_doc(regular_bimodule(pre3), "pre.json"), "regpre.json")
    p35 = reduce_instance(truncpoly(3), 5)
    sio.save(sio.bimodule_to_doc(regular_bimodule(p35), "p35.json"), "reg35.json")
    sio.save(sio.bimodule_to_doc(regular_bimodule(truncpoly(3)), "p35.json"), "regQ35.json")
    (tmp_path / "malformed.json").write_text('{"kind": "algebra", ')
    doc = json.loads((tmp_path / "p3.json").read_text())
    doc["product"][0][3] = "one"
    (tmp_path / "bad-scalar.json").write_text(json.dumps(doc))
    (tmp_path / "subdir").mkdir()
    capsys.readouterr()
    return tmp_path


def test_the_error_table_covers_every_verb(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out, _ = capsys.readouterr()
    verbs = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert sorted(verbs) == sorted(ERROR_TABLE)


@pytest.mark.parametrize(
    "argv",
    [argv for cases in ERROR_TABLE.values() for argv in cases.values()],
    ids=[f"{verb}-{case.replace(' ', '-')}" for verb, cases in ERROR_TABLE.items() for case in cases],
)
def test_every_bad_input_is_one_error_line(error_dir, capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses before any verb runs
        code = e.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["zero-40-40"], "zero-40-40: n0 + n1 = 80 exceeds the cap of 64"),
    (["matrix-9"], "matrix-9: n0 + n1 = 81 exceeds the cap of 64"),
    (["truncpoly-0"], "truncpoly needs k >= 1, got 0"),
    (["truncpoly-x"], "bad corpus name 'truncpoly-x'"),
    (["integration-5", "--prime", "3"], "3 is not invertible in F3"),
], ids=["zero-40-40", "matrix-9", "truncpoly-0", "truncpoly-x", "integration-5-mod-3"])
def test_corpus_names_are_refused_with_their_own_message(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, "corpus", *argv, "--out", str(tmp_path / "x.json"))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "x.json").exists()

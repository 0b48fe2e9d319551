"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned, as for a user waiting on each verdict.  A
workload builds its state in `setup`, then `ops(state, seed)` lists one
pass of its op mix.  Every op has a stable key (its expectations are
recorded under it), a kind (the name of its root span when traced) and a
call that returns the raw output.  `summary` turns that output into the
JSON the oracle compares; `units` counts the work it did; `problems` checks
what must hold at any seed.

Only `pipeline` depends on the seed; `law-scan`, `search` and `cli` run the
same inputs at every seed by design.  Calls into superalt go through module
attributes at call time (`sa.check_product_law(...)`), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys

import superalt as sa
import superalt.cli  # noqa: F401  (binds sa.cli and sa.io)

from oracle import (
    doc_digest,
    law_report_problems,
    law_rescan_problems,
    report_summary,
    roundtrip,
    roundtrip_problems,
    sha256,
)

# the memoized function itself, kept before any tracer wraps the name
OCTONIONS = sa.corpus.octonions


class Op:
    __slots__ = ("key", "kind", "call", "meta")

    def __init__(self, key, kind, call, meta=None):
        self.key = key
        self.kind = kind
        self.call = call
        self.meta = meta or {}


class Workload:
    name = ""
    why = ""
    layers = ()
    seeded = False
    work = "tuples"  # what `units` counts
    children = False  # whether ops run in child processes

    def setup(self, workdir):
        raise NotImplementedError

    def ops(self, state, seed):
        raise NotImplementedError

    def traced_ops(self, state, seed):
        return self.ops(state, seed)

    def summary(self, op, out):
        raise NotImplementedError

    def units(self, op, out) -> int:
        return 0

    def problems(self, op, out) -> list:
        return []

    def rescan_problems(self, op, out) -> list:
        """Slower checks of an output with no recorded summary, made once
        per op key after timing."""
        return []

    def document_digests(self, state) -> dict:
        """sha256 of each document the workload wrote, by file name."""
        return {}


def _law_check(instance, law):
    if isinstance(instance, sa.HomAlgebra):
        return sa.check_product_law(instance, law)
    return sa.check_pre_law(instance, law)


def _l1_p3_split():
    l1, p3 = sa.grassmann1(), sa.truncpoly(3)
    idr = sa.tensor_map(sa.EvenMap.identity(l1.space), sa.integration(3))
    return sa.tensor_alt(l1, p3), idr


# ---------------------------------------------------------------------------


class LawScan(Workload):
    name = "law-scan"
    why = ("Full scans that pass: laws, core and fields do nearly all the work, "
           "over Q and F_5 at arities 2, 3 and 4, where structure-table scans act.")
    layers = ("laws", "core", "fields")

    def setup(self, workdir):
        l1 = sa.grassmann1()
        jordan = sa.plus_jordan(sa.tensor_alt(l1, sa.octonions()))
        alt5 = sa.reduce_instance(sa.tensor_alt(l1, sa.octonions()), 5)
        l1p3, idr = _l1_p3_split()
        return {
            "hom-jordan|plus(l1-oct)|Q": (jordan, "hom-jordan"),
            "hom-alternative|l1-oct@5": (alt5, "hom-alternative"),
            "hom-prealternative|rb-split(l1-p3)|Q": (sa.rb_split(l1p3, idr), "hom-prealternative"),
        }

    def ops(self, state, seed):
        return [
            Op(key, "scan", lambda inst=inst, law=law: _law_check(inst, law), {"inst": inst, "law": law})
            for key, (inst, law) in state.items()
        ]

    def summary(self, op, out):
        return report_summary(out, op.meta["inst"].space.field)

    def units(self, op, out):
        return out.checked

    def problems(self, op, out):
        return law_report_problems(op.meta["inst"], op.meta["law"], out)


# ---------------------------------------------------------------------------


class Search(Workload):
    name = "search"
    why = ("Budgeted search_operators runs in radix order: operators, EvenMap "
           "construction and validation do the work; pruned search acts here and law-scan barely runs it.")
    layers = ("operators", "core", "fields")
    work = "candidates"

    BUDGETS = {
        "rota-baxter-0|truncpoly-3@5": 10000,
        "rota-baxter-0|l1-p3@3": 3000,
        "o-operator|regular(truncpoly-3@5)": 12000,
    }

    def setup(self, workdir):
        p35 = sa.reduce_instance(sa.truncpoly(3), 5)
        l1p33 = sa.reduce_instance(sa.tensor_alt(sa.grassmann1(), sa.truncpoly(3)), 3)
        return {"p35": p35, "l1p33": l1p33, "reg": sa.regular_bimodule(p35)}

    def ops(self, state, seed):
        b = self.BUDGETS
        p35, l1p33, reg = state["p35"], state["l1p33"], state["reg"]
        return [
            Op("rota-baxter-0|truncpoly-3@5", "search",
               lambda: sa.search_operators(p35, "rota-baxter", weight=0,
                                           budget=b["rota-baxter-0|truncpoly-3@5"]),
               {"algebra": p35, "budget": b["rota-baxter-0|truncpoly-3@5"]}),
            Op("rota-baxter-0|l1-p3@3", "search",
               lambda: sa.search_operators(l1p33, "rota-baxter", weight=0,
                                           budget=b["rota-baxter-0|l1-p3@3"]),
               {"algebra": l1p33, "budget": b["rota-baxter-0|l1-p3@3"]}),
            Op("o-operator|regular(truncpoly-3@5)", "search",
               lambda: sa.search_operators(p35, "o-operator", bimodule=reg,
                                           budget=b["o-operator|regular(truncpoly-3@5)"]),
               {"algebra": p35, "bimodule": reg,
                "budget": b["o-operator|regular(truncpoly-3@5)"]}),
        ]

    def summary(self, op, out):
        found = json.dumps([sa.io.matrix_to_json(f) for f in out.found])
        return {
            "found": len(out.found),
            "found_sha256": sha256(found),
            "candidates_checked": out.candidates_checked,
            "exhausted": out.exhausted,
            "space_size": out.space_size,
        }

    def units(self, op, out):
        return out.candidates_checked

    def problems(self, op, out):
        problems = []
        if out.candidates_checked != min(op.meta["budget"], out.space_size):
            problems.append(f"{op.key}: {out.candidates_checked} candidates for budget "
                            f"{op.meta['budget']}")
        for f in out.found:
            if out.kind == "o-operator":
                rep = sa.check_o_operator(f, op.meta["bimodule"])
            else:
                rep = sa.check_operator(sa.OperatorSpec(out.kind, f, weight=0), op.meta["algebra"])
            if not rep.passed:
                problems.append(f"{op.key}: found map {f.entries} fails its check")
        return problems


# ---------------------------------------------------------------------------

_COMMUTATIVE_LAWS = ("hom-associative", "hom-alternative", "hom-flexible",
                     "super-commutative", "multiplicative")
_OCT_LAWS = ("hom-alternative", "hom-flexible", "multiplicative")


class Pipeline(Workload):
    name = "pipeline"
    why = ("Many small seeded ops: perturbed-instance law checks that exit early, "
           "constructions with hypothesis checks, small bimodule checks and document round trips.")
    layers = ("laws", "constructions", "bimodules", "operators", "io", "corpus", "core")
    seeded = True

    PERTURBATIONS_PER_LAW = 8
    DELTAS = (1, -1, 2)

    def setup(self, workdir):
        l1, p3, r = sa.grassmann1(), sa.truncpoly(3), sa.integration(3)
        l1p3, idr = _l1_p3_split()
        pre3 = sa.rb_split(p3, r)
        pre6 = sa.rb_split(l1p3, idr)
        algebras = {
            "grassmann1": l1,
            "grassmann1-twisted": sa.grassmann1_twisted(),
            "truncpoly-3": p3,
            "truncpoly-3@5": sa.reduce_instance(p3, 5),
            "matrix-2": sa.matrix_algebra(2),
            "octonions": sa.octonions(),
            "octonions@3": sa.reduce_instance(sa.octonions(), 3),
            "l1-p3": l1p3,
        }
        pres = {
            "rb-split(truncpoly-3)": pre3,
            "rb-split(l1-p3)": pre6,
            "transpose(rb-split(truncpoly-3))": sa.transpose(pre3),
            "rb-split(truncpoly-3)@5": sa.reduce_instance(pre3, 5),
        }
        maps = {"integration-3": r, "id-tensor-integration-3": idr}
        laws = {}
        for name, a in algebras.items():
            if name.startswith("octonions"):
                laws[name] = _OCT_LAWS
            elif name == "matrix-2":
                laws[name] = ("hom-associative", "hom-alternative", "hom-flexible", "multiplicative")
            else:
                jordan = ("hom-jordan",) if a.space.dim <= 4 else ()
                laws[name] = _COMMUTATIVE_LAWS + jordan
        for name in pres:
            laws[name] = ("hom-prealternative",)
        # scalar multiples of the identity are centroid and averaging operators
        scaled_id = lambda a, c: sa.EvenMap.identity(a.space).scaled(c)
        return {
            "algebras": algebras, "pres": pres, "maps": maps, "laws": laws,
            "id2_matrix": scaled_id(algebras["matrix-2"], 2),
            "id3_p35": scaled_id(algebras["truncpoly-3@5"], 3),
            "id2_p3": scaled_id(p3, 2),
            "id3_oct": scaled_id(algebras["octonions"], 3),
        }

    # -- ops ----------------------------------------------------------------

    def _instance(self, state, name):
        return state["algebras"].get(name) or state["pres"][name]

    def _perturb_op(self, state, rng, name):
        """A single-entry perturbation at a seeded parity-allowed cell."""
        inst = self._instance(state, name)
        which = "mu" if isinstance(inst, sa.HomAlgebra) else rng.choice(("prec", "succ"))
        n, par = inst.space.dim, inst.space.parity
        cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                 if par(k) == (par(i) + par(j)) % 2]
        cell = rng.choice(cells)
        delta = rng.choice(self.DELTAS)
        key = f"perturb|{name}|{which}|{','.join(map(str, cell))}|{delta:+d}"

        def make():
            if which == "mu":
                return sa.perturb_product(inst, cell, delta)
            return sa.perturb_pre(inst, which, cell, delta)

        return key, make

    def ops(self, state, seed):
        rng = random.Random(seed)
        ops = []
        for name in list(state["algebras"]) + list(state["pres"]):
            for law in state["laws"][name]:
                for _ in range(self.PERTURBATIONS_PER_LAW):
                    key, make = self._perturb_op(state, rng, name)

                    def check(make=make, law=law):
                        inst = make()
                        return inst, _law_check(inst, law)

                    ops.append(Op(f"{key}|{law}", "perturb-check", check, {"law": law}))
        ops += self._construction_ops(state)
        ops += self._bimodule_ops(state)
        for name in list(state["algebras"]) + list(state["pres"]):
            obj = self._instance(state, name)
            ops.append(Op(f"roundtrip|{name}", "roundtrip", lambda obj=obj: roundtrip(obj)))
            key, make = self._perturb_op(state, rng, name)
            ops.append(Op(f"roundtrip|{key}", "roundtrip", lambda make=make: roundtrip(make())))
        for name, f in state["maps"].items():
            ops.append(Op(f"roundtrip|{name}", "roundtrip",
                          lambda f=f, name=name: roundtrip(f, name=name)))
        rng.shuffle(ops)
        return ops

    def _construction_ops(self, state):
        a, p, m = state["algebras"], state["pres"], state["maps"]
        l1, p3, oct_ = a["grassmann1"], a["truncpoly-3"], a["octonions"]
        table = {
            "rb_split(truncpoly-3,integration-3)": lambda: sa.rb_split(p3, m["integration-3"]),
            "rb_split(l1-p3,id-tensor-integration-3)":
                lambda: sa.rb_split(a["l1-p3"], m["id-tensor-integration-3"]),
            "tensor_alt(grassmann1,truncpoly-3)": lambda: sa.tensor_alt(l1, p3),
            "tensor_alt(grassmann1,octonions)": lambda: sa.tensor_alt(l1, oct_),
            "plus_jordan(octonions)": lambda: sa.plus_jordan(oct_),
            "plus_jordan(matrix-2)": lambda: sa.plus_jordan(a["matrix-2"]),
            "transpose(rb-split(truncpoly-3))": lambda: sa.transpose(p["rb-split(truncpoly-3)"]),
            "alt_of(rb-split(l1-p3))": lambda: sa.alt_of(p["rb-split(l1-p3)"]),
            "derived_n(rb-split(truncpoly-3),1)": lambda: sa.derived_n(p["rb-split(truncpoly-3)"], 1),
            "derived_n(rb-split(l1-p3),2)": lambda: sa.derived_n(p["rb-split(l1-p3)"], 2),
            "centroid_twist(matrix-2,2id)": lambda: sa.centroid_twist(a["matrix-2"], state["id2_matrix"]),
            "centroid_twist(truncpoly-3@5,3id)":
                lambda: sa.centroid_twist(a["truncpoly-3@5"], state["id3_p35"]),
            "averaging_product(truncpoly-3,2id)": lambda: sa.averaging_product(p3, state["id2_p3"]),
            "averaging_product(octonions,3id)": lambda: sa.averaging_product(oct_, state["id3_oct"]),
        }
        return [Op(f"construct|{k}", "construct", fn) for k, fn in table.items()]

    def _bimodule_ops(self, state):
        a, p, m = state["algebras"], state["pres"], state["maps"]
        alt = lambda m: sa.check_alt_bimodule(m)
        pre = lambda m: sa.check_pre_bimodule(m)
        reg = lambda x: sa.regular_bimodule(x)
        pre3, pre6 = p["rb-split(truncpoly-3)"], p["rb-split(l1-p3)"]
        table = {
            "alt|regular(grassmann1-twisted)": lambda: alt(reg(a["grassmann1-twisted"])),
            "alt|regular(truncpoly-3)": lambda: alt(reg(a["truncpoly-3"])),
            "alt|regular(matrix-2)": lambda: alt(reg(a["matrix-2"])),
            "alt|regular(l1-p3)": lambda: alt(reg(a["l1-p3"])),
            "alt|regular(octonions)": lambda: alt(reg(a["octonions"])),
            "alt|twist(regular(grassmann1-twisted))":
                lambda: alt(sa.twist_bimodule(reg(a["grassmann1-twisted"]))),
            "pre|regular(rb-split(truncpoly-3))": lambda: pre(reg(pre3)),
            "pre|regular(rb-split(l1-p3))": lambda: pre(reg(pre6)),
            "pre|twist(regular(rb-split(truncpoly-3)))": lambda: pre(sa.twist_bimodule(reg(pre3))),
            "alt|project-i(regular(rb-split(truncpoly-3)))":
                lambda: alt(sa.project_bimodule(reg(pre3), "i")),
            "alt|project-ii(regular(rb-split(l1-p3)))":
                lambda: alt(sa.project_bimodule(reg(pre6), "ii")),
            "pre|project-iii(project-i(regular(rb-split(truncpoly-3))))":
                lambda: pre(sa.project_bimodule(sa.project_bimodule(reg(pre3), "i"), "iii", pre=pre3)),
        }
        ops = [Op(f"bimodule|{k}", "bimodule-check", fn) for k, fn in table.items()]
        ops.append(Op("o_induced|integration-3|regular(truncpoly-3)", "o-induced",
                      lambda: sa.o_induced(m["integration-3"], reg(a["truncpoly-3"]))))
        ops.append(Op("o_induced|id-tensor-integration-3|regular(l1-p3)", "o-induced",
                      lambda: sa.o_induced(m["id-tensor-integration-3"], reg(a["l1-p3"]))))
        return ops

    # -- outputs ----------------------------------------------------------

    def summary(self, op, out):
        if op.kind == "perturb-check":
            inst, rep = out
            return report_summary(rep, inst.space.field)
        if op.kind == "construct":
            return {"sha256": doc_digest(out)}
        if op.kind == "bimodule-check":
            return report_summary(out, None)
        if op.kind == "o-induced":
            return {
                "independence": report_summary(out.independence, None),
                "morphism": report_summary(out.morphism, None),
                "image_columns": out.image_columns,
                "pre_sha256": doc_digest(out.pre),
                "image_sha256": doc_digest(out.image),
            }
        text, _again, _warnings = out
        return {"sha256": sha256(text), "bytes": len(text.encode("utf-8"))}

    def units(self, op, out):
        if op.kind == "perturb-check":
            return out[1].checked
        if op.kind == "bimodule-check":
            return out.checked
        if op.kind == "o-induced":
            return out.independence.checked + out.morphism.checked
        return 0

    def problems(self, op, out):
        if op.kind == "perturb-check":
            inst, rep = out
            return law_report_problems(inst, op.meta["law"], rep)
        if op.kind == "roundtrip":
            return [f"{op.key}: {p}" for p in roundtrip_problems(out)]
        if op.kind == "construct":
            return [f"{op.key}: {p}" for p in roundtrip_problems(roundtrip(out))]
        return []

    def rescan_problems(self, op, out):
        if op.kind == "perturb-check":
            inst, rep = out
            return law_rescan_problems(inst, op.meta["law"], rep)
        return []


# ---------------------------------------------------------------------------

CLI_JOBS = "2"  # no more than the two cores the baseline was measured on

CLI_VERBS = (
    ("check-pass", ["check", "l1oct.json", "--law", "hom-alternative"]),
    ("check-fail", ["check", "l1oct.json", "--law", "hom-associative"]),
    ("check-pre", ["check-pre", "pre6.json", "--law", "hom-prealternative"]),
    ("construct-rb-split", ["construct", "rb-split", "--in", "p3.json", "--map", "R.json",
                            "--out", "split.json"]),
    ("verify-bimodule", ["verify-bimodule", "regpre6.json", "--law", "pre"]),
    ("search", ["search", "p35.json", "--kind", "rota-baxter", "--weight", "0",
                "--budget", "6000"]),
    ("calibrate-prebimodule", ["calibrate-prebimodule"]),
)
STARTUP_ARGV = ["corpus", "list"]


def child_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv, cwd, env):
    """One `python -m superalt.cli` child; returns (exit, stdout, stderr, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "superalt.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, proc.stdout, proc.stderr, cpu


def run_cli_inprocess(argv, cwd):
    """The same argv through superalt.cli.main in this process."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sa.cli.main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue(), None


class Cli(Workload):
    name = "cli"
    why = ("python -m superalt.cli children on documents written in set-up: start-up, "
           "import, document loading, exit codes and the --jobs fork pool.")
    layers = ("cli", "io", "laws", "bimodules", "operators", "constructions")
    children = True

    DOCUMENTS = ("l1oct.json", "p3.json", "R.json", "p35.json", "pre6.json", "regpre6.json")

    def __init__(self, src_dir):
        self.env = child_env(src_dir)

    def setup(self, workdir):
        save, to_doc = sa.io.save, sa.io.object_to_doc
        l1oct = sa.build_named("l1-oct")[1]
        p3, r = sa.truncpoly(3), sa.integration(3)
        l1p3, idr = _l1_p3_split()
        pre6 = sa.rb_split(l1p3, idr)
        docs = {
            "l1oct.json": to_doc(l1oct),
            "p3.json": to_doc(p3),
            "R.json": to_doc(r, name="integration-3"),
            "p35.json": to_doc(sa.reduce_instance(p3, 5)),
            "pre6.json": to_doc(pre6),
            "regpre6.json": to_doc(sa.regular_bimodule(pre6), base_path="pre6.json"),
        }
        for name, doc in docs.items():
            save(doc, os.path.join(workdir, name))
        return {"dir": workdir}

    def _ops(self, state, runner):
        cwd = state["dir"]
        return [
            Op(verb, "cli." + verb,
               lambda argv=argv: runner(argv + ["--jobs", CLI_JOBS], cwd), {"dir": cwd})
            for verb, argv in CLI_VERBS
        ]

    def ops(self, state, seed):
        return self._ops(state, lambda argv, cwd: run_cli_child(argv, cwd, self.env))

    def traced_ops(self, state, seed):
        return self._ops(state, run_cli_inprocess)

    def document_digests(self, state):
        names = self.DOCUMENTS + ("split.json",)
        out = {}
        for name in names:
            path = os.path.join(state["dir"], name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = sha256(fh.read())
        return out

    def summary(self, op, out):
        code, stdout, _stderr, _cpu = out
        return {"exit": code, "stdout_sha256": sha256(stdout)}

    def units(self, op, out):
        stdout = out[1]
        head, _, rest = stdout.partition("\n")
        if head.startswith(("PASS ", "FAIL ")):
            return json.loads(rest)["checked"]
        return 0

    def problems(self, op, out):
        code, _stdout, stderr, _cpu = out
        if code not in (0, 1):
            return [f"{op.key}: exit {code}: {stderr.strip()[-500:]}"]
        return []


def all_workloads(src_dir):
    return {w.name: w for w in (LawScan(), Search(), Pipeline(), Cli(src_dir))}

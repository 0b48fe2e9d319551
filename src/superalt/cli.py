"""Command-line interface.

Every verb prints a human summary followed by a canonical JSON report.
Exit codes: 0 all checks pass, 1 a law or axiom fails (the report carries
the witness), 2 usage or document validation error, or stdout closed early.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import corpus
from .bimodules import (
    AltBimodule,
    PreBimodule,
    calibrate_pre_bimodule,
    check_alt_bimodule,
    check_pre_bimodule,
)
from .constructions import (
    alt_of,
    averaging_product,
    centroid_twist,
    derived_n,
    plus_jordan,
    rb_split,
    scale,
    tensor_alt,
    transpose,
    yau_twist,
)
from .core import EvenMap, ValidationError
from .fields import QQ, FieldError, FpElement, PrimeField, RationalField
from .io import (
    MAX_DIM,
    DocumentError,
    canonical_dumps,
    load,
    matrix_to_json,
    object_to_doc,
    report_to_doc,
    save,
)
from .laws import (
    JORDAN_CYCLES,
    POOL_MIN_TUPLES,
    PRE_LAWS,
    PRODUCT_LAWS,
    HomAlgebra,
    HomPreAlgebra,
    HypothesisError,
    calibrate_jordan,
    check_pre_law,
    check_product_law,
)
from .operators import OPERATOR_KINDS, OperatorSpec, check_operator, search_operators

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class _Usage(Exception):
    pass


def _warn(warnings):
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _load_as(path, kinds, strict):
    _, obj, warnings = load(path, strict=strict)
    _warn(warnings)
    if not isinstance(obj, kinds):
        names = " or ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise _Usage(f"{path}: expected {names}, got {type(obj).__name__}")
    return obj


def _human_line(rep):
    if rep.passed:
        return f"PASS {rep.law}: {rep.checked} tuples checked"
    return (
        f"FAIL {rep.law}: {rep.identity} at basis tuple {list(rep.witness)} "
        f"(parities {list(rep.witness_parities)}) after {rep.checked} tuples"
    )


def _emit_report(rep, field):
    print(_human_line(rep))
    print(canonical_dumps(report_to_doc(rep, field)), end="")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _write(doc, path):
    save(doc, path)
    print(f"wrote {path} ({doc['kind']} {doc.get('name', '')})".rstrip())
    return EXIT_PASS


def _parse_scalar(field, text, option, strict):
    """The scalar option's text, read as a document's scalar is read: by
    field.from_json, from the text over Q and from its integer over F_p.
    What the decoder warns of is refused in strict mode, warned of
    otherwise."""
    try:
        value, warning = field.from_json(text if isinstance(field, RationalField) else int(text))
    except ValueError:
        raise _Usage(f"cannot read scalar {text!r} for {field}")
    if warning:
        if strict:
            raise _Usage(f"{option}: {warning}")
        _warn([f"{option}: {warning}"])
    return value


def _cmd_check(args):
    a = _load_as(args.file, HomAlgebra, args.strict_canonical)
    rep = check_product_law(a, args.law, jordan_cycle=args.jordan_cycle, jobs=args.jobs)
    return _emit_report(rep, a.space.field)


def _cmd_check_pre(args):
    p = _load_as(args.file, HomPreAlgebra, args.strict_canonical)
    rep = check_pre_law(p, args.law, jobs=args.jobs)
    return _emit_report(rep, p.space.field)


# op -> (construction, the instance kind of each --in file, its one option)
_CONSTRUCTIONS = {
    "alt": (alt_of, (HomPreAlgebra,), None),
    "transpose": (transpose, (HomPreAlgebra,), None),
    "plus-jordan": (plus_jordan, (HomAlgebra,), None),
    "tensor": (tensor_alt, (HomAlgebra, HomAlgebra), None),
    "centroid-twist": (centroid_twist, (HomAlgebra,), "map"),
    "averaging": (averaging_product, (HomAlgebra,), "map"),
    "rb-split": (rb_split, (HomAlgebra,), "map"),
    "yau-twist": (yau_twist, (HomPreAlgebra,), "map"),
    "derived": (derived_n, (HomPreAlgebra,), "n"),
    "scale": (scale, (HomPreAlgebra,), "lambda"),
}
CONSTRUCT_OPS = tuple(_CONSTRUCTIONS)

# option -> its argument to the construction, read from its value and the first input
_OPTION_READERS = {
    "map": lambda path, first, strict: _load_as(path, EvenMap, strict),
    "n": lambda n, first, strict: n,
    "lambda": lambda text, first, strict: _parse_scalar(first.space.field, text, "--lambda",
                                                        strict),
}


def _cmd_construct(args):
    op = args.op
    build, kinds, option = _CONSTRUCTIONS[op]
    for name in _OPTION_READERS:
        if name != option and getattr(args, name) is not None:
            raise _Usage(f"{op} does not take --{name}")
    if len(args.inputs) != len(kinds):
        count = ("one --in file", "two --in files")[len(kinds) - 1]
        raise _Usage(f"{op} takes exactly {count}")
    strict = args.strict_canonical
    inputs = [_load_as(path, kind, strict) for path, kind in zip(args.inputs, kinds)]
    # the result spans the product of the inputs' dimensions (a tensor's), or the one input's
    dim = math.prod(a.space.dim for a in inputs)
    if dim > MAX_DIM:
        raise _Usage(f"{op}: the result's n0 + n1 = {dim} exceeds the cap of {MAX_DIM}")
    metadata = {"operation": op, "inputs": list(args.inputs)}
    if option is not None:
        value = getattr(args, option)
        if value is None:
            raise _Usage(f"{op} needs --{option}")
        inputs.append(_OPTION_READERS[option](value, inputs[0], strict))
        metadata[option] = value
    return _write(object_to_doc(build(*inputs), metadata=metadata), args.out)


def _cmd_verify_bimodule(args):
    m = _load_as(args.file, (AltBimodule, PreBimodule), args.strict_canonical)
    if args.law == "alt":
        if not isinstance(m, AltBimodule):
            raise _Usage(f"{args.file} is not an alt bimodule document")
        rep = check_alt_bimodule(m, jobs=args.jobs)
    else:
        if not isinstance(m, PreBimodule):
            raise _Usage(f"{args.file} is not a pre bimodule document")
        rep = check_pre_bimodule(m, jobs=args.jobs)
    return _emit_report(rep, m.module.field)


def _operator_options(args, field):
    """The weight (rota-baxter, default 0) and the bimodule (o-operator) of
    an operator verb; either option given to another kind is refused."""
    if args.weight is not None and args.kind != "rota-baxter":
        raise _Usage(f"--weight is for rota-baxter, not {args.kind}")
    if args.bimodule is not None and args.kind != "o-operator":
        raise _Usage(f"--bimodule is for o-operator, not {args.kind}")
    weight = bimod = None
    if args.kind == "rota-baxter":
        weight = _parse_scalar(field, args.weight if args.weight is not None else "0", "--weight",
                               args.strict_canonical)
    if args.kind == "o-operator":
        if args.bimodule is None:
            raise _Usage(f"{args.verb} --kind o-operator needs --bimodule")
        bimod = _load_as(args.bimodule, AltBimodule, args.strict_canonical)
    return weight, bimod


def _cmd_check_operator(args):
    a = _load_as(args.algebra, (HomAlgebra, HomPreAlgebra), args.strict_canonical)
    if isinstance(a, HomPreAlgebra) and args.kind != "endomorphism":
        raise _Usage("only endomorphism checks run on pre-algebra documents")
    f = _load_as(args.map, EvenMap, args.strict_canonical)
    weight, bimod = _operator_options(args, a.space.field)
    spec = OperatorSpec(args.kind, f, weight=weight, bimodule=bimod)
    rep = check_operator(spec, a)
    return _emit_report(rep, a.space.field)


def _cmd_search(args):
    a = _load_as(args.algebra, HomAlgebra, args.strict_canonical)
    weight, bimod = _operator_options(args, a.space.field)
    res = search_operators(
        a,
        args.kind,
        weight=weight,
        budget=args.budget,
        signed_perms=args.signed_perms,
        bimodule=bimod,
    )
    tail = "space exhausted" if res.exhausted else "budget reached"
    print(
        f"search {res.kind}: {len(res.found)} found, "
        f"{res.candidates_checked} of {res.space_size} candidates checked ({tail})"
    )
    doc = {
        "kind": "report",
        "search": {
            "operator": res.kind,
            "found": [matrix_to_json(f) for f in res.found],
            "candidates_checked": res.candidates_checked,
            "exhausted": res.exhausted,
            "space_size": res.space_size,
        },
    }
    print(canonical_dumps(doc), end="")
    return EXIT_PASS


def _cmd_corpus(args):
    if args.name == "list":
        for n in corpus.builtin_names():
            print(n)
        return EXIT_PASS
    if args.out is None:
        raise _Usage("corpus needs --out (or use the name 'list')")
    kind, obj = corpus.build_named(args.name, prime=args.prime)
    name = args.name if kind == "map" else None
    return _write(object_to_doc(obj, name=name), args.out)


def _calibration(label, calibrate, instances):
    """A calibrate verb: one verdict line per reading (out["per_<label>"]),
    the survivors, the adopted default and the report; exit 0 exactly when
    the default is the unique survivor."""

    def cmd(args):
        out = calibrate(instances())
        for reading, verdicts in out[f"per_{label}"].items():
            marks = ", ".join(f"{k}={'pass' if v else 'fail'}" for k, v in verdicts.items())
            print(f"{label} {reading}: {marks}")
        print(f"survivors: {', '.join(out['survivors']) or 'none'}")
        print(f"adopted: {out['default']}")
        print(canonical_dumps({"kind": "report", "calibration": out}), end="")
        return EXIT_PASS if out["survivors"] == [out["default"]] else EXIT_FAIL

    return cmd


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one "error:" line and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="workers for the scans of check, check-pre and verify-bimodule, "
                        f"used only for a scanned group of at least {POOL_MIN_TUPLES} tuples; "
                        "other verbs accept and ignore it (default: all cores)")
    common.add_argument("--strict-canonical", action="store_true",
                        help="reject non-canonical documents instead of normalizing")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="write the superalt log (one line per scan group and "
                        "per search) to stderr; stdout is unchanged")

    parser = _Parser(
        prog="superalt",
        description="verification and construction toolkit for graded "
        "hom-alternative and hom-prealternative structures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", parents=[common], help="check a product law on an algebra file")
    p.add_argument("file")
    p.add_argument("--law", required=True, choices=PRODUCT_LAWS)
    p.add_argument("--jordan-cycle", choices=JORDAN_CYCLES, default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("check-pre", parents=[common],
                       help="check a pre-structure law on a pre-algebra file")
    p.add_argument("file")
    p.add_argument("--law", required=True, choices=PRE_LAWS)
    p.set_defaults(fn=_cmd_check_pre)

    p = sub.add_parser("construct", parents=[common], help="apply a construction and write the result")
    p.add_argument("op", choices=CONSTRUCT_OPS)
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="FILE")
    p.add_argument("--map", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify-bimodule", parents=[common], help="check bimodule axioms")
    p.add_argument("file")
    p.add_argument("--law", required=True, choices=("alt", "pre"))
    p.set_defaults(fn=_cmd_verify_bimodule)

    p = sub.add_parser("check-operator", parents=[common], help="check an operator equation")
    p.add_argument("algebra")
    p.add_argument("--map", required=True)
    p.add_argument("--kind", required=True, choices=OPERATOR_KINDS)
    p.add_argument("--weight", default=None)
    p.add_argument("--bimodule", default=None)
    p.set_defaults(fn=_cmd_check_operator)

    p = sub.add_parser("search", parents=[common],
                       help="exact operator search over a prime field, in radix order "
                       "with pruning or over the signed permutation maps (--signed-perms); "
                       "--budget bounds the candidate counter")
    p.add_argument("algebra")
    p.add_argument("--kind", required=True, choices=OPERATOR_KINDS)
    p.add_argument("--weight", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--signed-perms", action="store_true")
    p.add_argument("--bimodule", default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("corpus", parents=[common], help="emit a built-in instance or map")
    p.add_argument("name")
    p.add_argument("--out", default=None)
    p.add_argument("--prime", type=int, default=None)
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("calibrate-jordan", parents=[common],
                       help="rerun the cyclic-reading calibration of the Jordan identity")
    p.set_defaults(fn=_calibration("cycle", calibrate_jordan, corpus.jordan_calibration_instances))

    p = sub.add_parser("calibrate-prebimodule", parents=[common],
                       help="rerun the pre-bimodule axiom-reading calibration")
    p.set_defaults(
        fn=_calibration("variant", calibrate_pre_bimodule, corpus.standard_pre_instances)
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("superalt")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # the rest of stdout goes to the null device, so exit cannot fail on it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written", file=sys.stderr)
        return EXIT_USAGE
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _run(args) -> int:
    try:
        if args.jobs < 1:
            raise _Usage(f"--jobs must be at least 1, got {args.jobs}")
        return args.fn(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as e:
        print(f"hypothesis failed for {e.operation}:", file=sys.stderr)
        print(_human_line(e.report))
        v = e.report.residual[0]  # a failing report's scalars name its field
        field = PrimeField(v.p) if isinstance(v, FpElement) else QQ
        print(canonical_dumps(report_to_doc(e.report, field)), end="")
        return EXIT_FAIL
    except (DocumentError, ValidationError, FieldError) as e:
        msgs = getattr(e, "errors", None) or [str(e)]
        for m in msgs:
            print(f"error: {m}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

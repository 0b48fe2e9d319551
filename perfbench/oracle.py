"""Correctness oracle: recorded expectations plus checks that hold at any seed.

`expected.json` holds, for every op the workloads run at the default seed,
a summary of its output recorded from a known-good commit: report verdicts,
`checked` counts, witnesses, identities and residuals; digests of search
results, documents and CLI output; CLI exit codes.  An op whose summary
differs from its recorded one counts as failed.

Ops drawn at another seed may have no recorded summary.  They are checked
against invariants instead: a failing law report must recompute to its
residual through the `law_identities` reference closures at its witness,
with `checked` equal to the witness's position in scan order; a passing one
must have checked every tuple; every document must round-trip byte-exact.
Once per op key, after timing, a law report is also rescanned through the
reference closures: a pass must have no failing tuple, and a failure must
be the first failing tuple and identity in scan order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import superalt as sa
import superalt.io  # noqa: F401  (binds sa.io)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0


def sha256(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def normalized(summary):
    """The summary as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(summary, sort_keys=True))


def doc_digest(obj, **kwargs) -> str:
    return sha256(sa.io.canonical_dumps(sa.io.object_to_doc(obj, **kwargs)))


def report_summary(rep, field) -> dict:
    return rep.to_json_dict(field)


def _scan_groups(ids):
    """Arity groups in declared order, as the scan engine visits them."""
    groups = []
    for name, arity, fn in ids:
        if groups and groups[-1][0] == arity:
            groups[-1][1].append((name, fn))
        else:
            groups.append((arity, [(name, fn)]))
    return groups


def law_report_problems(instance, law, rep) -> list:
    """Check a product or pre-structure law report against the reference
    closures of `law_identities`, without rescanning."""
    space = instance.space
    groups = _scan_groups(sa.law_identities(instance, law))
    totals = [space.dim ** arity for arity, _ in groups]
    if rep.passed:
        if rep.checked != sum(totals):
            return [f"{law}: passed after {rep.checked} of {sum(totals)} tuples"]
        return []
    witness = tuple(rep.witness)
    before = 0
    for (arity, fns), total in zip(groups, totals):
        names = [name for name, _ in fns]
        if rep.identity in names and arity == len(witness):
            break
        before += total
    else:
        return [f"{law}: identity {rep.identity!r} of arity {len(witness)} is not in the law"]
    if not all(0 <= i < space.dim for i in witness):
        return [f"{law}: witness {witness} out of range"]
    flat = 0
    for i in witness:
        flat = flat * space.dim + i
    problems = []
    if rep.checked != before + flat + 1:
        problems.append(f"{law}: checked {rep.checked}, witness sits at {before + flat + 1}")
    if tuple(rep.witness_parities) != tuple(space.parity(i) for i in witness):
        problems.append(f"{law}: witness parities {rep.witness_parities} do not match")
    points = tuple((sa.Vector.basis(space, i), space.parity(i)) for i in witness)
    residual = dict(fns)[rep.identity](points)
    if residual.is_zero():
        problems.append(f"{law}: {rep.identity} vanishes at the reported witness {witness}")
    elif residual.coords != tuple(rep.residual):
        problems.append(f"{law}: residual at {witness} recomputes to {residual.coords}")
    return problems


def law_rescan_problems(instance, law, rep) -> list:
    """Rescan the law through the reference closures of `law_identities`, up
    to the first failing tuple, and compare it with the report's verdict and
    witness."""
    space = instance.space
    points = [(sa.Vector.basis(space, i), space.parity(i)) for i in range(space.dim)]
    for arity, fns in _scan_groups(sa.law_identities(instance, law)):
        for idx in itertools.product(range(space.dim), repeat=arity):
            pts = tuple(points[i] for i in idx)
            for name, fn in fns:
                if fn(pts).is_zero():
                    continue
                if rep.passed:
                    return [f"{law}: reported passing, but {name} fails at {idx}"]
                if (name, idx) != (rep.identity, tuple(rep.witness)):
                    return [f"{law}: first failure is {name} at {idx}, "
                            f"not {rep.identity} at {tuple(rep.witness)}"]
                return []
    if not rep.passed:
        return [f"{law}: reported failing, but every tuple passes"]
    return []


def roundtrip(obj, name=None):
    """object_to_doc, canonical_dumps, strict parse_text, and back again:
    (first text, second text, parse warnings)."""
    text = sa.io.canonical_dumps(sa.io.object_to_doc(obj, name=name))
    _, back, warnings = sa.io.parse_text(text, strict=True)
    again = sa.io.canonical_dumps(sa.io.object_to_doc(back, name=name))
    return text, again, warnings


def roundtrip_problems(result) -> list:
    """The two texts of a round trip must agree, without parse warnings."""
    text, again, warnings = result
    problems = [f"parse warns: {w}" for w in warnings]
    if again != text:
        problems.append("document does not round-trip byte-exact")
    return problems


class Expectations:
    """Recorded summaries, keyed by workload and op key."""

    def __init__(self, data: dict):
        self.data = data

    @classmethod
    def load(cls, path=EXPECTED_PATH):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    @property
    def default_seed(self) -> int:
        return self.data["default_seed"]

    def get(self, section: str, key: str):
        return self.data.get(section, {}).get(key)

    def save(self, path=EXPECTED_PATH):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, sort_keys=True, indent=1)
            fh.write("\n")

"""Regenerate the artifact corpus and diff it against the checked-in one.

Usage: PYTHONPATH=src python tools/artifact_corpus.py [--refresh]

The corpus, under tests/artifacts/, holds one artifact per command form of
FORMS, kernel family and disorder law, all at seed 0: FORMS are the flag
sets of tests/test_cli.py::test_header_replays_as_flags plus "verify
moments" and "verify coarse", and the family, law and seed flags come last,
so they beat the form's own.  The script writes the corpus into a temporary
directory and runs tools/artifact_diff.py on tests/artifacts/ and the new
corpus, printing every field that moved; with --refresh it then replaces
the checked-in files with the new ones, unless a run failed, which leaves
them untouched.  Exits 1 when a run fails or when the diff finds anything
but a float move, else 0.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from copolab.cli import main as copolab
from copolab.disorder import DisorderLaw
from copolab.kernel import FamilyKind

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "artifacts"
SEED = 0

# form: (flags, artifact suffix)
FORMS = {
    "estimate": (["estimate", "--beta", "0.7", "--h", "0.2", "--n", "120", "--replicas", "5",
                  "--format", "json"], ".json"),
    "sweep": (["sweep", "--beta", "0.5", "--h-grid", "0.4,0.2", "--n", "100", "--replicas", "3",
               "--upsilon", "2.5", "--cl", "1.5"], ".csv"),
    "annealed": (["annealed", "--h-grid", "0.3,0.1", "--n", "300"], ".csv"),
    "bounds": (["bounds", "--beta", "1.0", "--h-grid", "0.2,0.1", "--format", "json"], ".json"),
    "kernel-info": (["kernel-info", "--h", "0.04", "--n", "1200", "--format", "csv"], ".csv"),
    "verify-oracle": (["verify", "oracle"], ".json"),
    "verify-penalization": (["verify", "penalization", "--beta", "0.8"], ".json"),
    "verify-moments": (["verify", "moments"], ".json"),
    "verify-coarse": (["verify", "coarse"], ".json"),
}
# the forms cheap enough to rerun in every test run
CHEAP = [form for form in FORMS if form not in ("verify-oracle", "verify-moments")]


def cases(forms=FORMS):
    """(file name, command line) of every artifact of ``forms``."""
    for form in forms:
        flags, suffix = FORMS[form]
        for family in sorted(kind.value for kind in FamilyKind):
            for law in sorted(law.value for law in DisorderLaw):
                name = f"{form}-{family}-{law}{suffix}"
                yield name, [*flags, "--family", family, "--law", law, "--seed", str(SEED)]


def write(root: Path, forms=FORMS) -> list[str]:
    """Write the artifacts of ``forms`` into ``root``; the names of the runs that exited nonzero."""
    root.mkdir(parents=True, exist_ok=True)
    return [name for name, argv in cases(forms) if copolab([*argv, "--out", str(root / name)]) != 0]


def main(argv=None) -> int:
    import artifact_diff  # beside this script, which puts its directory on sys.path

    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--refresh"]):
        print("usage: python tools/artifact_corpus.py [--refresh]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch)
        failed = write(fresh)
        for name in failed:
            print(f"{name}: the run exited nonzero")
        code = artifact_diff.main([str(CORPUS), str(fresh)]) if CORPUS.is_dir() else 0
        if args == ["--refresh"] and failed:
            print(f"left {CORPUS} untouched: a run exited nonzero")
        elif args == ["--refresh"]:
            shutil.rmtree(CORPUS, ignore_errors=True)
            shutil.copytree(fresh, CORPUS)
            print(f"wrote {len(list(CORPUS.iterdir()))} artifacts to {CORPUS}")
    return 1 if failed or code else 0


if __name__ == "__main__":
    sys.exit(main())

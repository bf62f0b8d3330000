import importlib.util
import json
import math
from pathlib import Path

import pytest


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_diff = _tool("artifact_diff")
artifact_corpus = _tool("artifact_corpus")

_REPORT = {
    "config": {"command": "verify oracle", "seed": 3},
    "pass": True,
    "suites": {"oracle": {"checks": [{"name": "trimmed", "ok": True, "value": 1.5e-13}], "rows": 4}},
}
_TABLE = '# {"config": {"command": "sweep", "seed": 0}}\nbeta,h,mean,note\n0.5,0.4,-0.25,a\n0.5,0.2,1e-3,b\n'


def _write(root, report, table):
    root.mkdir()
    (root / "verify.json").write_text(json.dumps(report))
    (root / "sweep.csv").write_text(table)
    return root


def test_identical_artifacts_show_no_difference(tmp_path, capsys):
    first = _write(tmp_path / "a", _REPORT, _TABLE)
    second = _write(tmp_path / "b", _REPORT, _TABLE)
    assert artifact_diff.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out == (
        "0 exact differences, 0 floats moved, worst relative move 0.00e+00, 0 byte-only differences\n"
    )


def test_floats_report_their_relative_move_and_everything_else_must_match(tmp_path, capsys):
    moved = json.loads(json.dumps(_REPORT))
    moved["suites"]["oracle"]["checks"][0]["value"] = 2.0e-13
    moved["suites"]["oracle"]["rows"] = 5
    moved["pass"] = False
    first = _write(tmp_path / "a", _REPORT, _TABLE)
    second = _write(tmp_path / "b", moved, _TABLE.replace("-0.25", "-0.2500001").replace(",b", ",c"))
    (second / "extra.json").write_text("{}")
    assert artifact_diff.main([str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"extra.json: only in {second}",
        "sweep.csv:rows[1][2]: -0.25 -> -0.2500001 (relative 4.00e-07)",
        "sweep.csv:rows[2][3]: 'b' != 'c'",
        "verify.json:pass: True != False",
        "verify.json:suites.oracle.checks[0].value: 1.5e-13 -> 2e-13 (relative 2.50e-01)",
        "verify.json:suites.oracle.rows: 4 != 5",
        "4 exact differences, 2 floats moved, worst relative move 2.50e-01, 0 byte-only differences",
    ]


def test_equal_fields_in_different_bytes_are_a_byte_only_difference(tmp_path, capsys):
    # the fields match, so only the byte comparison sees the changed indent
    first = _write(tmp_path / "a", _REPORT, _TABLE)
    second = _write(tmp_path / "b", _REPORT, _TABLE)
    (second / "verify.json").write_text(json.dumps(_REPORT, indent=1))
    assert artifact_diff.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verify.json: equal fields, different bytes",
        "0 exact differences, 0 floats moved, worst relative move 0.00e+00, 1 byte-only differences",
    ]


def test_structure_and_types_must_match():
    # a missing key, a shorter list, an int against a float and a flag
    # against an int are differences of structure, not float moves
    a = {"x": [1.0, 2.0], "y": 1, "z": True, "w": 0.0}
    b = {"x": [1.0], "y": 1.0, "z": 1}
    found = {(path, kind) for path, kind, *_ in artifact_diff.diff(a, b)}
    assert found == {("x.length", "exact"), ("y", "exact"), ("z", "exact"), ("w", "exact")}


@pytest.mark.parametrize(
    "a,b,move",
    [(1.0, 1.0, 0.0), (math.nan, math.nan, 0.0), (2.0, -2.0, 2.0), (0.0, 1e-300, 1.0),
     (math.inf, 1.0, math.inf), (1.0, math.nan, math.inf), (math.nan, 1.0, math.inf)],
)
def test_relative_move(a, b, move):
    assert artifact_diff.relative_move(a, b) == move


def test_corpus_holds_one_artifact_per_form_family_and_law():
    names = sorted(path.name for path in artifact_corpus.CORPUS.iterdir())
    assert names == sorted(name for name, _ in artifact_corpus.cases())
    assert len(names) == 9 * 3 * 2


@pytest.mark.parametrize("form", artifact_corpus.CHEAP)
def test_cheap_forms_reproduce_the_corpus(tmp_path, form):
    # the checked-in corpus is test data; refreshing it is a recorded change
    # (tools/artifact_corpus.py --refresh).  Structure, flags, integers and
    # strings match it exactly, every float within 1e-12 relative
    assert artifact_corpus.write(tmp_path, [form]) == []
    for name, _ in artifact_corpus.cases([form]):
        kept, fresh = (artifact_diff.load(root / name) for root in (artifact_corpus.CORPUS, tmp_path))
        moves = list(artifact_diff.diff(kept, fresh))
        assert all(kind == "float" and move <= 1e-12 for _, kind, _, _, move in moves), (name, moves)


def test_refresh_after_a_failed_run_leaves_the_corpus_untouched(tmp_path, monkeypatch, capsys):
    # a failed form would otherwise lose its checked-in artifacts, or have
    # them replaced by partial output
    corpus = _write(tmp_path / "corpus", _REPORT, _TABLE)
    kept = {path.name: path.read_bytes() for path in corpus.iterdir()}

    def copolab(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(json.dumps(_REPORT))
        return 1 if out.name == "verify-coarse-logarithmic-gaussian.json" else 0

    monkeypatch.setattr(artifact_corpus, "CORPUS", corpus)
    monkeypatch.setattr(artifact_corpus, "copolab", copolab)
    monkeypatch.syspath_prepend(str(Path(artifact_corpus.__file__).parent))
    assert artifact_corpus.main(["--refresh"]) == 1
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == kept
    out = capsys.readouterr().out
    assert "verify-coarse-logarithmic-gaussian.json: the run exited nonzero" in out
    assert f"left {corpus} untouched: a run exited nonzero" in out

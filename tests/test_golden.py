"""Reports, charts and stats on the benchmark corpora keep their bytes.

The digests in golden_corpus.json were made by `python tests/golden.py
--update`; a change that moves bytes on purpose regenerates them and says
why.
"""

import json

import golden


def test_corpus_artifacts_match_the_manifest():
    expected = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    moved = golden.moved(expected, golden.generate())
    assert moved == [], "artifacts moved:\n" + "\n".join(moved)


def test_moved_names_each_artifact_that_differs():
    base = {"input": "i", "stats_text": "t", "stats_json": "j",
            "sessions": {"s1": {"report": "r", "chart": "c"}}}
    changed = json.loads(json.dumps(base))
    changed["stats_json"] = "J"
    changed["sessions"]["s1"]["chart"] = "C"
    changed["sessions"]["s2"] = {"report": "r", "chart": "c"}
    assert golden.moved({"w/7": base, "x/7": base}, {"w/7": changed}) == [
        "w/7 stats_json", "w/7 s1 chart", "w/7 s2 report", "w/7 s2 chart", "x/7 missing",
    ]

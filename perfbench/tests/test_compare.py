import json

from compare import load, verdict


def test_verdicts_against_the_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8]
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "same"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    wide = [5.0, 10.0, 15.0, 20.0]
    assert verdict(base, wide, "lower", 0.1) == "unresolved"
    assert verdict(wide, [1.0, 1.1, 1.2], "lower", 0.1) == "better"
    assert verdict([0.0] * 3, [0.0] * 3, "lower", 0.0) == "same"
    assert verdict([0.0] * 3, [0.1] * 3, "lower", 0.0) == "worse"


def test_load_keeps_untraced_runs_per_workload(tmp_path):
    for i, (workload, trace) in enumerate((("verify", 0), ("verify", 0), ("verify", 1))):
        record = {"meta": {"workload": workload, "trace": trace}, "metrics": {"wall_s": float(i)}}
        (tmp_path / f"{i}.json").write_text(json.dumps(record))
    assert load(str(tmp_path)) == {"verify": {"wall_s": [0.0, 1.0]}}

"""Runlog recording, JSONL round-trip, numpy sanitization, run diffing."""

import json

import numpy as np

from repro.observe import RunLog, diff_runs, jsonable


def test_events_get_sequence_numbers_and_kind():
    log = RunLog(run_id="r1")
    log.record("a", x=1)
    log.record("b", y=2)
    assert [e["seq"] for e in log.events] == [0, 1]
    assert [e["kind"] for e in log.events] == ["a", "b"]
    assert all(e["run_id"] == "r1" for e in log.events)


def test_jsonable_converts_numpy_types():
    out = jsonable({
        "i": np.int64(3), "f": np.float32(1.5), "b": np.bool_(True),
        "arr": np.array([1, 2]), "nested": [np.float64(0.25)],
    })
    assert out == {"i": 3, "f": 1.5, "b": True, "arr": [1, 2],
                   "nested": [0.25]}
    json.dumps(out)  # must be JSON-serializable


def test_jsonable_returns_exact_json_types_only():
    out = jsonable({
        "plain": ["a", 1, 2.5, True, None],
        "mixed": ["a", np.int64(4), (np.float64(0.5), np.bool_(False))],
        "floats": np.array([[0.5, 1.0]], dtype=np.float32),
        "bools": np.array([True, False]),
        "objects": np.array([np.int64(2), "x"], dtype=object),
    })
    assert out == {"plain": ["a", 1, 2.5, True, None],
                   "mixed": ["a", 4, [0.5, False]],
                   "floats": [[0.5, 1.0]], "bools": [True, False],
                   "objects": [2, "x"]}

    def types(value):
        if isinstance(value, list):
            return [types(v) for v in value]
        if isinstance(value, dict):
            return {k: types(v) for k, v in value.items()}
        return type(value)

    assert types(out) == {
        "plain": [str, int, float, bool, type(None)],
        "mixed": [str, int, [float, bool]],
        "floats": [[float, float]], "bools": [bool, bool],
        "objects": [int, str]}


def test_jsonl_write_through_and_round_trip(tmp_path):
    path = tmp_path / "runs" / "log.jsonl"
    log = RunLog(path, run_id="rt")
    log.record("importance.run", method="loo", seed=7,
               scores=np.array([0.1, 0.2]))
    log.record("cleaning.round", round=np.int64(0), score=np.float64(0.9))

    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["method"] == "loo"

    loaded = RunLog.load(path)
    assert loaded.run_id == "rt"
    assert loaded.events == log.events


def test_write_dumps_in_memory_log(tmp_path):
    log = RunLog(run_id="m")
    log.record("x", value=1)
    out = log.write(tmp_path / "dump.jsonl")
    assert RunLog.load(out).events == log.events


def test_iter_events_filters_by_kind():
    log = RunLog()
    log.record("a", n=1)
    log.record("b", n=2)
    log.record("a", n=3)
    assert [e["n"] for e in log.iter_events("a")] == [1, 3]
    assert log.kinds() == {"a": 2, "b": 1}


def test_diff_identical_runs_is_empty():
    a, b = RunLog(run_id="a"), RunLog(run_id="b")
    for log in (a, b):
        log.record("importance.run", method="shapley_mc", seed=0,
                   data_fingerprint="abc")
    assert diff_runs(a, b) == []


def test_diff_reports_changed_fields_and_extra_events():
    a, b = RunLog(), RunLog()
    a.record("importance.run", method="shapley_mc", seed=0)
    b.record("importance.run", method="shapley_mc", seed=1)
    b.record("cleaning.round", round=0)
    lines = diff_runs(a, b)
    assert any("seed: 0 != 1" in line for line in lines)
    assert any("only in B: cleaning.round" in line for line in lines)


def test_new_runlog_truncates_existing_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"seq": 0, "kind": "stale"}\n')
    log = RunLog(path)
    log.record("fresh")
    events = [json.loads(l) for l in path.read_text().strip().splitlines()]
    assert [e["kind"] for e in events] == ["fresh"]

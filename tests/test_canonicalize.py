"""Merge-aggregate semantics + batching associativity
(FIXTURES.md §4 merge cases; SURVEY §7 hard part: batched combine then
one fold == a single batch)."""

import json

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx.stages.canonicalize import (_argmax_count, _better_desc,
                                     _cap_instances, _fold_state_rows,
                                     _new_state, combine_mentions_batch,
                                     merge_states)


def _mention_row(url, chunk_id, mention, norm, etype="T", desc=""):
    return {"url": url, "chunk_id": chunk_id, "mention": mention,
            "norm_mention": norm, "type": etype, "description": desc}


def _batch(rows):
    return pa.table({
        "url": pa.array([r["url"] for r in rows]),
        "chunk_id": pa.array([r["chunk_id"] for r in rows]),
        "mention": pa.array([r["mention"] for r in rows]),
        "norm_mention": pa.array([r["norm_mention"] for r in rows]),
        "type": pa.array([r["type"] for r in rows]),
        "description": pa.array([r["description"] for r in rows]),
    })


def test_longer_description_wins():
    # /root/reference/models/entity.py:50-52 semantics, order-independent
    assert _better_desc("short", "much longer desc") == "much longer desc"
    assert _better_desc("much longer desc", "short") == "much longer desc"
    assert _better_desc("bbb", "aaa") == "aaa"  # tie -> lexicographic min


def test_argmax_count_tiebreak():
    assert _argmax_count({"b": 2, "a": 2, "c": 1}) == "a"
    assert _argmax_count({"x": 5, "y": 1}) == "x"


def test_cap_instances_is_min_k():
    got = _cap_instances([("u3", "c"), ("u1", "c"), ("u2", "c"), ("u1", "c")], 2)
    assert got == [("u1", "c"), ("u2", "c")]


def test_merge_states_accumulates():
    a, b = _new_state(), _new_state()
    a["nc"]["X"] = 2; a["n"] = 2; a["d"] = "dd"; a["al"] = ["X"]
    b["nc"]["X"] = 1; b["nc"]["x!"] = 3; b["n"] = 4; b["d"] = "d"; b["al"] = ["x!"]
    m = merge_states(a, b)
    assert m["nc"] == {"X": 3, "x!": 3}
    assert m["n"] == 6 and m["d"] == "dd" and m["al"] == ["X", "x!"]


@st.composite
def mention_rows(draw):
    n = draw(st.integers(1, 60))
    rows = []
    for i in range(n):
        k = draw(st.integers(0, 4))
        rows.append(_mention_row(
            url=f"u{draw(st.integers(0, 9))}",
            chunk_id=f"c{i}",
            mention=draw(st.sampled_from(["Key", "KEY", "key!", "kéy"])) + str(k),
            norm=f"key {k}",
            etype=draw(st.sampled_from(["A", "B"])),
            desc=draw(st.sampled_from(["", "d", "dd", "ddd", "abc"]))))
    return rows


@given(mention_rows(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_two_phase_equals_single_phase(rows, n_batches):
    """Splitting into arbitrary batches, combining each batch and folding
    every key's states once must give the same final state as one batch
    (associativity of every merge rule)."""
    single = combine_mentions_batch(_batch(rows), cap=3)
    ref = {}
    for norm, s in zip(single["norm_mention"].to_pylist(),
                       single["state"].to_pylist()):
        ref[norm] = json.loads(s)

    # batch split -> per-batch combine -> one fold per norm
    per = max(1, len(rows) // n_batches)
    states: dict[str, list] = {}
    for i in range(0, len(rows), per):
        t = combine_mentions_batch(_batch(rows[i:i + per]), cap=3)
        for norm, s in zip(t["norm_mention"].to_pylist(),
                           t["state"].to_pylist()):
            states.setdefault(norm, []).append(s)
    final = {norm: _fold_state_rows(jsons, cap=3)
             for norm, jsons in states.items()}

    def canon(d):
        return {k: {"nc": v["nc"], "tc": v["tc"], "d": v["d"], "n": v["n"],
                    "inst": [list(map(list, map(tuple, v["inst"])))],
                    "al": v["al"]} for k, v in d.items()}
    assert canon(final) == canon(ref)

"""Merge-aggregate semantics + batching associativity
(FIXTURES.md §4 merge cases; SURVEY §7 hard part: batched combine then
one fold == a single batch)."""

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx.stages.canonicalize import (_argmax_count, _better_desc,
                                     _cap_instances, _new_state,
                                     combine_mentions_batch,
                                     finalize_nodes_block,
                                     merge_mention_states, merge_states)


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


def _reference_states(rows, cap):
    """The dict reference fold (the sequential oracle's), one merge per
    row, as typed state rows sorted by norm."""
    ref = {}
    for r in rows:
        one = _new_state()
        one["nc"][r["mention"]] = 1
        one["tc"][r["type"]] = 1
        one["d"] = r["description"]
        one["n"] = 1
        one["inst"] = [(r["url"], r["chunk_id"])]
        one["al"] = [r["mention"]]
        merge_states(ref.setdefault(r["norm_mention"], _new_state()), one,
                     cap)
    return [{"norm_mention": k,
             "names": [{"s": s, "c": c} for s, c in sorted(v["nc"].items())],
             "types": [{"s": s, "c": c} for s, c in sorted(v["tc"].items())],
             "desc": v["d"], "n": v["n"],
             "inst": [{"url": u, "chunk_id": c} for u, c in v["inst"]]}
            for k, v in sorted(ref.items())]


@given(mention_rows(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_two_phase_equals_single_phase(rows, n_batches):
    """Splitting into arbitrary batches, combining each batch and folding
    every key's states once must give the same final state as one batch
    (associativity of every merge rule), and both equal the dict
    reference, whose aliases are the merged names."""
    single = combine_mentions_batch(_batch(rows), cap=3)

    # batch split -> per-batch combine -> one fold over the key-sorted
    # union of the batches' states
    per = max(1, len(rows) // n_batches)
    states = pa.concat_tables([combine_mentions_batch(
        _batch(rows[i:i + per]), cap=3) for i in range(0, len(rows), per)])
    final = merge_mention_states(states.sort_by("norm_mention"),
                                 ["norm_mention"], cap=3)
    assert final.equals(single)
    ref = _reference_states(rows, 3)
    assert single.to_pylist() == ref
    assert [[n["s"] for n in r["names"]] for r in ref] == \
        [sorted({r["mention"] for r in rows if r["norm_mention"] == k})
         for k in sorted({r["norm_mention"] for r in rows})]


@pytest.mark.parametrize("column, values, want", [
    pytest.param("mention", ["b", "a", "b", "a"], "a", id="name_count_tie"),
    pytest.param("type", ["Y", "X", "Y", "X", "Z"], "X",
                 id="type_count_tie"),
    pytest.param("mention", ["b", "a", "b"], "b", id="name_most_frequent"),
    pytest.param("description", ["bbb", "aaa", "cc"], "aaa",
                 id="desc_length_tie"),
    pytest.param("description", ["zz", "abc", ""], "abc",
                 id="desc_longest"),
    pytest.param("mention", ["z", "kéy", "key"], "key", id="name_non_ascii"),
    pytest.param("type", ["z", "kéy"], "kéy", id="type_non_ascii"),
    pytest.param("description", ["kéy", "key", "zzz"], "key",
                 id="desc_non_ascii"),
    pytest.param("description", ["éé", "abc"], "abc",
                 id="desc_length_in_code_points"),
    pytest.param("mention", ["\U0001F600", "\uffff"], "\uffff",
                 id="name_astral_code_point_order"),
])
@pytest.mark.parametrize("n_batches", [1, 2])
def test_typed_merge_tie_breaks(column, values, want, n_batches):
    """The typed merge breaks ties the way Python's ``min``/``sorted`` do
    (equal counts -> smallest surface, equal-length descriptions ->
    smallest), in code-point order, whether the rows meet in the combine
    or in the fold."""
    rows = [_mention_row(f"u{i}", "c", "Key", "key", "T", "d")
            for i in range(len(values))]
    for r, v in zip(rows, values):
        r[column] = v
    parts = [combine_mentions_batch(_batch(rows[i::n_batches]), cap=3)
             for i in range(n_batches)]
    states = pa.concat_tables(parts)
    states = states.rename_columns(["entity_id"] + states.column_names[1:])
    node = finalize_nodes_block(states, cap=3).to_pylist()
    field = {"mention": "name", "type": "type",
             "description": "description"}[column]
    assert node[0][field] == want
    ref = _reference_states(rows, 3)[0]
    assert want == {"mention": _argmax_count({n["s"]: n["c"] for n in
                                              ref["names"]}),
                    "type": _argmax_count({n["s"]: n["c"] for n in
                                           ref["types"]}),
                    "description": ref["desc"]}[column]
    assert node[0]["aliases"] == sorted({r["mention"] for r in rows})

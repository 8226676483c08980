"""End-to-end: Ray pipeline == sequential oracle, P/R >= 0.95 vs truth,
byte-identical text per url, checkpoint resume (FIXTURES.md §3/§4)."""

import glob
import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from kgx.oracle import run_oracle, text_reference, triple_pr
from kgx.pipelines.kg import KGConfig, run_pipeline


@pytest.fixture(scope="module")
def run(smoke_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kgout"))
    paths = run_pipeline(smoke_corpus["pages"], out, KGConfig())
    return {"paths": paths, "out": out, **smoke_corpus}


class TestE2E:
    def test_pipeline_equals_sequential_oracle(self, run):
        oracle = run_oracle(pq.read_table(run["pages"]))
        for name in ("nodes", "edges", "claims"):
            got = pq.read_table(run["paths"][name])
            key = got.schema.names[0]
            assert got.sort_by(key).to_pylist() == \
                oracle[name].sort_by(key).to_pylist(), name

    def test_triple_pr_vs_truth(self, run):
        nodes = pq.read_table(run["paths"]["nodes"])
        edges = pq.read_table(run["paths"]["edges"])
        p, r = triple_pr(edges, nodes, pq.read_table(run["truth"]))
        assert p >= 0.95 and r >= 0.95, (p, r)

    def test_text_byte_identical_per_url(self, run):
        """input_hint invariant: per-url extracted text == the sequential
        html.parser extraction; pre-filled rows pass through."""
        pages = pq.read_table(run["pages"])
        texts = pq.read_table(run["paths"]["texts"])
        got = dict(zip(texts["url"].to_pylist(), texts["text"].to_pylist()))
        for row in pages.to_pylist():
            want = row["text"] if row["text"] is not None \
                else text_reference(row["html"])
            assert got[row["url"]] == want, row["url"]

    def test_strength_filter_applied(self, run):
        edges = pq.read_table(run["paths"]["edges"])
        assert edges.num_rows > 0
        assert pc.min(edges["strength"]).as_py() >= 0.5
        # the 0.4 'visited' pattern must never materialize
        assert "visited" not in set(edges["pred"].to_pylist())

    def test_nodes_sorted_and_ids_content_hashed(self, run):
        nodes = pq.read_table(run["paths"]["nodes"])
        ids = nodes["entity_id"].to_pylist()
        assert ids == sorted(ids)
        from kgx.functions.normalize import entity_id, normalize
        row = nodes.slice(0, 1).to_pylist()[0]
        assert row["entity_id"] == entity_id(normalize(row["name"]))

    def test_head_entity_instances_capped_count_exact(self, run):
        nodes = pq.read_table(run["paths"]["nodes"])
        us = nodes.filter(pc.equal(nodes["name"], "United States")).to_pylist()
        assert len(us) == 1
        assert us[0]["n_instances"] >= len(us[0]["instances"])
        assert us[0]["type"] == "LOCATION"

    def test_lineage_records_every_stage(self, run):
        files = {os.path.basename(f) for f in
                 glob.glob(os.path.join(run["out"], "lineage", "*.parquet"))}
        assert files == {"texts.parquet", "chunks.parquet",
                         "extracted.parquet", "nodes.parquet",
                         "edges.parquet", "claims.parquet"}
        lin = pq.read_table(os.path.join(run["out"], "lineage",
                                         "extracted.parquet"))
        assert lin.num_rows >= 1
        assert set(lin.schema.names) == {"stage", "partition", "file", "rows",
                                         "bytes", "wall_s"}


class TestResume:
    def test_rerun_skips_all_stages(self, run):
        mtimes = {f: os.path.getmtime(f) for f in
                  glob.glob(os.path.join(run["out"], "*", "_MANIFEST.json"))}
        run_pipeline(run["pages"], run["out"], KGConfig())
        after = {f: os.path.getmtime(f) for f in
                 glob.glob(os.path.join(run["out"], "*", "_MANIFEST.json"))}
        assert mtimes == after

    def test_killed_stage_recovers_identically(self, run):
        edges_before = pq.read_table(run["paths"]["edges"]).to_pylist()
        os.remove(os.path.join(run["out"], "edges", "_MANIFEST.json"))
        nodes_m = os.path.getmtime(
            os.path.join(run["out"], "nodes", "_MANIFEST.json"))
        run_pipeline(run["pages"], run["out"], KGConfig())
        assert pq.read_table(run["paths"]["edges"]).to_pylist() == edges_before
        assert os.path.getmtime(
            os.path.join(run["out"], "nodes", "_MANIFEST.json")) == nodes_m

    def test_config_change_invalidates(self, run, tmp_path):
        out = str(tmp_path)
        run_pipeline(run["pages"], out, KGConfig(chunk_size=120))
        chunks_m = os.path.getmtime(
            os.path.join(out, "chunks", "_MANIFEST.json"))
        run_pipeline(run["pages"], out, KGConfig(chunk_size=80))
        assert os.path.getmtime(
            os.path.join(out, "chunks", "_MANIFEST.json")) != chunks_m


def test_unknown_extractor_refused_up_front(smoke_corpus, tmp_path):
    """No KGConfig field carries an LLM transport, so extractor="llm" is
    an unknown extractor: every composition refuses it before a Dataset
    runs, and run_pipeline writes no stage directory."""
    from kgx.pipelines.kg import stream_kg, update_pipeline
    cfg = KGConfig(extractor="llm")
    with pytest.raises(ValueError, match="llm"):
        stream_kg(smoke_corpus["pages"], cfg)
    out = str(tmp_path / "kg")
    with pytest.raises(ValueError, match="llm"):
        run_pipeline(smoke_corpus["pages"], out, cfg)
    assert not os.path.exists(out)
    with pytest.raises(ValueError, match="llm"):
        update_pipeline(smoke_corpus["pages"], out, cfg)


class TestPartitionResume:
    """Block-level resume of the extraction stage (north_rule: a killed
    run resumes from the last completed block)."""

    def test_completed_groups_skipped_on_resume(self, smoke_corpus,
                                                tmp_path_factory):
        import json
        import os
        from kgx.pipelines.kg import KGConfig, run_pipeline

        out = str(tmp_path_factory.mktemp("presume"))
        p = run_pipeline(smoke_corpus["pages"], out, KGConfig())
        edir = p["extracted"]
        groups = sorted(g for g in os.listdir(edir) if g.startswith("g"))
        assert len(groups) >= 2
        before = {g: sorted(os.listdir(os.path.join(edir, g)))
                  for g in groups}
        mtimes = {g: os.path.getmtime(os.path.join(
            edir, g, before[g][0])) for g in groups}

        # simulate a kill after group 0: drop the stage-level manifest and
        # one group's manifest -> on resume only that group rebuilds
        os.remove(os.path.join(edir, "_MANIFEST.json"))
        victim = groups[-1]
        os.remove(os.path.join(edir, victim, "_MANIFEST.json"))
        p2 = run_pipeline(smoke_corpus["pages"], out, KGConfig())

        for g in groups:
            first = sorted(os.listdir(os.path.join(edir, g)))[0]
            mt = os.path.getmtime(os.path.join(edir, g, first))
            if g == victim:
                continue  # rebuilt; content checked below
            assert mt == mtimes[g], f"group {g} was rebuilt"
        # stage manifest restored and totals unchanged
        m = json.load(open(os.path.join(edir, "_MANIFEST.json")))
        assert m["n_groups"] == len(groups)
        import pyarrow.parquet as pq
        t1 = pq.read_table(p["edges"]).to_pylist()
        t2 = pq.read_table(p2["edges"]).to_pylist()
        assert t1 == t2


class TestJsonlSource:
    def test_jsonl_to_kg(self, tmp_path_factory, ray_session):
        """S1 parity for the JSONL interchange shape: field mapping
        (url / doc_id / bare text), content-hash url synthesis, and the
        full pipeline end-to-end via pages_ds_factory."""
        import json
        import os
        import pyarrow.parquet as pq
        from kgx.pipelines.kg import KGConfig, run_pipeline
        from kgx.sources.pages import read_jsonl_pages

        root = str(tmp_path_factory.mktemp("jsonl"))
        path = os.path.join(root, "corpus.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({
                "url": "https://example.test/a",
                "text": "Ada Lovelace works for Acme Corporation.",
                "lang": "en"}) + "\n")
            f.write(json.dumps({
                "url": None,
                "text": "Alan Turing works for Acme Corporation.",
                "lang": None}) + "\n")

        ds = read_jsonl_pages(path)
        rows = ds.to_pandas().to_dict("records")
        assert len(rows) == 2
        by_url = {r["url"]: r for r in rows}
        assert "https://example.test/a" in by_url
        synth = [u for u in by_url if u.startswith("jsonl://")]
        assert len(synth) == 1 and len(synth[0]) == len("jsonl://") + 16
        assert by_url[synth[0]]["lang"] == "en"      # null lang defaulted
        assert all(r["html"] is None for r in rows)

        out = os.path.join(root, "out")
        paths = run_pipeline(path, out, KGConfig(),
                             pages_ds_factory=lambda: read_jsonl_pages(path))
        names = set(pq.read_table(paths["nodes"])["name"].to_pylist())
        assert {"Ada Lovelace", "Alan Turing", "Acme Corporation"} <= names

    def test_csv_source_maps_and_runs(self, tmp_path_factory, ray_session):
        """CSV shares the tolerant field mapping and runs the pipeline."""
        import os
        import pyarrow.parquet as pq
        from kgx.pipelines.kg import KGConfig, run_pipeline
        from kgx.sources.pages import read_csv_pages
        root = str(tmp_path_factory.mktemp("csvsrc"))
        path = os.path.join(root, "docs.csv")
        with open(path, "w") as f:
            f.write("doc_id,text,lang\n")
            f.write('1,"Ada Lovelace works for Acme Corporation.",en\n')
            f.write('2,"Alan Turing works for Acme Corporation.",en\n')
        ds = read_csv_pages(path)
        rows = ds.to_pandas().to_dict("records")
        assert sorted(r["url"] for r in rows) == ["doc://1", "doc://2"]
        out = os.path.join(root, "out")
        paths = run_pipeline(path, out, KGConfig(),
                             pages_ds_factory=lambda: read_csv_pages(path))
        names = set(pq.read_table(paths["nodes"])["name"].to_pylist())
        assert {"Ada Lovelace", "Alan Turing", "Acme Corporation"} <= names

    def test_jsonl_doc_id_mapping(self, tmp_path_factory, ray_session):
        import json
        import os
        from kgx.sources.pages import read_jsonl_pages
        root = str(tmp_path_factory.mktemp("jsonl2"))
        path = os.path.join(root, "docs.jsonl")
        with open(path, "w") as f:
            for i in range(3):
                f.write(json.dumps({"doc_id": i, "text": f"t{i}"}) + "\n")
        urls = sorted(read_jsonl_pages(path).to_pandas()["url"])
        assert urls == ["doc://0", "doc://1", "doc://2"]


class TestTextDirSource:
    def test_raw_directory_to_kg(self, tmp_path_factory, ray_session):
        """S1 parity: a directory of loose .txt/.md/.html files runs the
        full pipeline end-to-end via read_text_dir + pages_ds_factory."""
        import os
        import pyarrow.parquet as pq
        from kgx.pipelines.kg import KGConfig, run_pipeline
        from kgx.sources.pages import read_text_dir

        root = str(tmp_path_factory.mktemp("textdir"))
        docs = os.path.join(root, "docs")
        os.makedirs(docs)
        with open(os.path.join(docs, "a.txt"), "w") as f:
            f.write("Ada Lovelace works for Acme Corporation.")
        with open(os.path.join(docs, "b.md"), "w") as f:
            f.write("Alan Turing works for Acme Corporation.")
        with open(os.path.join(docs, "c.html"), "w") as f:
            f.write("<html><body><article><p>Grace Hopper works for "
                    "Acme Corporation.</p></article></body></html>")
        with open(os.path.join(docs, "skip.bin"), "w") as f:
            f.write("not a text extension")  # filtered out
        with open(os.path.join(docs, "bad.txt"), "wb") as f:
            f.write(b"\xff\xfe invalid \xff utf8")  # skipped, not fatal

        ds = read_text_dir(docs)
        rows = {r["url"]: r for r in ds.to_pandas().to_dict("records")}
        assert set(rows) == {"file://a.txt", "file://b.md", "file://c.html"}
        assert rows["file://c.html"]["text"] is None  # html -> extract stage
        assert rows["file://a.txt"]["html"] is None

        out = os.path.join(root, "out")
        paths = run_pipeline(docs, out, KGConfig(),
                             pages_ds_factory=lambda: read_text_dir(docs))
        nodes = pq.read_table(paths["nodes"])
        names = set(nodes["name"].to_pylist())
        assert {"Ada Lovelace", "Alan Turing", "Grace Hopper",
                "Acme Corporation"} <= names
        texts = pq.read_table(paths["texts"])
        got = dict(zip(texts["url"].to_pylist(), texts["text"].to_pylist()))
        # html file went through the boilerplate-stripping extractor
        assert got["file://c.html"] == ("Grace Hopper works for "
                                        "Acme Corporation.")

    def test_empty_directory(self, tmp_path_factory, ray_session):
        import os
        from kgx.sources.pages import read_text_dir
        d = str(tmp_path_factory.mktemp("emptydir"))
        assert read_text_dir(d).count() == 0
        os.makedirs(os.path.join(d, "x"))  # subdirs ignored like reference
        assert read_text_dir(d).count() == 0


class TestPageDedup:
    def test_duplicate_pages_collapse(self, tmp_path_factory, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import os
        from kgx.pipelines.kg import KGConfig, run_pipeline

        root = str(tmp_path_factory.mktemp("dedup_pages"))
        pdir = os.path.join(root, "pages")
        os.makedirs(pdir)
        html = (b"<html><head><title>t</title></head><body><article>"
                b"<p>Ada Lovelace works for Acme Corporation.</p>"
                b"</article></body></html>")
        tbl = pa.table({
            "url": pa.array([f"https://x/{i}" for i in range(4)]),
            "warc_ts": pa.array([0] * 4, pa.timestamp("us")),
            "html": pa.array([html, html, html,
                              html.replace(b"Ada", b"Alan")], pa.binary()),
            "text": pa.array([None] * 4, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
        })
        pq.write_table(tbl, os.path.join(pdir, "part-0.parquet"))

        out = os.path.join(root, "out")
        p = run_pipeline(pdir, out, KGConfig(dedup_pages=True))
        texts = pq.read_table(p["texts"])
        assert texts.num_rows == 2  # 3 identical pages collapse to one
        kept = sorted(texts["url"].to_pylist())
        assert "https://x/0" in kept  # smallest url kept
        # provenance reflects the deduped corpus
        nodes = pq.read_table(p["nodes"])
        ada = [r for r in nodes.to_pylist() if r["name"] == "Ada Lovelace"]
        assert ada and ada[0]["n_instances"] == 1

    def test_dedup_shuffle_is_narrow(self, ray_session):
        """The dedup groupby input must carry only (fp, url) — the page
        text never moves through the all-to-all (VERDICT r01 #4)."""
        import ray.data as rd
        from kgx.pipelines.kg import _page_dup_losers, _page_fp_batch
        import pyarrow as pa

        tbl = pa.table({
            "url": pa.array([f"u{i}" for i in range(6)], pa.string()),
            "text": pa.array(["same text"] * 3 + ["other", "", "third"],
                             pa.string()),
            "lang": pa.array(["en"] * 6, pa.string()),
        })
        tagged = rd.from_arrow(tbl).map_batches(_page_fp_batch,
                                                batch_format="pyarrow")
        losers = _page_dup_losers(tagged)
        assert losers.schema().names == ["fp", "url"]  # narrow output
        assert sorted(losers.to_pandas()["url"]) == ["u1", "u2"]

    def test_repeated_winner_url_survives(self, ray_session):
        """A url holding the same text twice is its fingerprint's winner,
        never a loser against itself: both of its rows survive."""
        import ray.data as rd
        from kgx.pipelines.kg import dedup_pages_by_text
        import pyarrow as pa

        tbl = pa.table({
            "url": pa.array(["u3", "u3", "u9"], pa.string()),
            "text": pa.array(["same page", "same page", "other"],
                             pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        })
        out = dedup_pages_by_text(rd.from_arrow(tbl)).to_pandas()
        assert sorted(out["url"]) == ["u3", "u3", "u9"]

    def test_loser_url_keeps_its_unique_text(self, ray_session):
        """Only the duplicated (fp, url) row of a url drops: u3's "A" has
        no duplicate anywhere and survives, while its "B" loses to u1."""
        import ray.data as rd
        from kgx.pipelines.kg import dedup_pages_by_text
        import pyarrow as pa

        tbl = pa.table({
            "url": pa.array(["u1", "u3", "u3"], pa.string()),
            "text": pa.array(["B", "A", "B"], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        })
        out = dedup_pages_by_text(rd.from_arrow(tbl)).to_pandas()
        assert sorted(zip(out["url"], out["text"])) == \
            [("u1", "B"), ("u3", "A")]

    def test_knob_is_semantic(self, tmp_path_factory, smoke_corpus):
        from kgx.pipelines.kg import KGConfig
        a = KGConfig().semantic_dict()
        b = KGConfig(dedup_pages=True).semantic_dict()
        assert a != b

    def test_stream_kg_honors_semantic_knobs(self, tmp_path_factory,
                                             ray_session):
        """stream_kg must apply dedup_pages exactly like run_pipeline with
        the identical config (ADVICE r01)."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import os
        from kgx.pipelines.kg import KGConfig, run_pipeline, stream_kg

        root = str(tmp_path_factory.mktemp("stream_knobs"))
        pdir = os.path.join(root, "pages")
        os.makedirs(pdir)
        html = (b"<html><head><title>t</title></head><body><article>"
                b"<p>Ada Lovelace works for Acme Corporation.</p>"
                b"</article></body></html>")
        tbl = pa.table({
            "url": pa.array([f"https://x/{i}" for i in range(4)]),
            "warc_ts": pa.array([0] * 4, pa.timestamp("us")),
            "html": pa.array([html, html, html,
                              html.replace(b"Ada", b"Alan")], pa.binary()),
            "text": pa.array([None] * 4, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
        })
        pq.write_table(tbl, os.path.join(pdir, "part-0.parquet"))

        cfg = KGConfig(dedup_pages=True)
        streamed = stream_kg(pdir, cfg)
        s_nodes = sorted(streamed["nodes"].to_pandas()
                         [["name", "n_instances"]].itertuples(index=False))
        s_edges = sorted(streamed["edges"].to_pandas()
                         [["subj_name", "pred", "obj_name", "n_instances"]]
                         .itertuples(index=False))

        out = os.path.join(root, "out")
        p = run_pipeline(pdir, out, cfg)
        c_nodes = sorted(pq.read_table(p["nodes"]).to_pandas()
                         [["name", "n_instances"]].itertuples(index=False))
        c_edges = sorted(pq.read_table(p["edges"]).to_pandas()
                         [["subj_name", "pred", "obj_name", "n_instances"]]
                         .itertuples(index=False))
        assert s_nodes == c_nodes
        assert s_edges == c_edges
        # dedup_pages really applied on the stream path: 3 identical pages
        # collapse, so Ada has exactly one instance
        ada = [r for r in s_nodes if r.name == "Ada Lovelace"]
        assert ada and ada[0].n_instances == 1


class TestIncrementalUpdate:
    """update_pipeline: incremental shard ingest == from-scratch run over
    the union corpus, byte for byte (kgx/pipelines/kg.py:update_pipeline)."""

    @pytest.fixture(scope="class")
    def split_corpus(self, smoke_corpus, tmp_path_factory):
        """The smoke corpus's parquet shards split into two disjoint
        page sub-corpora (same bytes, different directories)."""
        import glob
        import shutil
        files = sorted(glob.glob(f"{smoke_corpus['pages']}/*.parquet"))
        assert len(files) >= 2
        root = tmp_path_factory.mktemp("split")
        a, b = str(root / "shard_a"), str(root / "shard_b")
        os.makedirs(a), os.makedirs(b)
        for f in files[:len(files) // 2]:
            shutil.copy(f, a)
        for f in files[len(files) // 2:]:
            shutil.copy(f, b)
        return {"a": a, "b": b, "full": smoke_corpus["pages"]}

    @pytest.fixture(scope="class")
    def runs(self, split_corpus, tmp_path_factory, ray_session):
        from kgx.pipelines.kg import update_pipeline
        out_full = str(tmp_path_factory.mktemp("kg_full"))
        out_inc = str(tmp_path_factory.mktemp("kg_inc"))
        full = run_pipeline(split_corpus["full"], out_full, KGConfig())
        base = run_pipeline(split_corpus["a"], out_inc, KGConfig())
        inc = update_pipeline(split_corpus["b"], out_inc, KGConfig())
        return {"full": full, "base": base, "inc": inc,
                "out_inc": out_inc, "b": split_corpus["b"]}

    def test_update_matches_fromscratch_union(self, runs):
        import pyarrow.parquet as pq
        for stage in ("nodes", "edges", "claims"):
            got = pq.read_table(runs["inc"][stage])
            want = pq.read_table(runs["full"][stage])
            assert got.to_pylist() == want.to_pylist(), stage

    def test_update_extends_base(self, runs):
        import pyarrow.parquet as pq
        base_n = pq.read_table(runs["base"]["nodes"]).num_rows
        inc_n = pq.read_table(runs["inc"]["nodes"]).num_rows
        assert inc_n >= base_n

    def test_reingest_same_shard_is_noop(self, runs):
        import json
        import os
        from kgx.pipelines.kg import update_pipeline
        shard = runs["inc"]["shard"]
        m = os.path.join(shard, "extracted", "_MANIFEST.json")
        before = os.path.getmtime(m)
        again = update_pipeline(runs["b"], runs["out_inc"], KGConfig())
        assert again["shard"] == shard
        assert os.path.getmtime(m) == before     # extraction skipped

    def test_update_requires_base(self, tmp_path_factory, split_corpus,
                                  ray_session):
        from kgx.pipelines.kg import update_pipeline
        empty = str(tmp_path_factory.mktemp("nobase"))
        with pytest.raises(FileNotFoundError):
            update_pipeline(split_corpus["b"], empty, KGConfig())


def test_dedup_recrawls_config_keeps_newest(tmp_path_factory, ray_session):
    """Recrawled urls feed only their newest snapshot into extraction."""
    import pyarrow as pa
    import pyarrow.parquet as pq2
    from kgx.pipelines.kg import KGConfig, run_pipeline
    US = 1_000_000
    root = tmp_path_factory.mktemp("recrawl")
    old_html = b"<p>Acme Corporation was founded by Jane Smith.</p>"
    new_html = b"<p>Acme Corporation acquired Globex Industries.</p>"
    tbl = pa.table({
        "url": pa.array(["https://a.example/x", "https://a.example/x",
                         "https://b.example/y"], pa.string()),
        "warc_ts": pa.array([100 * US, 200 * US, 50 * US],
                            pa.timestamp("us")),
        "html": pa.array([old_html, new_html,
                          b"<p>Unrelated page text here.</p>"],
                         pa.binary()),
        "text": pa.array([None, None, None], pa.string()),
        "lang": pa.array(["en", "en", "en"], pa.string()),
    })
    pages = str(root / "pages")
    os.makedirs(pages)
    pq2.write_table(tbl, f"{pages}/part-0.parquet")
    out = str(root / "kg")
    paths = run_pipeline(pages, out, KGConfig(dedup_recrawls=True))
    texts = pq2.read_table(paths["texts"])
    by_url = dict(zip(texts["url"].to_pylist(), texts["text"].to_pylist()))
    assert len(texts) == 2
    assert "acquired" in by_url["https://a.example/x"]
    assert "founded" not in by_url["https://a.example/x"]


def test_three_shard_chained_ingest_equals_fromscratch(
        smoke_corpus, tmp_path_factory, ray_session):
    """run_pipeline(a) -> update(b) -> update(c) == run_pipeline(a∪b∪c)."""
    import glob
    import shutil
    from kgx.pipelines.kg import update_pipeline
    files = sorted(glob.glob(f"{smoke_corpus['pages']}/*.parquet"))
    assert len(files) >= 3
    root = tmp_path_factory.mktemp("threeway")
    shards = []
    thirds = [files[i::3] for i in range(3)]
    for i, fl in enumerate(thirds):
        d = str(root / f"s{i}")
        os.makedirs(d)
        for f in fl:
            shutil.copy(f, d)
        shards.append(d)
    out = str(root / "kg")
    run_pipeline(shards[0], out, KGConfig())
    update_pipeline(shards[1], out, KGConfig())
    p = update_pipeline(shards[2], out, KGConfig())
    ref = run_pipeline(smoke_corpus["pages"], str(root / "ref"), KGConfig())
    for stage in ("nodes", "edges", "claims"):
        got = pq.read_table(p[stage])
        want = pq.read_table(ref[stage])
        assert got.to_pylist() == want.to_pylist(), stage

"""Multimodal column plumbing: opaque binary payloads + typed metadata.

The engine treats image/audio/video as ``binary`` columns with a
``media_type`` tag and a metadata struct; decode / feature-extract /
resize / frame-sample are actor-pool ``map_batches`` stages.  The decode
libraries (PIL / ffmpeg / soundfile) are not in this container, so the
decoders are **stubs behind import-try** (clearly marked) — but the
Ray-side plumbing (schema, batch sizing, actor signature, output layout)
is real and tested:

- :func:`docs_as_media` — adapt any text table into the media shape.
- :func:`media_stats_batch` — byte length + md5 checksum (real, vectorized
  enough; oracle-checked).
- :func:`byte_histogram_batch` — 16-bin byte-value histogram as a
  ``list<float>`` feature column (real; numpy ``bincount`` per payload) —
  the stand-in for an embedding/feature-extraction stage.
- :class:`ImageDecodeStage` — actor-pool decode stage; raises
  ``NotImplementedError`` without PIL unless ``fake=True``, in which case
  it emits a deterministic fake (width/height/channels derived from the
  payload hash) so pipelines are testable end-to-end.

Batch-size note: payloads are the wide column — callers should pass a
small ``batch_size`` (e.g. 32–64) to ``map_batches`` for real media so a
batch x actor-pool concurrency fits the worker heap.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from kgx.functions.fold import map_sorted_blocks

try:  # pragma: no cover - not installed in this container
    from PIL import Image  # noqa: F401
    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


def docs_as_media(sf_dir: str):
    """documents -> media-shaped Dataset (text payload as utf-8 bytes)."""
    def to_media(batch: pa.Table) -> pa.Table:
        ids = [f"doc-{d}" for d in batch["doc_id"].to_pylist()]
        payloads = [t.encode("utf-8") for t in batch["text"].to_pylist()]
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "media_type": pa.array(["text/plain"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })
    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        to_media, batch_format="pyarrow")


def media_stats_batch(batch: pa.Table) -> pa.Table:
    """payload -> (media_id, n_bytes, checksum md5)."""
    payloads = batch["payload"].to_pylist()
    return pa.table({
        "media_id": batch["media_id"],
        "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        "checksum": pa.array([hashlib.md5(p).hexdigest() for p in payloads],
                             pa.string()),
    })


def byte_histogram_batch(batch: pa.Table, *, bins: int = 16) -> pa.Table:
    """payload -> normalized byte-value histogram feature (list<float>)."""
    feats = []
    for p in batch["payload"].to_pylist():
        if not p:
            feats.append([0.0] * bins)
            continue
        arr = np.frombuffer(p, dtype=np.uint8)
        hist = np.bincount(arr >> (8 - bins.bit_length() + 1),
                           minlength=bins)[:bins]
        feats.append(np.round(hist / len(arr), 6).tolist())
    return pa.table({
        "media_id": batch["media_id"],
        "feature": pa.array(feats, pa.list_(pa.float32())),
    })


class ImageDecodeStage:
    """Actor-pool decode stage (STUB without PIL).

    Real deployments construct the decoder once per actor here; in this
    container there is no image library, so ``fake=True`` produces a
    deterministic fake decode and ``fake=False`` raises
    ``NotImplementedError`` at construction.  The fake dims derive from
    the payload's md5 hex digest (byte i of the digest = hex pair
    ``[2i:2i+2]``) — chosen over a keyed hash precisely so the stub is
    expressible in ANSI SQL and the driver's DuckDB oracle can
    hash-match the full decode plumbing, not just count rows.
    """

    def __init__(self, *, fake: bool = not _HAVE_PIL):
        if not fake and not _HAVE_PIL:
            raise NotImplementedError(
                "image decoding requires PIL, which is not installed; "
                "construct with fake=True for the deterministic stub")
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, channels = [], [], []
        for p in batch["payload"].to_pylist():
            if self.fake or not _HAVE_PIL:
                h = hashlib.md5(p or b"").digest()
                widths.append(64 + h[0] % 192)
                heights.append(64 + h[1] % 192)
                channels.append(1 + h[2] % 3)
            else:  # pragma: no cover
                import io
                img = Image.open(io.BytesIO(p))
                widths.append(img.width)
                heights.append(img.height)
                channels.append(len(img.getbands()))
        return pa.table({
            "media_id": batch["media_id"],
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "channels": pa.array(channels, pa.int32()),
        })


class ResizeStage:
    """Actor-pool resize stage (STUB without PIL).

    Real deployments hold resize buffers/codecs per actor; the fake path
    emits the target dimensions plus a deterministic resized-payload
    checksum (hash of payload + target size), keeping the schema and
    batch-size contract of the real stage.  Payloads stay opaque binary —
    callers size ``batch_size`` small (32-64) for real media.
    """

    def __init__(self, *, width: int = 224, height: int = 224,
                 fake: bool = not _HAVE_PIL):
        if not fake and not _HAVE_PIL:
            raise NotImplementedError(
                "image resizing requires PIL, which is not installed; "
                "construct with fake=True for the deterministic stub")
        self.width, self.height, self.fake = width, height, fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch["payload"].to_pylist():
            if not self.fake and _HAVE_PIL:  # pragma: no cover - no PIL here
                import io
                img = Image.open(io.BytesIO(p)).resize(
                    (self.width, self.height))
                buf = io.BytesIO()
                img.save(buf, format="PNG")
                h = hashlib.blake2b(buf.getvalue(), digest_size=16).digest()
            else:
                h = hashlib.blake2b(
                    (p or b"") + f"{self.width}x{self.height}".encode(),
                    digest_size=16).digest()  # stands in for resized bytes
            outs.append(h)
        return pa.table({
            "media_id": batch["media_id"],
            "width": pa.array([self.width] * len(outs), pa.int32()),
            "height": pa.array([self.height] * len(outs), pa.int32()),
            "resized_digest": pa.array(outs, pa.binary()),
        })


class FrameSampleStage:
    """Actor-pool video frame-sampling stage (STUB without ffmpeg).

    1->N row expansion: each payload yields ``n_frames`` rows
    ``(media_id, frame_index, frame_ts_ms, frame_digest)``.  The fake
    path derives a deterministic duration and per-frame digest from the
    payload hash; the real path would hold an ffmpeg handle per actor.
    """

    def __init__(self, *, n_frames: int = 4, fake: bool = True):
        if not fake:
            raise NotImplementedError(
                "frame sampling requires ffmpeg, which is not installed; "
                "construct with fake=True for the deterministic stub")
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, tss, digs = [], [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            # md5 (not blake2b) so the DuckDB oracle can mirror the fake
            # duration exactly, like ImageDecodeStage's dims
            h = hashlib.md5(p or b"").digest()
            duration_ms = 1000 + int.from_bytes(h[:4], "big") % 59_000
            for i in range(self.n_frames):
                ids.append(mid)
                idxs.append(i)
                tss.append((duration_ms * i) // self.n_frames)
                digs.append(hashlib.md5(
                    (p or b"") + bytes([i])).digest()[:8])
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "frame_index": pa.array(idxs, pa.int32()),
            "frame_ts_ms": pa.array(tss, pa.int64()),
            "frame_digest": pa.array(digs, pa.binary()),
        })


def media_dedup_groups(media_ds):
    """Exact payload-identity groups over the media shape: one row per
    distinct checksum with its copy count and the keeper (smallest
    media_id) — singletons keep ``n_copies = 1``, the same all-groups
    convention as :func:`kgx.ops.dedup.exact_dup_groups`.

    Scale shape — the PAYLOAD never rides the shuffle: each batch
    reduces map-side to narrow (checksum, media_id) rows (binary
    columns are the wide side of a media table; moving 16-byte digests
    instead is the whole point), then one sort on the checksum puts
    every copy in one block, and a vectorized lexsort + run-length pass
    folds each whole block (kgx.functions.fold.map_sorted_blocks, which
    materializes and coalesces the narrow rows when the fold is built).
    Output: (checksum, n_copies, keep_id).
    """
    def tag(batch: pa.Table) -> pa.Table:
        sums = [hashlib.md5(p).hexdigest()
                for p in batch["payload"].to_pylist()]
        return pa.table({
            "checksum": pa.array(sums, pa.string()),
            "media_id": batch["media_id"].combine_chunks(),
        })

    def fold(group: pa.Table) -> pa.Table:
        sums = np.asarray(group["checksum"].to_pylist())
        ids = np.asarray(group["media_id"].to_pylist())
        order = np.lexsort((ids, sums))
        s_s, i_s = sums[order], ids[order]
        starts = np.flatnonzero(np.r_[True, s_s[1:] != s_s[:-1]])
        sizes = np.diff(np.r_[starts, len(s_s)])
        return pa.table({
            "checksum": pa.array(s_s[starts], pa.string()),
            "n_copies": pa.array(sizes.astype(np.int64), pa.int64()),
            "keep_id": pa.array(i_s[starts], pa.string()),
        })

    return map_sorted_blocks(
        media_ds.map_batches(tag, batch_format="pyarrow"), "checksum", fold,
        pa.schema([("checksum", pa.string()), ("n_copies", pa.int64()),
                   ("keep_id", pa.string())]))

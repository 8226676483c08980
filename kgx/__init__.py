"""kgx — Ray-Data-native knowledge-graph construction engine.

A from-scratch rebuild of GraphRAG-LiteX's KG-construction capabilities
(reference: /root/reference, snapshot 2025-07-04) as streaming
``ray.data.Dataset`` pipelines: Parquet web pages -> HTML->text ->
token-window chunking -> triple/claim extraction (tasks) -> per-batch
combine into typed merge states -> one sort and one merge per sorted
block for nodes, broadcast-resolved edges and claims -> canonical
node/edge/claim Parquet, with per-stage checkpoint manifests and
per-partition lineage.

Nothing in this package calls ``ray.init()``; sessions are owned by
the caller (tests, bench.py, or the driver).
"""

__version__ = "0.1.0"

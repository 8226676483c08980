"""The actor-pool LLM extraction queries must finish on a one-CPU Ray
session and match their DuckDB oracles.

``docs_kg.extract_documents`` hosts an I/O-bound extractor on an actor
pool.  When each actor held a CPU, a one-CPU session never finished
``kg_claims_llm``: the pool took the only CPU the tasks feeding it
needed.  Both queries run in one fresh process (as in
``test_relational_one_cpu``), so only one extra Ray session runs next
to the suite's, under a timeout, so a hang fails the test instead of
stalling the suite.
"""

from test_relational_one_cpu import run_at_one_cpu

QUERIES = {"kg_claims_llm": "SORT_SHUFFLE_PULL_BASED",
           "kg_nodes_llm": "SORT_SHUFFLE_PULL_BASED"}


def test_llm_actor_pool_finishes_at_one_cpu():
    assert run_at_one_cpu(QUERIES) == [f"{q} ok" for q in QUERIES]

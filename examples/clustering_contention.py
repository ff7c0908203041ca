"""Over-sharing vs clustering: the paper's Section 6.1 trade-off.

One big shared plan graph (ATC-FULL) minimizes *total work* -- every
stream is read once for everybody -- but forces unrelated queries to
take turns on the same ATC: a query that depends on a small corner of
the graph waits while the round-robin serves everyone else.  Clustering
(ATC-CL) groups queries with overlapping footprints onto separate plan
graphs: slightly more total work, much less waiting.

This example builds two *disjoint* families of user queries (they
share almost nothing with each other, everything within the family),
runs both configurations, and prints per-query execution times, total
tuples consumed, and the cluster assignment the incremental Jaccard
clusterer chose.

Run:  python examples/clustering_contention.py
"""

from repro import ExecutionConfig, KeywordQuery, QSystemEngine, SharingMode
from repro.data.gus import GUSConfig, gus_federation
from repro.data.inverted import InvertedIndex

#: Two families of queries with disjoint keyword footprints.
SESSION = [
    ("f1-a", ("protein", "membrane"), 0.0),
    ("f2-a", ("mutation", "disease"), 0.5),
    ("f1-b", ("protein", "kinase"), 1.0),
    ("f2-b", ("disease", "pathway"), 1.5),
    ("f1-c", ("membrane", "kinase"), 2.0),
    ("f2-c", ("mutation", "pathway"), 2.5),
]


def run_mode(federation, index, mode):
    config = ExecutionConfig(mode=mode, k=15, batch_size=6, seed=11,
                             cluster_jaccard=0.6)
    engine = QSystemEngine(federation, config, index=index)
    for name, keywords, arrival in SESSION:
        engine.submit(KeywordQuery(name, keywords, k=15, arrival=arrival))
    return engine.run()


def main() -> None:
    federation = gus_federation(GUSConfig(
        n_hubs=10, satellites_per_hub=1, min_rows=120, max_rows=320,
        domain_factor=0.45, seed=13,
    ))
    index = InvertedIndex(federation)

    full = run_mode(federation, index, SharingMode.ATC_FULL)
    clustered = run_mode(federation, index, SharingMode.ATC_CL)

    print(f"{'query':8s} {'ATC-FULL (s)':>13s} {'ATC-CL (s)':>11s}")
    full_times, cl_times = (
        {uq_id: record.execution_time
         for uq_id, record in report.metrics.uq_records.items()}
        for report in (full, clustered))
    for name, _keywords, _arrival in SESSION:
        print(f"{name:8s} {full_times[name]:13.3f} {cl_times[name]:11.3f}")

    print(f"\nplan graphs: ATC-FULL={len(full.graph_summaries)}, "
          f"ATC-CL={len(clustered.graph_summaries)}")
    print("ATC-CL cluster assignment:")
    for graph_id, summary in sorted(clustered.graph_summaries.items()):
        print(f"  {graph_id}: {summary['units']} inputs, "
              f"{summary['state_tuples']} stored tuples, "
              f"epoch {summary['epoch']}")

    full_work = full.metrics.total_input_tuples
    cl_work = clustered.metrics.total_input_tuples
    print(f"\ntotal input tuples: ATC-FULL={full_work}, "
          f"ATC-CL={cl_work} "
          f"(clustering trades at most a little extra work for "
          f"parallel graphs)")
    mean_full = sum(full_times.values()) / len(full_times)
    mean_cl = sum(cl_times.values()) / len(cl_times)
    print(f"mean execution time: ATC-FULL={mean_full:.3f}s, "
          f"ATC-CL={mean_cl:.3f}s")


if __name__ == "__main__":
    main()

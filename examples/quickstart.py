"""Quickstart: keyword search over the paper's Figure 1 federation.

Builds the ten-relation bioinformatics federation from the paper's
running example (UniProt, ProSite, InterPro, GeneOntology, NCBI) and
serves the paper's first keyword query KQ1 = "protein 'plasma
membrane' gene" through the v2 client API: ``submit`` returns a
:class:`~repro.QueryHandle`, and the top-10 ranked answers are
consumed *progressively* from ``handle.results()`` as the rank-merge
operator emits them.  A second query is then cancelled mid-flight, and
a third runs under a deadline -- the three verbs (stream, cancel,
expire) every real search front end needs.

Run:  python examples/quickstart.py
"""

from repro import (
    ExecutionConfig,
    KeywordQuery,
    QService,
    SharingMode,
    figure1_federation,
)


def main() -> None:
    print("Building the Figure 1 federation (5 simulated sites)...")
    federation = figure1_federation(seed=7)
    for site in federation.sites:
        names = federation.database(site).relation_names
        print(f"  site {site:14s} hosts {', '.join(names)}")

    config = ExecutionConfig(mode=SharingMode.ATC_FULL, k=10, seed=1)
    service = QService(federation, config)

    kq = KeywordQuery("KQ1", ("protein", "plasma membrane", "gene"), k=10)
    handle = service.submit(kq)
    print(f"\nKeyword query {kq.kq_id}: {' '.join(kq.keywords)}")
    print(f"Submitted -> {handle!r}")

    print(f"\nStreaming the top-{config.k} as the rank-merge emits them:")
    for rank, answer in enumerate(handle.results(), start=1):
        rows = ", ".join(
            f"{rel}#{tid}" for _alias, rel, tid in sorted(answer.provenance)
        )
        print(f"  {rank:2d}. score={answer.score:.4f}  via {answer.cq_id}  "
              f"[{rows}]")
    print(f"Handle is now {handle.status} "
          f"(latency {handle.latency:.2f} virtual s)")

    print("\nA user reads three answers and navigates away: cancel "
          "keeps them\nand frees the query's plan share...")
    abandoned = service.submit(KeywordQuery(
        "KQ2", ("kinase", "pathway"), k=10,
        arrival=service.clock.now + 1.0))
    for i, _answer in enumerate(abandoned.results(), start=1):
        if i == 3:
            abandoned.cancel()
    print(f"  {abandoned!r} kept {len(abandoned.answers)} answers-so-far")

    print("A deadline bounds a query's lifetime (here: expires before "
          "it can run):")
    at = service.clock.now + 2.0
    bounded = service.submit(
        KeywordQuery("KQ3", ("receptor", "binding"), k=10, arrival=at),
        deadline=at + 1e-4)
    report = service.drain()
    print(f"  {bounded!r} after {bounded.completed_at - bounded.arrival:.4f}"
          f" virtual s")

    metrics = report.engine_report.metrics
    record = metrics.uq_records[handle.uq_id]
    print(f"\nKQ1 executed {record.cqs_executed} of {record.cqs_total} CQs "
          f"(lazy activation); time to first answer "
          f"{record.ttfa:.2f}s vs completion {record.latency:.2f}s")
    print(f"Work: {metrics.stream_tuples_read} stream reads, "
          f"{metrics.probes_performed} remote probes, "
          f"{metrics.join_probes} in-memory join probes")
    print()
    print(report.render())


if __name__ == "__main__":
    main()

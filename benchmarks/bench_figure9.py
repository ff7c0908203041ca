"""Figure 9: individually (batch=1) vs batch-optimized (batch=5).

Paper claim: "significant gains in performance for larger batch sizes,
clearly indicating that it is advantageous to proactively identify
opportunities for subexpression sharing."

What we reproduce and what diverges: batch optimization's *work*
advantage reproduces -- single-query optimization misses cross-query
subexpressions and consumes about twice the input tuples at the quick
scale (1 058 against 476) -- and it amortizes optimizer invocations.
The paper's *latency* advantage inverts here, because this
implementation's reactive reuse lets individually-optimized queries
piggyback on earlier state without waiting for a batch to fill: a query
grafted onto a running plan recovers what that plan already produced
through an in-memory recovery join that is read as one more ranked
input, only as deep as the query's threshold demands.  (When that join
was computed in full at graft time, SINGLE-OPT read 3 360 input tuples
and took 1.50 virtual seconds instead of 0.94; the shape was the same.)

Making every recovery join lazy -- those of m-joins with two or more
stream suppliers were still run in full at graft -- leaves the figure
where it was.  Work is unchanged (SINGLE-OPT 1 058 input tuples,
BATCH-OPT 476), and so is latency: with the optimizer's wall time kept
out of the virtual clock, SINGLE-OPT totals 0.833 virtual seconds
before and after, BATCH-OPT 6.954 before and 6.951 after.  With it
(this benchmark's default, so the totals vary run to run), four
alternating runs each read SINGLE-OPT 1.03-1.11 before and 1.07-1.29
after, BATCH-OPT 7.30-7.53 before and 7.34-7.39 after.  The
inversion stands.
"""

from repro.experiments import figure9
from repro.experiments.harness import quick_scale


def test_figure9(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: figure9.run(quick_scale()), rounds=1, iterations=1,
    )
    lines = [result.table().render(),
             f"total SINGLE-OPT: {result.total('single'):.3f} virtual s, "
             f"work {result.work_single:.0f} input tuples, "
             f"{result.optimizer_calls_single} optimizer calls",
             f"total BATCH-OPT:  {result.total('batch'):.3f} virtual s, "
             f"work {result.work_batch:.0f} input tuples, "
             f"{result.optimizer_calls_batch} optimizer calls"]
    save_result("figure9", "\n".join(lines))

    assert len(result.single_opt) == 15
    assert len(result.batch_opt) == 15
    # Proactive MQO consumes no more input than per-query optimization,
    # and on overlap-heavy instances dramatically less.
    assert result.work_batch <= result.work_single * 1.05
    # Batching amortizes optimizer invocations.
    assert result.optimizer_calls_batch < result.optimizer_calls_single

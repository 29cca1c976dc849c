"""Throughput of the batched sequential-attack DIS loop versus unit batches.

The sequential oracle-guided attacks (BMC/"BBO", INT, KC2) spend their time
in the Discriminating-Input-Sequence refinement loop.  Up to ``dis_batch``
DISes are harvested per solver round behind activation-gated blocking
clauses and answered by one lane-parallel
``BatchedSequentialOracle.query_batch`` pass.  The bench races
``dis_batch=16`` against the same loop at ``dis_batch=1, key_batch=1``.  The
workload is SARLock on the embedded ISCAS'89 ``s5378`` profile — the
canonical "one DIS per wrong key" scheme, so both sides execute the
identical number of DIS rounds and rounds/second compare identical work.

Workloads, smoke scaling and the speedup bars (3x full, 2x smoke) live in
the :mod:`repro.perf` registry (``repro/perf/suites/attacks.py``); the
identical-work and identical-verdict checks run inside the registered
benches.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_sequential_attack_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run
with a correspondingly relaxed speedup bar.
"""


def test_bmc_dis_loop_speedup_bar(perf_run):
    """Non-incremental ("BBO") mode: batching also amortizes the rebuild."""
    perf_run("attacks.dis_loop_bmc")


def test_kc2_dis_loop_speedup_bar(perf_run):
    """Incremental + key-condition crunching: crunch runs once per batch."""
    perf_run("attacks.dis_loop_kc2")

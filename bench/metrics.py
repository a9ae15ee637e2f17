"""Every metric the benchmark reports, with its unit, its direction and, for a
per-layer metric, the end-to-end metric and workloads it should move.

``BENCHMARK.json`` lists the same names; ``tests/test_bench.py`` checks that
the two agree.  Every time is in reference seconds (``refclock.py``).  Layer
names are module names of ``extremal_lie``.  Times of spans are inclusive
unless the name ends in ``self_s`` (span time minus child spans).  Per-layer
metrics cover the timed part of the span-traced child, except
``cli.cache_fill_s`` and ``rootdata.constants_s``, which cover its set-up;
``scalars.*`` come from the counting child.
"""

SANDWICH = ("sandwich-q",)
CHEV = ("chevalley-q", "chevalley-modp")
ALL = SANDWICH + CHEV

# (name, unit, better); bench/NOTES.md says what each measures
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# (name, unit, better, end-to-end metric it should move, the workloads on
# which it should move it).  Every workload runs every layer and reports every
# metric; the last column only says where a change of the metric matters.
# scalars.*: a change for Q alone should leave chevalley-modp flat;
# linalg.*: moves wall_s most on sandwich-q.
PER_LAYER = (
    ("cli.self_s", "s", "lower", "wall_s", ALL),
    ("cli.cache_s", "s", "lower", "wall_s", CHEV),
    ("cli.cache_fill_s", "s", "lower", "setup_s", CHEV),
    ("rootdata.self_s", "s", "lower", "wall_s", CHEV),
    ("rootdata.constants_s", "s", "lower", "setup_s", CHEV),
    ("rootdata.root_system_s", "s", "lower", "wall_s", CHEV),
    ("scalars.ops", "count", "lower", "wall_s", ALL),
    ("scalars.is_zero", "count", "lower", "wall_s", ALL),
    ("linalg.self_s", "s", "lower", "wall_s", ALL),
    ("linalg.insert_calls", "count", "lower", "wall_s", ALL),
    ("linalg.insert_pivots", "count", "lower", "wall_s", ALL),
    ("linalg.insert_yield", "ratio", "higher", "wall_s", ALL),
    ("linalg.reduce_calls", "count", "lower", "wall_s", ALL),
    ("linalg.max_width", "count", "lower", "wall_s", ALL),
    ("nilquot.self_s", "s", "lower", "wall_s", SANDWICH),
    ("nilquot.extend_calls", "count", "lower", "wall_s", SANDWICH),
    ("nilquot.extend_s", "s", "lower", "wall_s", SANDWICH),
    ("nilquot.extend_s_max", "s", "lower", "wall_s", SANDWICH),
    ("nilquot.rows", "count", "lower", "wall_s", SANDWICH),
    ("nilquot.rank", "count", "lower", "wall_s", SANDWICH),
    ("nilquot.row_yield", "ratio", "higher", "wall_s", SANDWICH),
    ("nilquot.max_block", "count", "lower", "peak_rss_mib", SANDWICH),
    ("nilquot.basis_dim", "count", "lower", "peak_rss_mib", SANDWICH),
    ("liealg.self_s", "s", "lower", "wall_s", CHEV),
    ("liealg.jacobi_s", "s", "lower", "wall_s", CHEV),
    ("liealg.jacobi_calls", "count", "lower", "wall_s", CHEV),
    ("liealg.closure_s", "s", "lower", "wall_s", CHEV),
    ("liealg.closure_calls", "count", "lower", "wall_s", CHEV),
    ("liealg.extremal_form_s", "s", "lower", "wall_s", CHEV),
    ("liealg.assoc_s", "s", "lower", "wall_s", CHEV),
    ("liealg.assoc_calls", "count", "lower", "wall_s", CHEV),
    ("liealg.is_extremal_s", "s", "lower", "wall_s", CHEV),
    ("liealg.is_extremal_calls", "count", "lower", "wall_s", CHEV),
    ("liealg.killing_s", "s", "lower", "wall_s", CHEV),
    ("liealg.radical_chain_s", "s", "lower", "wall_s", CHEV),
    ("liealg.matrix_algebra_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.self_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.mingen_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.natural_rep_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.spanning_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.root_exp_calls", "count", "lower", "wall_s", CHEV),
    ("chevalley.root_exp_s", "s", "lower", "wall_s", CHEV),
    ("chevalley.generation_checks", "count", "lower", "wall_s", CHEV),
    ("rootgroups.self_s", "s", "lower", "wall_s", CHEV),
    ("rootgroups.exp_builds", "count", "lower", "wall_s", CHEV),
    ("smallgen.self_s", "s", "lower", "wall_s", CHEV),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced wall_s", ALL),
    ("trace.wall_s", "s", "lower", "none: wall_s of the traced child", ALL),
    ("trace.outside_s", "s", "lower", "none: traced time outside every span", ALL),
    ("trace.spans", "count", "lower", "none: spans recorded", ALL),
)

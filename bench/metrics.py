"""Every metric the benchmark reports, with its unit, and the end-to-end
metric each per-layer metric is expected to move, on which workload.

Times are self times (span duration minus traced children) unless the name
says otherwise.  Counts marked "computed" are derived from call arguments or
results, not measured inside the program.
"""

from __future__ import annotations

# name, unit, better, meaning
END_TO_END = [
    ("wall_s", "s", "lower", "median wall time of one pass over the workload's configs through cli.main, tracing off"),
    ("setup_s", "s", "lower", "process start until ready: import inghamlab.cli (numpy, scipy) and parse the configs; median of 5 processes"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the workload's own process"),
]

# fail_frac is not a BENCHMARK.json metric, because it is 0 on a correct
# program; it is carried by the result's "failed" / "attempted" counts.
FAIL_FRAC = ("fail_frac", "ratio", "lower", "CLI calls that exited non-zero or failed a correctness check, over calls attempted")

# name, unit, end-to-end metric it moves, heavy on, light or absent on
PER_LAYER = [
    ("analysis.extreme_eigenvalues.s", "s", "wall_s", "sweep", "dd (small), projection (0)"),
    ("analysis.extreme_eigenvalues.calls", "count", "wall_s", "sweep", "dd (small), projection (0)"),
    ("analysis.eig_n3", "count", "wall_s", "sweep", "computed: sum of n^3 over eigensolves"),
    ("analysis.frame_bound_sequence.self_s", "s", "wall_s", "sweep", "others (0)"),
    ("gram.assemble_gram_exp.s", "s", "wall_s", "sweep, projection", "dd"),
    ("gram.gram_entries", "count", "wall_s", "sweep, projection", "computed: sum of n^2 over exponential Grams"),
    ("basisfuncs.eval_divided_difference.s", "s", "wall_s, peak_rss_mb", "dd", "sweep, projection (0)"),
    ("basisfuncs.eval_divided_difference.calls", "count", "wall_s, peak_rss_mb", "dd", "sweep, projection (0)"),
    ("basisfuncs.simplex_calls", "count", "wall_s", "dd", "calls that took the simplex route"),
    ("basisfuncs.dd_samples", "count", "wall_s, peak_rss_mb", "dd", "computed: sum of nodes * len(t)"),
    ("gram.assemble_gram_dd.self_s", "s", "wall_s, peak_rss_mb", "dd", "others (0)"),
    ("gram.quad_nodes", "count", "wall_s, peak_rss_mb", "dd", "panel-rule nodes built"),
    ("gram.dd_profile_bytes", "B", "peak_rss_mb", "dd", "computed: 16 bytes per profile sample in DD Grams"),
    ("analysis.conditioning_comparison.self_s", "s", "wall_s", "dd", "others (0)"),
    ("exponents.detect_chains.s", "s", "wall_s", "dd", "others (0)"),
    ("gram.cross_inner_matrix.s", "s", "wall_s, peak_rss_mb", "projection", "others (0)"),
    ("gram.projection_defect_norms.s", "s", "wall_s", "projection", "others (0)"),
    ("analysis.cho_solve.s", "s", "wall_s", "projection", "others (0)"),
    ("analysis.cho_solve.calls", "count", "wall_s", "projection", "others (0)"),
    ("analysis.run_trace_experiment.self_s", "s", "wall_s", "projection", "others (0)"),
    ("analysis.defect_decay_fit.self_s", "s", "wall_s", "projection", "others (0)"),
    ("analysis.defect_majorant.s", "s", "wall_s", "projection", "others (0)"),
    ("exponents.generate_family.s", "s", "wall_s", "all (<1%)", "-"),
    ("exponents.family_size", "count", "wall_s", "all", "computed: exponents generated"),
    ("cli.parse_config.s", "s", "setup_s", "all", "-"),
    ("cli.run.self_s", "s", "wall_s", "all (small)", "-"),
    ("cli.artifact_bytes", "B", "wall_s", "all (small)", "computed: artifact file sizes"),
    ("analysis.gridpoint_failures", "count", "fail_frac", "all", "grid points that raised GridPointFailure"),
    ("trace.wall_s", "s", "-", "all", "median traced pass"),
    ("trace.overhead_s", "s", "-", "all", "traced minus untraced median pass in the same run"),
    ("baseline.blas1_wall_s", "s", "-", "sweep", "one pass in a child process with BLAS limited to 1 thread"),
]


def listing() -> str:
    """Every metric by name with its unit, and the per-layer mapping."""
    lines = ["end-to-end (tracing off):"]
    for name, unit, better, meaning in END_TO_END + [FAIL_FRAC]:
        lines.append(f"  {name:<42} {unit:<6} {better:<6} {meaning}")
    lines.append("per-layer (traced run): name, unit, moves, heavy on, note")
    for name, unit, moves, heavy, note in PER_LAYER:
        lines.append(f"  {name:<42} {unit:<6} {moves:<20} {heavy:<18} {note}")
    return "\n".join(lines)

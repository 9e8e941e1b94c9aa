package main

// metricDef is a metric's name, unit and direction, as BENCHMARK.json
// declares it.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every untraced run of every
// workload. A metric must apply to all workloads, so the figures that
// apply to some only are in reportOnly.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"dml_p50_ms", "ms", "lower"},
	{"space_amp", "ratio", "lower"},
}

// reportOnly figures are printed in the report but are not part of
// the result line: p99_ms needs 1000 samples, which only wire_oltp
// has; sim_s is not visible through database/sql; failed_share is 0
// on a healthy run and is carried by the result's failed/attempted.
var reportOnly = []metricDef{
	{"p99_ms", "ms", "lower"},
	{"tail_pct", "%", ""},
	{"tail_ms", "ms", "lower"},
	{"samples", "count", ""},
	{"sim_s", "s", "lower"},
	{"failed_share", "ratio", "lower"},
}

// storageProbes are measured twice: after set-up (suffix .at_setup)
// and after the sequence.
var storageProbes = []metricDef{
	{"core.snapshot_open_us", "us", "lower"},
	{"core.unionread_rows_per_s", "1/s", "higher"},
	{"core.delta_ratio", "ratio", "lower"},
	{"kvstore.attached_entries", "count", "lower"},
	{"kvstore.attached_bytes", "B", "lower"},
	{"kvstore.regions", "count", "lower"},
	{"kvstore.scan_cells_per_s", "1/s", "higher"},
	{"orcfile.decode_mb_per_s", "MB/s", "higher"},
	{"orcfile.decode_rows_per_s", "1/s", "higher"},
	{"mapred.shuffle_rows_per_s", "1/s", "higher"},
}

// perLayerMetrics are reported by every traced run of every workload;
// a layer a workload does not reach reads 0.
var perLayerMetrics = append(append([]metricDef{
	{"sqlparser.parse_us", "us", "lower"},
	{"hive.prepare_us", "us", "lower"},
	{"hive.plan_cache_hit_ratio", "ratio", "higher"},
	{"hive.exec_ms.select", "ms", "lower"},
	{"hive.exec_ms.update", "ms", "lower"},
	{"hive.exec_ms.delete", "ms", "lower"},
	{"hive.exec_ms.compact", "ms", "lower"},
	{"core.edit_share", "ratio", "higher"},
	{"core.exec_ms.edit", "ms", "lower"},
	{"core.exec_ms.overwrite", "ms", "lower"},
}, storageProbes...), append(atSetup(storageProbes), []metricDef{
	{"dfs.bytes_read_per_op", "B", "lower"},
	{"dfs.bytes_written_per_op", "B", "lower"},
	{"dfs.files_created_per_op", "count", "lower"},
	{"dfs.opens_per_op", "count", "lower"},
	{"wire.encode_mb_per_s", "MB/s", "higher"},
	{"wire.decode_mb_per_s", "MB/s", "higher"},
	{"server.queued_share", "ratio", "lower"},
	{"server.shed_share", "ratio", "lower"},
	{"driver.overhead_ms", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"bench.op_self_us", "us", "lower"},
}...)...)

func atSetup(defs []metricDef) []metricDef {
	out := make([]metricDef, len(defs))
	for i, d := range defs {
		out[i] = metricDef{d.name + ".at_setup", d.unit, d.better}
	}
	return out
}

// Command perfbench is the repository's benchmark. It drives one of
// three seeded workloads through the public packages, checks their
// outputs against references the engine does not produce, and prints
// its end-to-end metrics; a traced run prints per-layer metrics
// instead. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload grid_dml --seed 1 --seconds 15 --trace 0
//
// Each workload runs a fixed statement sequence made from the seed.
// --seconds sets the sequence length (seconds × the workload's
// nominal rate), so the same seed always runs the same statements;
// a time-bounded run would apply a different number of writes each
// time and end on a table of a different size.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report: run context, determinism fingerprint, failure
// counts and every metric with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dualtable"
	"dualtable/internal/dfs"
)

// instance is one workload's state: its fixed statement sequence and,
// once set up, a loaded cluster.
type instance interface {
	// setup builds fresh state, replacing any earlier one; the
	// benchmark times it as setup_s.
	setup() error
	// run executes the sequence once; tr is nil on untraced runs.
	run(tr *tracer) (*seqResult, error)
	// verify checks a pass's outputs against the workload's reference.
	verify(res *seqResult) error
	database() *dualtable.DB
	// probeTables names the DualTable tables the storage probes read.
	probeTables() []string
	close()
}

// setupDML is implemented by workloads whose sequence has no DML but
// whose set-up runs some; dml_p50_ms then comes from those statements.
type setupDML interface{ setupOps() []opRecord }

// layerProber is implemented by workloads with layers only they reach.
type layerProber interface {
	probeLayers(tr *tracer, m metricSet) error
}

// workloadDef names a workload. rate is its nominal statements per
// measured second on the 2-CPU box the benchmark was sized on.
type workloadDef struct {
	name string
	rate float64
	make func(seed int64, n int) instance
}

var workloads = []workloadDef{
	{"grid_dml", 30, newGridDML},
	{"tpch_read", 7, newTPCHRead},
	{"wire_oltp", 530, newWireOLTP},
}

// passes is how many times an untraced run sets up fresh state and
// runs the sequence on it. setup_s is the median set-up; the latency
// figures pool the passes' statements.
const passes = 5

// runLimit stops a run that would outlive the 180-second budget.
const runLimit = 170 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: grid_dml, tpch_read or wire_oltp")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 15, "measured seconds; sets the sequence length")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload grid_dml|tpch_read|wire_oltp, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})

	n := int(def.rate * float64(*seconds) / passes)
	ctx := newRunContext(def.name, *seed, *seconds, n, *trace == 1)
	emit("context", ctx)

	var out result
	var err error
	if *trace == 1 {
		out, err = tracedRun(def, *seed, n)
	} else {
		out, err = timedRun(def, *seed, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	appendLedger(ctx, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one report line: a label and a JSON value.
func emit(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// pass is one set-up of fresh state and one run of the sequence on it.
type pass struct {
	setupS  float64
	seedDML []opRecord
	res     *seqResult
	correct bool
}

// runPass sets inst up and runs it, without verifying; tr is nil for
// an untraced pass. before, when set, runs between set-up and the
// sequence.
func runPass(inst instance, tr *tracer, before func() error) (pass, error) {
	var p pass
	start := time.Now()
	if err := inst.setup(); err != nil {
		return p, fmt.Errorf("setup: %w", err)
	}
	p.setupS = time.Since(start).Seconds()
	if s, ok := inst.(setupDML); ok {
		p.seedDML = s.setupOps()
	}
	// Collect the previous pass's garbage before timing.
	runtime.GC()
	if before != nil {
		if err := before(); err != nil {
			return p, err
		}
	}
	res, err := inst.run(tr)
	if err != nil {
		return p, err
	}
	p.res = res
	return p, nil
}

// timedRun is the untraced run: it measures the end-to-end metrics.
func timedRun(def *workloadDef, seed int64, n int) (result, error) {
	inst := def.make(seed, n)
	defer inst.close()
	var ps []pass
	for i := 0; i < passes; i++ {
		p, err := runPass(inst, nil, nil)
		if err != nil {
			return result{}, err
		}
		p.correct = check(def.name, inst, p.res)
		ps = append(ps, p)
	}
	fp := ps[0].res.fingerprint()
	emit("fingerprint", fp)
	correct := true
	for _, p := range ps {
		correct = correct && p.correct
		if other := p.res.fingerprint(); !other.equal(fp) {
			fmt.Printf("nondeterministic %s: passes of seed %d ran %+v and %+v\n", def.name, seed, fp, other)
		}
	}
	compareFingerprint(def.name, seed, n, fp)
	m, all := endToEnd(ps)
	return finish(correct, all, m, endToEndMetrics), nil
}

// check verifies the run's outputs and reports a mismatch.
func check(name string, inst instance, res *seqResult) bool {
	if err := inst.verify(res); err != nil {
		fmt.Printf("check FAILED %s: %v\n", name, err)
		return false
	}
	fmt.Printf("check ok %s\n", name)
	return true
}

// finish prints the failure counts and metrics and builds the result.
func finish(correct bool, res *seqResult, m metricSet, defs []metricDef) result {
	fails := res.failures()
	failed := res.failedOps()
	emit("failures", map[string]int{failBusy: fails[failBusy], failTimeout: fails[failTimeout], failOther: fails[failOther]})
	out := result{Correct: correct, Attempted: len(res.Ops), Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for _, d := range append(append([]metricDef(nil), defs...), reportOnly...) {
		if v, ok := m[d.name]; ok {
			fmt.Printf("metric %s %v %s\n", d.name, v, d.unit)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced run over
// the pooled passes, and the report-only figures that do not apply to
// every workload. It returns the pooled result.
func endToEnd(ps []pass) (metricSet, *seqResult) {
	all := &seqResult{}
	var setupS, space []float64
	var seeds []opRecord
	for _, p := range ps {
		all.Ops = append(all.Ops, p.res.Ops...)
		all.Wall += p.res.Wall
		setupS = append(setupS, p.setupS)
		seeds = append(seeds, p.seedDML...)
		if p.res.DFSBefore > 0 {
			space = append(space, float64(p.res.DFSAfter)/float64(p.res.DFSBefore))
		}
	}
	m := metricSet{}
	wallMS := float64(all.Wall.Nanoseconds()) / 1e6
	// A failed op counts as missing every latency limit; if a
	// percentile lands on one, it reads as the whole measured time.
	fin := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return wallMS
		}
		return v
	}
	lat := sortedCopy(all.latencies(nil))
	m.set("setup_s", median(setupS))
	m.set("ops_per_s", float64(len(all.Ops)-all.failedOps())/all.Wall.Seconds())
	m.set("p50_ms", fin(quantile(lat, 0.5)))
	m.set("p90_ms", fin(quantile(lat, 0.9)))
	if supported(len(lat), 0.99) {
		m.set("p99_ms", fin(quantile(lat, 0.99)))
	}
	if p := tailQuantile(len(lat)); p > 0 {
		m.set("tail_pct", 100*p)
		m.set("tail_ms", fin(quantile(lat, p)))
	}
	m.set("samples", float64(len(lat)))
	if reads := all.latencies(func(k string) bool { return k == kindSelect }); len(reads) > 0 {
		m.set("read_p50_ms", fin(median(reads)))
	}
	dml := all.latencies(isDML)
	if len(dml) == 0 {
		for _, op := range seeds {
			dml = append(dml, op.MS)
		}
	}
	if len(dml) > 0 {
		m.set("dml_p50_ms", fin(median(dml)))
	}
	if len(space) > 0 {
		m.set("space_amp", median(space))
	}
	var sim float64
	for _, op := range ps[0].res.Ops {
		sim += op.Sim
	}
	if sim > 0 {
		m.set("sim_s", sim)
	}
	m.set("failed_share", float64(all.failedOps())/float64(max(1, len(all.Ops))))
	return m, all
}

// runtimeSample reads the allocation and CPU counters.
type runtimeSample struct {
	allocBytes            uint64
	gcCPU, totalCPU, idle float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	var alloc uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	return runtimeSample{allocBytes: alloc, gcCPU: f(1), totalCPU: f(2), idle: f(3)}
}

// tracedRun measures the per-layer metrics. It first runs one pass
// untraced, for the runtime figures and as the baseline of the tracing
// overhead, then one traced pass, probing the storage layers after
// set-up and after the sequence.
func tracedRun(def *workloadDef, seed int64, n int) (result, error) {
	m := metricSet{}
	inst := def.make(seed, n)
	defer inst.close()
	var r0, r1 runtimeSample
	base, err := runPass(inst, nil, func() error { r0 = readRuntime(); return nil })
	r1 = readRuntime()
	if err != nil {
		return result{}, err
	}
	base.correct = check(def.name, inst, base.res)
	ops := float64(len(base.res.Ops))
	m.set("runtime.alloc_mb_per_op", float64(r1.allocBytes-r0.allocBytes)/1e6/ops)
	if used := (r1.totalCPU - r1.idle) - (r0.totalCPU - r0.idle); used > 0 {
		m.set("runtime.gc_cpu_share", (r1.gcCPU-r0.gcCPU)/used)
	}

	tr := newTracer()
	var fs0 dfs.Metrics
	var hits0, miss0 int64
	traced, err := runPass(inst, tr, func() error {
		db := inst.database()
		if err := probeStorage(db, inst.probeTables(), tr, ".at_setup", m); err != nil {
			return err
		}
		fs0 = db.FS.Metrics()
		_, hits0, miss0 = db.Engine.PlanCacheStats()
		return nil
	})
	if err != nil {
		return result{}, err
	}
	res := traced.res
	db := inst.database()
	fs1 := db.FS.Metrics()
	if err := probeStorage(db, inst.probeTables(), tr, "", m); err != nil {
		return result{}, err
	}
	if p, ok := inst.(layerProber); ok {
		if err := p.probeLayers(tr, m); err != nil {
			return result{}, err
		}
	}
	// Over the wire the sequence's statements are prepared once per
	// connection, so the cache figure includes the in-process replays.
	_, hits1, miss1 := db.Engine.PlanCacheStats()
	if err := probeWireCodec(res.Captured, tr, m); err != nil {
		return result{}, err
	}
	// After the layer probes, so the wire check counts their updates.
	correct := base.correct && check(def.name, inst, res)

	fp0, fp1 := base.res.fingerprint(), res.fingerprint()
	emit("fingerprint", fp1)
	if !fp0.equal(fp1) {
		fmt.Printf("nondeterministic %s: untraced pass %+v, traced pass %+v\n", def.name, fp0, fp1)
	}
	ops = float64(len(res.Ops))
	m.set("dfs.bytes_read_per_op", float64(fs1.BytesRead-fs0.BytesRead)/ops)
	m.set("dfs.bytes_written_per_op", float64(fs1.BytesWritten-fs0.BytesWritten)/ops)
	m.set("dfs.files_created_per_op", float64(fs1.FilesCreated-fs0.FilesCreated)/ops)
	m.set("dfs.opens_per_op", float64(fs1.OpensForRead-fs0.OpensForRead)/ops)
	if looked := (hits1 - hits0) + (miss1 - miss0); looked > 0 {
		m.set("hive.plan_cache_hit_ratio", float64(hits1-hits0)/float64(looked))
	}
	m.set("trace.overhead_share", (res.Wall.Seconds()-base.res.Wall.Seconds())/base.res.Wall.Seconds())
	spanLayers(tr.snapshot(), m)

	path := filepath.Join(benchDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s\n", path)
	return finish(correct, res, m, perLayerMetrics), nil
}

// spanLayers derives the per-layer times from the spans' self times.
func spanLayers(spans []span, m metricSet) {
	names := selfTimes(spans, byName)
	m.set("sqlparser.parse_us", names["sqlparser.Parse"].meanMS()*1e3)
	m.set("hive.prepare_us", names["hive.Prepare"].meanMS()*1e3)
	for _, k := range []string{kindSelect, kindUpdate, kindDelete, kindCompact} {
		m.set("hive.exec_ms."+k, names["hive.Exec."+k].meanMS())
	}
	m.set("bench.op_self_us", names["op"].meanMS()*1e3)
	plans := selfTimes(spans, func(s span) string {
		if s.Name == "hive.Exec."+kindUpdate || s.Name == "hive.Exec."+kindDelete {
			return s.Tag
		}
		return ""
	})
	edit, overwrite := plans["EDIT"], plans["OVERWRITE"]
	m.set("core.exec_ms.edit", edit.meanMS())
	m.set("core.exec_ms.overwrite", overwrite.meanMS())
	if total := edit.Count + overwrite.Count; total > 0 {
		m.set("core.edit_share", float64(edit.Count)/float64(total))
	}
}

// metricSet holds measured metrics by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

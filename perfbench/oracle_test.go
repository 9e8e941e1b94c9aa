package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

// TestTPCHReference runs the tpch_read queries on a tiny dirty data set
// and checks them against the plain-Go reference, then checks that a
// deliberately wrong expectation fails.
func TestTPCHReference(t *testing.T) {
	const li, ord, seed = 600, 150, 11
	db, err := dualtable.Open(dualtable.Config{Cluster: sim.TPCHCluster()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultTPCHConfig()
	cfg.LineitemRows, cfg.OrdersRows, cfg.Seed = li, ord, seed
	if err := workload.SetupTPCH(db.Engine, cfg); err != nil {
		t.Fatal(err)
	}
	sess := db.Session()
	defer sess.Close()
	for _, sql := range []string{workload.DMLA, workload.DMLB} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	ref := tpchReference(workload.GenLineitem(li, seed), workload.GenOrders(ord, seed))
	if len(ref.q1) == 0 || len(ref.q12) == 0 || ref.qc == 0 || ref.qc == li {
		t.Fatalf("degenerate reference: %d Q1 groups, %d Q12 groups, %d rows", len(ref.q1), len(ref.q12), ref.qc)
	}
	queries := []tpchQuery{
		{class: "q1", sql: workload.QueryA},
		{class: "qc", sql: workload.QueryC},
		{class: "q12", sql: workload.QueryB},
		{class: "range", sql: rangeSQL(20, 60), lo: 20, hi: 60},
	}
	results := map[string][]datum.Row{}
	for _, q := range queries {
		rs, err := sess.Exec(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.class, err)
		}
		if err := ref.check(q, rs.Rows); err != nil {
			t.Errorf("%s: %v", q.class, err)
		}
		results[q.class] = rs.Rows
	}

	wrong := ref
	wrong.qc++
	if wrong.check(queries[1], results["qc"]) == nil {
		t.Error("a wrong QC expectation passed")
	}
	wrong = ref
	wrong.q1 = append([]datum.Row(nil), ref.q1...)
	row := append(datum.Row(nil), wrong.q1[0]...)
	row[2] = datum.Float(row[2].F + 1)
	wrong.q1[0] = row
	if wrong.check(queries[0], results["q1"]) == nil {
		t.Error("a wrong Q1 sum_qty expectation passed")
	}
	if ref.check(tpchQuery{class: "range", lo: 20, hi: 61}, results["range"]) == nil {
		t.Error("a range scan checked against a wider range passed")
	}
}

// TestGridReplayOracle runs a short grid sequence on tiny tables and
// checks it against the ORC replay; a write the replay does not make
// must fail the check.
func TestGridReplayOracle(t *testing.T) {
	g := &gridDML{seed: 5, scale: 1e-6, ops: gridSequence(5, 60)}
	if err := g.setup(); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	res, err := g.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.failedOps(); n > 0 {
		t.Fatalf("%d ops failed", n)
	}
	plans := res.fingerprint().Plans
	if plans["EDIT"] == 0 || plans["OVERWRITE"] == 0 || plans["COMPACT"] == 0 {
		t.Errorf("sequence should run EDIT, OVERWRITE and COMPACT: %v", plans)
	}
	if err := g.verify(res); err != nil {
		t.Fatalf("replay mismatch on a correct run: %v", err)
	}
	if _, err := g.sess.Exec("UPDATE tj_gk SET bz = bz + 1000"); err != nil {
		t.Fatal(err)
	}
	if err := g.verify(res); err == nil || !strings.Contains(err.Error(), "tj_gk") {
		t.Fatalf("an extra update passed the replay check: %v", err)
	}
}

// TestWireSumOracle runs a short wire sequence and checks SUM(v); an
// update claimed but never applied must fail the check.
func TestWireSumOracle(t *testing.T) {
	w := newWireOLTP(3, 40).(*wireOLTP)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res, err := w.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.verify(res); err != nil {
		t.Fatalf("sum check failed on a correct run: %v", err)
	}
	w.replayed++
	if err := w.verify(res); err == nil {
		t.Fatal("an unapplied update passed the sum check")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

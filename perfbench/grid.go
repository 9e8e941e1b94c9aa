package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dualtable"
	"dualtable/internal/workload"
)

// gridScale is the State Grid generation scale; the cluster's
// DataScale is its inverse, so the cost model prices statements at
// the paper's volumes. At DataScale 1 it picks EDIT for every
// statement, even a hinted 36/36 UPDATE.
const gridScale = 1.0 / 10000

// gridCompactEvery is how many DML statements on one table the session
// runs before it compacts that table.
const gridCompactEvery = 6

// gridOp is one statement of the grid sequence. A MERGE has two parts
// (its UPDATE and INSERT decomposition); hint is the designer ratio
// the session attaches to the first part.
type gridOp struct {
	kind  string
	table string
	parts []string
	hint  float64
}

// The shape of the grid sequence is fixed; the seed picks the data,
// the scenario statements' days, and which statement fills each slot.
// A sequence shape drawn from the seed would change the mix of cheap
// EDIT and full-rewrite OVERWRITE statements, and with it every
// latency figure, from one seed to the next.
//
// Every period of 20 statements holds 15 Table I scenario statements,
// 4 Table IV statements and one Fig. 5/6 day-range statement, in an
// order fixed by templateSeed. By latency the statements form groups:
// SELECTs (about 1 ms), EDITs of the smaller tables (1-25 ms), then
// MERGE, COMPACT and the EDITs of the two largest tables (25-130 ms),
// and OVERWRITE (above 150 ms). With these shares p50 and the DML
// median fall inside the EDITs of the smaller tables and p90 inside
// the 25-130 ms group, away from the group boundaries, where a small
// change in the mix would move a percentile from one group to the
// next. As in the paper's Table IV, the cost model picks EDIT for
// most statements; OVERWRITE comes from the larger day ranges.
const (
	gridPeriod   = 20
	templateSeed = 20150413
)

// scenarioKinds is the kind cycle of the scenario slots, in Table I's
// overall proportions: 45% UPDATE, 15% DELETE, 10% MERGE, 30% SELECT.
var scenarioKinds = []workload.StatementKind{
	workload.KindUpdate, workload.KindSelect, workload.KindUpdate, workload.KindDelete, workload.KindUpdate,
	workload.KindSelect, workload.KindMerge, workload.KindUpdate, workload.KindSelect, workload.KindUpdate,
	workload.KindDelete, workload.KindUpdate, workload.KindSelect, workload.KindUpdate, workload.KindMerge,
	workload.KindSelect, workload.KindUpdate, workload.KindDelete, workload.KindUpdate, workload.KindSelect,
}

// scenarioTables are the tables the scenario statements visit in turn,
// each kind separately. Latency grows with table size, so with an even
// number of tables a kind's median would fall between two of them; the
// five here put it on the middle one, tj_td. tj_tdjl, which the
// scenario scripts also touch, is left to its three Table IV
// statements so that no table takes most of the churn.
var scenarioTables = []string{"tj_td", "tj_sjwzl_r", "tj_dysjwzl_mx", "tj_sjwzl_y", "tj_gk"}

// dayCycle is the day-range statements' n (of 36 days): the hinted
// ratio n/36 runs EDIT for n <= 3 and OVERWRITE above. UPDATE and
// DELETE alternate, so over 18 statements each n runs both.
var dayCycle = []int{1, 5, 2, 9, 3, 13, 4, 17, 7}

// gridSequence lays out n statements and compacts a table after every
// gridCompactEvery DML statements on it.
func gridSequence(seed int64, n int) []gridOp {
	pool := map[workload.StatementKind]map[string][]workload.ScenarioStmt{}
	for _, spec := range workload.PaperScenarios() {
		for _, s := range workload.GenScenarioScript(spec, seed) {
			t := scenarioOp(s).table
			if pool[s.Kind] == nil {
				pool[s.Kind] = map[string][]workload.ScenarioStmt{}
			}
			pool[s.Kind][t] = append(pool[s.Kind][t], s)
		}
	}
	tableIV := workload.TableIV()
	const mx = "tj_gbsjwzl_mx"              // the Fig. 5/6 table
	slots := []byte("SSSSSSSSSSSSSSS4444D") // scenario, Table IV, day-range
	tmpl := rand.New(rand.NewSource(templateSeed))
	dml := map[string]int{}
	turn := map[workload.StatementKind]int{}
	taken := map[string]int{} // by kind and table
	var nScen, nIV, nDay int
	var ops []gridOp
	for len(ops) < n {
		slot := (nScen + nIV + nDay) % gridPeriod
		if slot == 0 {
			tmpl.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		}
		var op gridOp
		switch slots[slot] {
		case 'S':
			kind := scenarioKinds[nScen%len(scenarioKinds)]
			table := scenarioTables[turn[kind]%len(scenarioTables)]
			key := kind.String() + " " + table
			op = scenarioOp(pickScenario(pool[kind], table, taken[key]))
			turn[kind]++
			taken[key]++
			nScen++
		case '4':
			st := tableIV[nIV%len(tableIV)]
			op = gridOp{kind: kindOf(st.SQL), table: st.Table, parts: []string{st.SQL}, hint: st.Ratio}
			nIV++
		default:
			days := dayCycle[nDay%len(dayCycle)]
			sql := workload.GridUpdateByDays(mx, days)
			if nDay%2 == 1 {
				sql = workload.GridDeleteByDays(mx, days)
			}
			op = gridOp{kind: kindOf(sql), table: mx, parts: []string{sql}, hint: float64(days) / 36}
			nDay++
		}
		ops = append(ops, op)
		if isDML(op.kind) {
			dml[op.table]++
			if dml[op.table]%gridCompactEvery == 0 && len(ops) < n {
				ops = append(ops, gridOp{kind: kindCompact, table: op.table, parts: []string{"COMPACT TABLE " + op.table}})
			}
		}
	}
	return ops
}

// pickScenario takes the i-th statement (cycling) of one kind on
// table from the seed's scenario scripts, or of that kind on the
// table with the most statements when the scripts have none on it.
func pickScenario(byTable map[string][]workload.ScenarioStmt, table string, i int) workload.ScenarioStmt {
	stmts := byTable[table]
	if len(stmts) == 0 {
		for _, t := range scenarioTables {
			if len(byTable[t]) > len(stmts) {
				stmts = byTable[t]
			}
		}
	}
	return stmts[i%len(stmts)]
}

// scenarioOp converts a Table I scenario statement. Each touches one
// of 36 days, so its DML carries the designer hint 1/36.
func scenarioOp(s workload.ScenarioStmt) gridOp {
	f := strings.Fields(s.SQL)
	switch s.Kind {
	case workload.KindUpdate:
		return gridOp{kind: kindUpdate, table: f[1], parts: []string{s.SQL}, hint: 1.0 / 36}
	case workload.KindDelete:
		return gridOp{kind: kindDelete, table: f[2], parts: []string{s.SQL}, hint: 1.0 / 36}
	case workload.KindMerge:
		return gridOp{kind: kindMerge, table: f[1], parts: strings.Split(s.SQL, "; "), hint: 1.0 / 36}
	default:
		return gridOp{kind: kindSelect, table: f[3], parts: []string{s.SQL}}
	}
}

// gridTables is every table the workload loads.
func gridTables() []workload.GridTable {
	return append(workload.GridTablesII(), workload.GridTablesIII()...)
}

// openGrid builds a grid cluster loaded with the State Grid tables,
// generated at scale, in the given storage.
func openGrid(seed int64, scale float64, storage string) (*dualtable.DB, error) {
	cfg := dualtable.DefaultConfig()
	cfg.Cluster.DataScale = 1 / scale
	db, err := dualtable.Open(cfg)
	if err != nil {
		return nil, err
	}
	g := workload.DefaultGridConfig()
	g.Scale, g.Seed, g.Storage = scale, seed, storage
	if err := workload.SetupGrid(db.Engine, g, gridTables()); err != nil {
		return nil, fmt.Errorf("load grid tables: %w", err)
	}
	return db, nil
}

type gridDML struct {
	seed  int64
	scale float64
	ops   []gridOp
	db    *dualtable.DB
	sess  *dualtable.Session
	// ref holds the ORC replay's table digests, computed once a run.
	ref map[string]tableDigest
}

func newGridDML(seed int64, n int) instance {
	return &gridDML{seed: seed, scale: gridScale, ops: gridSequence(seed, n)}
}

func (g *gridDML) setup() error {
	g.close()
	db, err := openGrid(g.seed, g.scale, "DUALTABLE")
	if err != nil {
		return err
	}
	g.db, g.sess = db, db.Session()
	for _, op := range g.ops {
		if op.hint > 0 {
			if err := g.sess.SetRatioHint(op.parts[0], op.hint); err != nil {
				return fmt.Errorf("ratio hint: %w", err)
			}
		}
	}
	return nil
}

func (g *gridDML) database() *dualtable.DB { return g.db }

func (g *gridDML) probeTables() []string {
	var out []string
	for _, t := range gridTables() {
		out = append(out, t.Name)
	}
	return out
}

func (g *gridDML) run(tr *tracer) (*seqResult, error) {
	res := &seqResult{DFSBefore: g.db.FS.Metrics().TotalUsedBytes}
	start := time.Now()
	for i, op := range g.ops {
		res.Ops = append(res.Ops, runOp(g.sess, tr, i, op.kind, op.parts))
	}
	res.Wall = time.Since(start)
	res.DFSAfter = g.db.FS.Metrics().TotalUsedBytes
	res.Captured = captureRows(res.Ops)
	return res, nil
}

// verify requires each table's row count and content checksum to
// match the same sequence replayed on STORED AS ORC tables, which
// rewrite every statement in full.
func (g *gridDML) verify(*seqResult) error {
	if g.ref == nil {
		ref, err := g.replayORC()
		if err != nil {
			return err
		}
		g.ref = ref
	}
	for _, t := range gridTables() {
		got, err := tableSum(g.sess, t.Name)
		if err != nil {
			return err
		}
		if want := g.ref[t.Name]; got != want {
			return fmt.Errorf("table %s: DUALTABLE has %d rows (checksum %x), ORC replay has %d (checksum %x)",
				t.Name, got.rows, got.sum, want.rows, want.sum)
		}
	}
	return nil
}

// replayORC runs the sequence on ORC tables and digests every table.
func (g *gridDML) replayORC() (map[string]tableDigest, error) {
	db, err := openGrid(g.seed, g.scale, "ORC")
	if err != nil {
		return nil, err
	}
	sess := db.Session()
	defer sess.Close()
	for i, op := range g.ops {
		if op.kind == kindCompact {
			continue // ORC tables have no attached table to fold
		}
		for _, sql := range op.parts {
			if _, err := sess.Exec(sql); err != nil {
				return nil, fmt.Errorf("ORC replay of statement %d: %w", i, err)
			}
		}
	}
	out := map[string]tableDigest{}
	for _, t := range gridTables() {
		d, err := tableSum(sess, t.Name)
		if err != nil {
			return nil, err
		}
		out[t.Name] = d
	}
	return out, nil
}

func (g *gridDML) close() {
	if g.sess != nil {
		g.sess.Close()
	}
	g.db, g.sess = nil, nil
}

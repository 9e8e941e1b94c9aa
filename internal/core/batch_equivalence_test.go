package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/hive"
	"dualtable/internal/mapred"
	"dualtable/internal/orcfile"
	"dualtable/internal/sqlparser"
)

// scanResult captures everything the scan suite checks: output rows
// (rendered), job counters and simulated seconds.
type scanResult struct {
	rows    []string
	counts  mapred.Counters
	simSecs float64
}

// runUnionScan executes one identity map-only job over a table's
// UNION READ splits under the given parallelism; each output row
// carries its record ID as a trailing column.
func runUnionScan(t *testing.T, e *hive.Engine, h *Handler, table string, opts ScanOptions, workers int) scanResult {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := h.Splits(desc, opts)
	if err != nil {
		t.Fatal(err)
	}
	mr := mapred.NewCluster(e.MR.Params)
	mr.Parallelism = workers
	job := &mapred.Job{
		Name:   "equivalence-scan",
		Splits: splits,
		NewMapper: func() mapred.Mapper {
			return mapred.MapFunc(func(row datum.Row, meta mapred.RecordMeta, emit mapred.Emitter) error {
				out := row.Clone()
				out = append(out, datum.Int(int64(meta.RecordID)))
				return emit(nil, out)
			})
		},
	}
	res, err := mr.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	out := scanResult{counts: res.Counters, simSecs: res.SimSeconds}
	for _, r := range res.Rows {
		out.rows = append(out.rows, r.String())
	}
	return out
}

// assertSameScan compares two scan results byte for byte.
func assertSameScan(t *testing.T, label string, want, got scanResult) {
	t.Helper()
	assertRowsEqual(t, label, got.rows, want.rows)
	if want.counts != got.counts {
		t.Fatalf("%s: counters %+v != %+v", label, got.counts, want.counts)
	}
	if want.simSecs != got.simSecs {
		t.Fatalf("%s: sim seconds %v != %v", label, got.simSecs, want.simSecs)
	}
}

// modelRow is one inserted record of the scan suite's reference model.
type modelRow struct {
	rid     RecordID
	row     datum.Row
	dirty   []bool // columns an UPDATE wrote: attached cells reach the output even when not projected
	deleted bool
}

// modelFile is one master file of the model, in split order.
type modelFile struct {
	rows []*modelRow
	// stripeRows and stripeStats come from the file footer, for the
	// pushdown scan's stripe pruning.
	stripeRows  []int64
	stripeStats [][]orcfile.ColumnStats
}

// dirty reports whether the file has attached entries.
func (f *modelFile) dirty() bool {
	for _, r := range f.rows {
		if r.deleted || slices.Contains(r.dirty, true) {
			return true
		}
	}
	return false
}

// expect renders what a UNION READ scan with opts must return: live
// rows in file and ordinal order, projected (unprojected columns NULL
// unless an UPDATE wrote them), with the record ID appended. Stripe
// pruning applies only to files without attached entries.
func (f *modelFile) expect(opts ScanOptions) []string {
	keep := make([]bool, len(f.rows))
	ord := 0
	for s, n := range f.stripeRows {
		match := opts.SArg == nil || f.dirty() || opts.SArg.MaybeMatches(f.stripeStats[s])
		for i := int64(0); i < n; i++ {
			keep[ord] = match
			ord++
		}
	}
	var out []string
	for i, r := range f.rows {
		if r.deleted || !keep[i] {
			continue
		}
		row := r.row.Clone()
		if opts.Projection != nil {
			for c := range row {
				if !slices.Contains(opts.Projection, c) && !r.dirty[c] {
					row[c] = datum.Null
				}
			}
		}
		out = append(out, append(row, datum.Int(int64(r.rid))).String())
	}
	return out
}

// loadModelFiles pairs the table's master files (in split order) with
// the rows each INSERT wrote, reading only the footers.
func loadModelFiles(t *testing.T, e *hive.Engine, h *Handler, table string, inserted [][]datum.Row) []*modelFile {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.OpenSnapshot(desc)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if len(snap.files) != len(inserted) {
		t.Fatalf("%d master files, want %d", len(snap.files), len(inserted))
	}
	var files []*modelFile
	for i, mf := range snap.files {
		f := &modelFile{}
		for ord, row := range inserted[i] {
			f.rows = append(f.rows, &modelRow{rid: NewRecordID(mf.fileID, uint32(ord)), row: row, dirty: make([]bool, len(row))})
		}
		for s := 0; s < mf.reader.NumStripes(); s++ {
			f.stripeRows = append(f.stripeRows, mf.reader.StripeRows(s))
			f.stripeStats = append(f.stripeStats, mf.reader.StripeStats(s))
		}
		files = append(files, f)
	}
	return files
}

// scanGolden holds the Counters and SimSeconds of each scan suite case,
// recorded when the row-at-a-time and batch readers both existed and
// agreed.
var scanGolden = map[string]struct {
	counts  mapred.Counters
	simSecs float64
}{
	"clean/full":                    {mapred.Counters{MapInputRecords: 1000, MapOutputRecords: 1000, OutputRecords: 1000}, 12.5126328},
	"clean/projected":               {mapred.Counters{MapInputRecords: 1000, MapOutputRecords: 1000, OutputRecords: 1000}, 12.5126241},
	"clean/pushdown":                {mapred.Counters{MapInputRecords: 500, MapOutputRecords: 500, OutputRecords: 500}, 12.5126289},
	"updated/full":                  {mapred.Counters{MapInputRecords: 1000, MapOutputRecords: 1000, OutputRecords: 1000}, 12.5136528},
	"updated/projected":             {mapred.Counters{MapInputRecords: 1000, MapOutputRecords: 1000, OutputRecords: 1000}, 12.5136441},
	"updated/pushdown":              {mapred.Counters{MapInputRecords: 1000, MapOutputRecords: 1000, OutputRecords: 1000}, 12.5136528},
	"deleted/full":                  {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.5141428},
	"deleted/projected":             {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.5141341},
	"deleted/pushdown":              {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.5141428},
	"updated-second-file/full":      {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.5143279},
	"updated-second-file/projected": {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.514318675},
	"updated-second-file/pushdown":  {mapred.Counters{MapInputRecords: 900, MapOutputRecords: 900, OutputRecords: 900}, 12.5143279},
}

// TestBatchRowScanEquivalence checks the UNION READ scan against an
// in-test model — the inserted rows with each stage's UPDATE/DELETE
// applied by a Go closure — over clean, updated and deleted-row tables
// (master files are flate-compressed by the DualTable writer), at 1
// and 4 workers: rows and record IDs must match the model, and
// Counters and SimSeconds the recorded goldens.
func TestBatchRowScanEquivalence(t *testing.T) {
	e, h := testEngine(t)
	h.SetForcePlan("EDIT")
	mustExec(t, e, "CREATE TABLE eq (id BIGINT, grp BIGINT, v DOUBLE, tag STRING) STORED AS DUALTABLE")
	// Two master files so per-file classification matters.
	var inserted [][]datum.Row
	for f := 0; f < 2; f++ {
		var sb strings.Builder
		var rows []datum.Row
		sb.WriteString("INSERT INTO eq VALUES ")
		for i := 0; i < 500; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			id := int64(f*500 + i)
			row := datum.Row{datum.Int(id), datum.Int(id % 10), datum.Null, datum.Null}
			if id%97 == 0 {
				fmt.Fprintf(&sb, "(%d, %d, NULL, NULL)", id, id%10)
			} else {
				fmt.Fprintf(&sb, "(%d, %d, %d.25, 'tag%d')", id, id%10, id, id%3)
				row[2], row[3] = datum.Float(float64(id)+0.25), datum.String_(fmt.Sprintf("tag%d", id%3))
			}
			rows = append(rows, row)
		}
		mustExec(t, e, sb.String())
		inserted = append(inserted, rows)
	}
	files := loadModelFiles(t, e, h, "eq", inserted)
	set := func(r *modelRow, col int, d datum.Datum) { r.row[col], r.dirty[col] = d, true }

	stages := []struct {
		name  string
		sql   string
		apply func(r *modelRow) // runs on every live model row
	}{
		{"clean", "", nil},
		{"updated", "UPDATE eq SET v = 9000.5, tag = 'dirty' WHERE grp = 3", func(r *modelRow) {
			if r.row[1].I == 3 {
				set(r, 2, datum.Float(9000.5))
				set(r, 3, datum.String_("dirty"))
			}
		}},
		{"deleted", "DELETE FROM eq WHERE grp = 7", func(r *modelRow) {
			r.deleted = r.row[1].I == 7
		}},
		{"updated-second-file", "UPDATE eq SET v = 1.5 WHERE id >= 700 AND id < 720", func(r *modelRow) {
			if id := r.row[0].I; id >= 700 && id < 720 {
				set(r, 2, datum.Float(1.5))
			}
		}},
	}
	scans := []struct {
		name string
		opts ScanOptions
	}{
		{"full", ScanOptions{}},
		{"projected", ScanOptions{Projection: []int{0, 2}}},
		{"pushdown", ScanOptions{SArg: hive.ExtractSearchArg(
			mustWhere(t, "SELECT * FROM eq WHERE id >= 800"), "eq", mustSchema(t, e, "eq"))}},
	}
	for _, stage := range stages {
		if stage.sql != "" {
			mustExec(t, e, stage.sql)
			for _, f := range files {
				for _, r := range f.rows {
					if !r.deleted {
						stage.apply(r)
					}
				}
			}
		}
		for _, sc := range scans {
			var want []string
			for _, f := range files {
				want = append(want, f.expect(sc.opts)...)
			}
			golden := scanGolden[stage.name+"/"+sc.name]
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s workers=%d", stage.name, sc.name, workers)
				got := runUnionScan(t, e, h, "eq", sc.opts, workers)
				assertRowsEqual(t, label, got.rows, want)
				if got.counts != golden.counts {
					t.Fatalf("%s: counters %+v, want %+v", label, got.counts, golden.counts)
				}
				if got.simSecs != golden.simSecs {
					t.Fatalf("%s: sim seconds %v, want %v", label, got.simSecs, golden.simSecs)
				}
			}
		}
	}
}

// assertRowsEqual compares rendered rows in order.
func assertRowsEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d:\n got %q\nwant %q", label, i, got[i], want[i])
		}
	}
}

// sqlGolden holds each SQL suite query's SimSeconds over the DualTable
// table, recorded when the row-at-a-time and batch readers both
// existed and agreed.
var sqlGolden = map[string]float64{
	"SELECT COUNT(*), SUM(v), MIN(tag), MAX(id) FROM m":                13.012858950000002,
	"SELECT day, COUNT(*), AVG(v) FROM m GROUP BY day ORDER BY day":    13.012877875,
	"SELECT id, v FROM m WHERE id >= 100 AND id < 140 ORDER BY id":     12.5128449,
	"SELECT tag, COUNT(DISTINCT day) FROM m GROUP BY tag ORDER BY tag": 13.013259849999999,
}

// TestBatchRowSQLEquivalence runs full SQL statements (aggregation and
// filter+project, the two mapper kinds) over a dirty DualTable table
// and over the same rows and DML in a STORED AS HBASE table, whose
// reader yields Rows batches evaluated row by row. Results must match,
// and the DualTable SimSeconds must equal the recorded goldens at 1
// and 4 workers.
func TestBatchRowSQLEquivalence(t *testing.T) {
	e, h := testEngine(t)
	h.SetForcePlan("EDIT")
	seedDual(t, e)
	mustExec(t, e, "CREATE TABLE m_kv (id BIGINT, day BIGINT, v DOUBLE, tag STRING) STORED AS HBASE")
	mustExec(t, e, "INSERT INTO m_kv VALUES "+seedDualValues())
	for _, table := range []string{"m", "m_kv"} {
		mustExec(t, e, "UPDATE "+table+" SET v = 0.5 WHERE day < 3")
		mustExec(t, e, "DELETE FROM "+table+" WHERE day = 9")
	}
	for q, golden := range sqlGolden {
		ref, err := e.Execute(strings.Replace(q, "FROM m", "FROM m_kv", 1))
		if err != nil {
			t.Fatalf("%s (HBASE): %v", q, err)
		}
		if len(ref.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		var want []string
		for _, r := range ref.Rows {
			want = append(want, r.String())
		}
		for _, workers := range []int{1, 4} {
			e.MR.Parallelism = workers
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var rows []string
			for _, r := range got.Rows {
				rows = append(rows, r.String())
			}
			label := fmt.Sprintf("%s workers=%d", q, workers)
			assertRowsEqual(t, label, rows, want)
			if got.SimSeconds != golden {
				t.Fatalf("%s: sim seconds %v, want %v", label, got.SimSeconds, golden)
			}
		}
	}
}

// mustWhere extracts the WHERE expression of a SELECT text.
func mustWhere(t *testing.T, sql string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok || sel.Where == nil {
		t.Fatalf("not a SELECT with WHERE: %s", sql)
	}
	return sel.Where
}

func mustSchema(t *testing.T, e *hive.Engine, table string) datum.Schema {
	t.Helper()
	desc, err := e.MS.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	return desc.Schema
}

// TestJoinMixedBatchShapes joins a dirty DUALTABLE — its deletes make
// UNION READ materialize Rows batches — with an ORC table, whose scan
// delivers column vectors, so the join's tagged inputs carry both batch
// shapes. The answer must equal the same join over ORC copies that took
// the same DML, at 1 and 4 workers.
func TestJoinMixedBatchShapes(t *testing.T) {
	e, h := testEngine(t)
	h.SetForcePlan("EDIT")
	var facts, dims strings.Builder
	for i := 0; i < 400; i++ {
		if i > 0 {
			facts.WriteString(", ")
		}
		fmt.Fprintf(&facts, "(%d, %d, %d.5)", i, i%50, i)
	}
	for k := 0; k < 45; k++ {
		if k > 0 {
			dims.WriteString(", ")
		}
		fmt.Fprintf(&dims, "(%d, 'name%d')", k, k)
	}
	mustExec(t, e, "CREATE TABLE dims (k BIGINT, name STRING) STORED AS ORC")
	mustExec(t, e, "INSERT INTO dims VALUES "+dims.String())
	for _, table := range []string{"facts STORED AS DUALTABLE", "facts_orc STORED AS ORC"} {
		name, _, _ := strings.Cut(table, " ")
		mustExec(t, e, "CREATE TABLE "+name+" (id BIGINT, k BIGINT, v DOUBLE) "+strings.TrimPrefix(table, name+" "))
		mustExec(t, e, "INSERT INTO "+name+" VALUES "+facts.String())
		mustExec(t, e, "DELETE FROM "+name+" WHERE id % 7 = 0")
		mustExec(t, e, "UPDATE "+name+" SET v = 0.25 WHERE id % 5 = 0")
	}
	queries := []string{
		"SELECT f.id, f.v, d.name FROM facts f JOIN dims d ON f.k = d.k ORDER BY f.id",
		"SELECT d.name, COUNT(*), SUM(f.v) FROM facts f LEFT JOIN dims d ON f.k = d.k GROUP BY d.name ORDER BY d.name",
	}
	for _, q := range queries {
		ref := mustExec(t, e, strings.ReplaceAll(q, "FROM facts ", "FROM facts_orc "))
		if len(ref.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		var want []string
		for _, r := range ref.Rows {
			want = append(want, r.String())
		}
		for _, workers := range []int{1, 4} {
			e.MR.Parallelism = workers
			var got []string
			for _, r := range mustExec(t, e, q).Rows {
				got = append(got, r.String())
			}
			assertRowsEqual(t, fmt.Sprintf("%s workers=%d", q, workers), got, want)
		}
	}
}

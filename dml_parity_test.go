package dualtable_test

import (
	"fmt"
	"strings"
	"testing"

	"dualtable"
	"dualtable/internal/datum"
)

// dmlParityCase is one statement of the DML parity sequence. stmt and
// count are format strings taking the table name; count selects the
// rows the statement's WHERE matches.
type dmlParityCase struct {
	stmt, count string
}

// dmlParityCases covers WHERE clauses that compile to vector programs
// (comparisons, AND/OR/NOT, column against column, arithmetic), ones
// that fall back to the row evaluator (IN, BETWEEN, LIKE), the
// NULL-holding filter columns tdsj and hfsj, and SETs to NULL, from
// another column, from the paper's Listing 1 correlated subquery and
// to the value a column already holds.
var dmlParityCases = []dmlParityCase{
	{"UPDATE %s SET amt = amt * 2 + 1 WHERE dept = 'eng' AND id %% 3 = 0",
		"SELECT COUNT(*) FROM %s WHERE dept = 'eng' AND id %% 3 = 0"},
	{"UPDATE %s SET note = NULL WHERE hfsj < tdsj OR NOT (amt > 50)",
		"SELECT COUNT(*) FROM %s WHERE hfsj < tdsj OR NOT (amt > 50)"},
	{"UPDATE %s SET tdsj = hfsj WHERE hfsj + 5 > tdsj AND dept <> 'hr'",
		"SELECT COUNT(*) FROM %s WHERE hfsj + 5 > tdsj AND dept <> 'hr'"},
	{"DELETE FROM %s WHERE hfsj > 900",
		"SELECT COUNT(*) FROM %s WHERE hfsj > 900"},
	{"UPDATE %s SET dept = 'ops' WHERE id IN (3, 7, 11, 14, 400, 1501)",
		"SELECT COUNT(*) FROM %s WHERE id IN (3, 7, 11, 14, 400, 1501)"},
	{"DELETE FROM %s WHERE id BETWEEN 100 AND 120",
		"SELECT COUNT(*) FROM %s WHERE id BETWEEN 100 AND 120"},
	{"UPDATE %s SET amt = 0 WHERE note LIKE 'n1%%'",
		"SELECT COUNT(*) FROM %s WHERE note LIKE 'n1%%'"},
	{`UPDATE %s t SET t.amt = (SELECT SUM(k.v) FROM grp k WHERE k.dept = t.dept AND k.flag = 1) WHERE t.id < 60`,
		"SELECT COUNT(*) FROM %s t WHERE t.id < 60"},
	{"UPDATE %s SET hfsj = NULL, amt = amt + 1 WHERE tdsj IS NOT NULL AND tdsj < 200",
		"SELECT COUNT(*) FROM %s WHERE tdsj IS NOT NULL AND tdsj < 200"},
	{"DELETE FROM %s WHERE NOT (hfsj < tdsj)",
		"SELECT COUNT(*) FROM %s WHERE NOT (hfsj < tdsj)"},
	{"UPDATE %s SET amt = amt WHERE id < 30",
		"SELECT COUNT(*) FROM %s WHERE id < 30"},
}

// dmlParityGolden holds each statement's SimSeconds on the native-DML
// tables, {EDIT, HBASE, ACID}, keyed by pass and case index. They were
// recorded when every handler still ran its own hand-written job. The
// ACID values are those of 4 workers: back then a map task also listed
// the deltas its job's earlier tasks had just written (and, when two
// ran at once, failed opening one still being written), so at 1 worker
// the second task was charged for reading the first task's delta.
var dmlParityGolden = map[string][3]float64{
	"clean/0":  {12.535552275, 12.673575299999996, 12.520332525},
	"clean/1":  {12.686177687500004, 13.008843349999978, 12.520607524999999},
	"clean/2":  {12.5978357125, 12.8001294875, 12.520789725},
	"clean/3":  {12.5370634375, 12.675797399999999, 12.520287125},
	"clean/4":  {12.5144936875, 12.630577974999996, 12.520254275},
	"clean/5":  {12.518035362500001, 12.633863349999997, 12.520233625},
	"clean/6":  {12.629071099999999, 12.860173024999991, 12.520601025},
	"clean/7":  {12.526663625, 12.642524237499996, 12.520288075},
	"clean/8":  {12.607941925, 12.835427462499993, 12.520429475},
	"clean/9":  {12.6290965875, 12.857584799999994, 12.520347825},
	"clean/10": {12.513391025, 12.635901174999997, 12.520276375},
	"dirty/0":  {12.535552275, 12.673575299999996, 12.520332525},
	"dirty/1":  {12.684808100000003, 13.003785074999978, 12.5407968},
	"dirty/2":  {12.6051470125, 12.785945487500001, 12.5613442},
	"dirty/3":  {12.5476711375, 12.6616419, 12.58142},
	"dirty/4":  {12.5261707375, 12.605964374999997, 12.60146815},
	"dirty/5":  {12.529537675, 12.609030499999998, 12.621508875},
	"dirty/6":  {12.556964875, 12.661810874999997, 12.63171335},
	"dirty/7":  {12.5384965, 12.615693537499997, 12.651803275},
	"dirty/8":  {12.5681916, 12.705590449999997, 12.661984675},
	"dirty/9":  {12.60983545, 12.763296750000002, 12.682111425},
	"dirty/10": {12.532467625, 12.569111387499998, 12.70214315},
}

// The parity tables: ORC is the reference (UPDATE/DELETE become the
// INSERT OVERWRITE rewrite), the other four run the same statements
// through their own plans.
const (
	ptORC = iota
	ptHBase
	ptACID
	ptEdit
	ptOverwrite
	ptCount
)

var parityTables = [ptCount]struct{ name, storage, plan string }{
	{"p_orc", "ORC", "OVERWRITE-REWRITE"},
	{"p_kv", "HBASE", "EDIT-UDF"},
	{"p_acid", "ACID", "DELTA"},
	{"p_edit", "DUALTABLE", "EDIT"},
	{"p_over", "DUALTABLE", "OVERWRITE"},
}

// parityRows generates the shared data set: two loads of 1200 rows, so
// each table spans files with more than one 1024-row batch.
func parityRows(load int) []datum.Row {
	depts := []string{"eng", "ops", "hr", "fin"}
	rows := make([]datum.Row, 1200)
	for j := range rows {
		i := int64(load*len(rows) + j)
		row := datum.Row{datum.Int(i), datum.String_(depts[i%4]),
			datum.Int(i * 37 % 1000), datum.Int(i * 53 % 1000),
			datum.Float(float64(i%100) + 0.5), datum.String_(fmt.Sprintf("n%d", i%23))}
		if i%50 == 7 {
			row[2] = datum.Null
		}
		if i%9 == 4 {
			row[3] = datum.Null
		}
		if i%11 == 0 {
			row[5] = datum.Null
		}
		rows[j] = row
	}
	return rows
}

// dmlParityDB opens a database holding the five parity tables, freshly
// bulk loaded (no DML yet: clean files), and the subquery table grp.
func dmlParityDB(t *testing.T, workers int) [ptCount]*dualtable.Session {
	t.Helper()
	cfg := dualtable.DefaultConfig()
	cfg.Parallelism = workers
	db, err := dualtable.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE grp (dept STRING, flag BIGINT, v DOUBLE)")
	db.MustExec("INSERT INTO grp VALUES ('eng', 1, 5.0), ('eng', 1, 7.0), ('eng', 0, 100.0), ('ops', 1, 3.0), ('fin', 1, 2.5)")
	var sess [ptCount]*dualtable.Session
	for i, pt := range parityTables {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, dept STRING, tdsj BIGINT, hfsj BIGINT, amt DOUBLE, note STRING) STORED AS %s",
			pt.name, pt.storage))
		for load := 0; load < 2; load++ {
			if _, err := db.Engine.BulkLoad(pt.name, parityRows(load)); err != nil {
				t.Fatal(err)
			}
		}
		sess[i] = db.Session()
		if pt.storage == "DUALTABLE" {
			sess[i].MustExec("SET dualtable.force.plan = " + pt.plan)
		}
	}
	return sess
}

func tableRows(t *testing.T, s *dualtable.Session, table string) []string {
	t.Helper()
	rs := s.MustExec("SELECT * FROM " + table + " ORDER BY id")
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r.String()
	}
	return out
}

// runParityCase runs case ci on all five tables and compares each
// table's ordered rows and affected count with the ORC reference's.
// HBASE and ACID count every matching row; EDIT elides no-op writes,
// so an UPDATE counts the rows that changed; OVERWRITE counts the rows
// it rewrote, as the ORC rewrite does. The native-DML SimSeconds must
// equal the recorded goldens.
func runParityCase(t *testing.T, sess [ptCount]*dualtable.Session, pass string, ci int) {
	t.Helper()
	c := dmlParityCases[ci]
	label := fmt.Sprintf("%s/%d", pass, ci)
	ref := sess[ptORC]
	before := tableRows(t, ref, "p_orc")
	match := ref.MustExec(fmt.Sprintf(c.count, "p_orc")).Rows[0][0].I
	var got [ptCount]*dualtable.ResultSet
	for i, pt := range parityTables {
		rs, err := sess[i].Exec(fmt.Sprintf(c.stmt, pt.name))
		if err != nil {
			t.Fatalf("%s %s: %v", label, pt.storage, err)
		}
		if rs.Plan != pt.plan {
			t.Fatalf("%s %s: plan %q, want %q", label, pt.storage, rs.Plan, pt.plan)
		}
		got[i] = rs
	}
	after := tableRows(t, ref, "p_orc")
	changed := match
	if strings.HasPrefix(c.stmt, "UPDATE") {
		if len(after) != len(before) {
			t.Fatalf("%s: reference UPDATE changed the row count", label)
		}
		changed = 0
		for i := range before {
			if before[i] != after[i] {
				changed++
			}
		}
	}
	want := [ptCount]int64{got[ptORC].Affected, match, match, changed, got[ptORC].Affected}
	for i, pt := range parityTables {
		if got[i].Affected != want[i] {
			t.Errorf("%s %s %s: affected %d, want %d", label, pt.storage, pt.plan, got[i].Affected, want[i])
		}
		if i == ptORC {
			continue
		}
		rows := tableRows(t, ref, pt.name)
		if strings.Join(rows, "\n") != strings.Join(after, "\n") {
			t.Fatalf("%s %s %s: rows differ from ORC\n%s", label, pt.storage, pt.plan, firstDiff(rows, after))
		}
	}
	golden := dmlParityGolden[label]
	for k, i := range []int{ptEdit, ptHBase, ptACID} {
		if got[i].SimSeconds != golden[k] {
			t.Errorf("%s %s: sim seconds %v, want %v", label, parityTables[i].plan, got[i].SimSeconds, golden[k])
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got), len(want))
}

// TestDMLParityAcrossStorage runs one UPDATE/DELETE sequence on ORC,
// HBASE, ACID and DUALTABLE with EDIT and with OVERWRITE forced. Every
// case first runs alone on freshly loaded tables, whose clean files
// reach the native plans as column batches; then the whole sequence
// runs in order on one set of tables, so later cases scan the row
// batches earlier DML leaves behind. Both passes run at 1 and 4
// workers.
func TestDMLParityAcrossStorage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for ci := range dmlParityCases {
				runParityCase(t, dmlParityDB(t, workers), "clean", ci)
			}
			sess := dmlParityDB(t, workers)
			for ci := range dmlParityCases {
				runParityCase(t, sess, "dirty", ci)
			}
		})
	}
}

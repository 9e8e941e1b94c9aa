package hive

import (
	"fmt"
	"strings"
	"testing"

	"dualtable/internal/datum"
)

// Second-round coverage: expression corner cases, cross-table
// inserts, join varieties, and engine error paths.

func TestCastFailureYieldsNull(t *testing.T) {
	e := testEngine(t)
	rs := mustExec(t, e, "SELECT CAST('not-a-number' AS BIGINT)")
	if !rs.Rows[0][0].IsNull() {
		t.Errorf("failed CAST should be NULL (Hive semantics), got %v", rs.Rows[0][0])
	}
}

func TestLikePatterns(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE s (v STRING)")
	mustExec(t, e, `INSERT INTO s VALUES ('abc'), ('axc'), ('abcd'), ('xabc'), ('a.c'), (NULL)`)
	cases := []struct {
		pattern string
		want    int64
	}{
		{"abc", 1},
		{"a%", 4},
		{"a_c", 3}, // abc, axc, a.c
		{"%bc", 2}, // abc, xabc
		{"a.c", 1}, // dot is literal, not regexp
		{"%", 5},   // NULL excluded
	}
	for _, c := range cases {
		rs := mustExec(t, e, fmt.Sprintf("SELECT COUNT(*) FROM s WHERE v LIKE '%s'", c.pattern))
		if rs.Rows[0][0].I != c.want {
			t.Errorf("LIKE %q = %d, want %d", c.pattern, rs.Rows[0][0].I, c.want)
		}
	}
	rs := mustExec(t, e, "SELECT COUNT(*) FROM s WHERE v NOT LIKE 'a%'")
	if rs.Rows[0][0].I != 1 { // xabc only; NULL stays unknown
		t.Errorf("NOT LIKE = %v", rs.Rows[0])
	}
}

func TestInWithNullSemantics(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE n (v BIGINT)")
	mustExec(t, e, "INSERT INTO n VALUES (1), (2), (NULL)")
	// x IN (1, NULL): true for 1, unknown for 2 and NULL.
	rs := mustExec(t, e, "SELECT COUNT(*) FROM n WHERE v IN (1, NULL)")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("IN with NULL = %v", rs.Rows[0])
	}
	// NOT IN with NULL list never matches anything (3VL).
	rs = mustExec(t, e, "SELECT COUNT(*) FROM n WHERE v NOT IN (1, NULL)")
	if rs.Rows[0][0].I != 0 {
		t.Errorf("NOT IN with NULL = %v", rs.Rows[0])
	}
}

func TestBetweenAndArithmetic(t *testing.T) {
	e := testEngine(t)
	rs := mustExec(t, e, "SELECT 5 BETWEEN 1 AND 10, 5 NOT BETWEEN 6 AND 10, 7 % 2, 1 / 0, 10 % 0")
	r := rs.Rows[0]
	if !r[0].B || !r[1].B || r[2].I != 1 {
		t.Errorf("between/mod = %v", r)
	}
	if !r[3].IsNull() || !r[4].IsNull() {
		t.Errorf("division by zero should be NULL: %v", r)
	}
}

func TestCrossJoin(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE x (a BIGINT)")
	mustExec(t, e, "CREATE TABLE y (b BIGINT)")
	mustExec(t, e, "INSERT INTO x VALUES (1), (2)")
	mustExec(t, e, "INSERT INTO y VALUES (10), (20), (30)")
	rs := mustExec(t, e, "SELECT COUNT(*) FROM x CROSS JOIN y")
	if rs.Rows[0][0].I != 6 {
		t.Errorf("cross join = %v", rs.Rows[0])
	}
	// Implicit cross join via comma.
	rs = mustExec(t, e, "SELECT COUNT(*) FROM x, y WHERE a = 1")
	if rs.Rows[0][0].I != 3 {
		t.Errorf("comma join = %v", rs.Rows[0])
	}
}

func TestRightAndFullOuterJoin(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE l (k BIGINT, v STRING)")
	mustExec(t, e, "CREATE TABLE r (k BIGINT, w STRING)")
	mustExec(t, e, "INSERT INTO l VALUES (1, 'l1'), (2, 'l2')")
	mustExec(t, e, "INSERT INTO r VALUES (2, 'r2'), (3, 'r3')")
	rs := mustExec(t, e, "SELECT l.v, r.w FROM l RIGHT OUTER JOIN r ON l.k = r.k ORDER BY r.w")
	if len(rs.Rows) != 2 {
		t.Fatalf("right join = %v", rs.Rows)
	}
	if !rs.Rows[1][0].IsNull() || rs.Rows[1][1].S != "r3" {
		t.Errorf("unmatched right row = %v", rs.Rows[1])
	}
	rs = mustExec(t, e, "SELECT COUNT(*) FROM l FULL OUTER JOIN r ON l.k = r.k")
	if rs.Rows[0][0].I != 3 { // (1,-), (2,2), (-,3)
		t.Errorf("full join count = %v", rs.Rows[0])
	}
}

func TestJoinOnExpressionKeys(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE a (x BIGINT)")
	mustExec(t, e, "CREATE TABLE b (y BIGINT)")
	mustExec(t, e, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, e, "INSERT INTO b VALUES (2), (4), (6)")
	// Join on computed keys: a.x * 2 = b.y.
	rs := mustExec(t, e, "SELECT a.x, b.y FROM a JOIN b ON a.x * 2 = b.y ORDER BY a.x")
	if len(rs.Rows) != 3 {
		t.Fatalf("expr-key join = %v", rs.Rows)
	}
	for _, r := range rs.Rows {
		if r[0].I*2 != r[1].I {
			t.Errorf("bad pair %v", r)
		}
	}
}

func TestJoinResidualCondition(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE a (k BIGINT, v BIGINT)")
	mustExec(t, e, "CREATE TABLE b (k BIGINT, w BIGINT)")
	mustExec(t, e, "INSERT INTO a VALUES (1, 5), (1, 50)")
	mustExec(t, e, "INSERT INTO b VALUES (1, 10)")
	// Equi key k plus non-equi residual v < w.
	rs := mustExec(t, e, "SELECT a.v FROM a JOIN b ON a.k = b.k AND a.v < b.w")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 5 {
		t.Errorf("residual join = %v", rs.Rows)
	}
}

func TestInsertSelectAcrossStorageKinds(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE src (id BIGINT, v DOUBLE) STORED AS HBASE")
	mustExec(t, e, "INSERT INTO src VALUES (1, 1.5), (2, 2.5)")
	mustExec(t, e, "CREATE TABLE dst (id BIGINT, v DOUBLE) STORED AS ORC")
	mustExec(t, e, "INSERT INTO dst SELECT * FROM src WHERE v > 2")
	rs := mustExec(t, e, "SELECT id, v FROM dst")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 2 {
		t.Errorf("cross-storage insert = %v", rs.Rows)
	}
}

func TestInsertSelectArityMismatch(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	if _, err := e.Execute("INSERT INTO emp SELECT id FROM emp"); err == nil {
		t.Error("column count mismatch should fail")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE t (a BIGINT, b BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 2), (1, 1), (2, 9), (2, 3)")
	rs := mustExec(t, e, "SELECT a, b FROM t ORDER BY a DESC, b ASC")
	want := []string{"2\t3", "2\t9", "1\t1", "1\t2"}
	for i, w := range want {
		if rs.Rows[i].String() != w {
			t.Fatalf("row %d = %s, want %s", i, rs.Rows[i], w)
		}
	}
}

func TestGroupByExpression(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE t (v BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)")
	rs := mustExec(t, e, "SELECT v % 2, COUNT(*) FROM t GROUP BY v % 2 ORDER BY v % 2")
	if len(rs.Rows) != 2 || rs.Rows[0][1].I != 3 || rs.Rows[1][1].I != 3 {
		t.Errorf("group by expr = %v", rs.Rows)
	}
}

func TestAggregateOfExpression(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT SUM(salary * 2) + 1 FROM emp")
	if rs.Rows[0][0].F != 801 {
		t.Errorf("agg of expr = %v", rs.Rows[0])
	}
	// The same aggregate appearing twice is computed once.
	rs = mustExec(t, e, "SELECT SUM(salary), SUM(salary) / COUNT(*) FROM emp")
	if rs.Rows[0][0].F != 400 || rs.Rows[0][1].F != 80 {
		t.Errorf("repeated agg = %v", rs.Rows[0])
	}
}

func TestSelectNonGroupedColumnFails(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	if _, err := e.Execute("SELECT name, COUNT(*) FROM emp GROUP BY dept"); err == nil {
		t.Error("selecting non-grouped column should fail")
	}
	if _, err := e.Execute("SELECT COUNT(*) FROM emp WHERE SUM(salary) > 0"); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
	if _, err := e.Execute("SELECT COUNT(*) FROM emp GROUP BY SUM(salary)"); err == nil {
		t.Error("aggregate in GROUP BY should fail")
	}
}

func TestAmbiguousColumnFails(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE a (k BIGINT)")
	mustExec(t, e, "CREATE TABLE b (k BIGINT)")
	mustExec(t, e, "INSERT INTO a VALUES (1)")
	mustExec(t, e, "INSERT INTO b VALUES (1)")
	if _, err := e.Execute("SELECT k FROM a JOIN b ON a.k = b.k"); err == nil {
		t.Error("ambiguous column should fail")
	}
	mustExec(t, e, "SELECT a.k FROM a JOIN b ON a.k = b.k")
}

func TestCaseWithOperand(t *testing.T) {
	e := testEngine(t)
	rs := mustExec(t, e, "SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END")
	if rs.Rows[0][0].S != "two" {
		t.Errorf("case operand = %v", rs.Rows[0])
	}
	rs = mustExec(t, e, "SELECT CASE 9 WHEN 1 THEN 'one' END")
	if !rs.Rows[0][0].IsNull() {
		t.Errorf("unmatched case without else should be NULL: %v", rs.Rows[0])
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "SELECT name FROM emp LIMIT 2")
	if len(rs.Rows) != 2 {
		t.Errorf("limit = %d rows", len(rs.Rows))
	}
	rs = mustExec(t, e, "SELECT name FROM emp LIMIT 0")
	if len(rs.Rows) != 0 {
		t.Errorf("limit 0 = %d rows", len(rs.Rows))
	}
}

func TestSubqueryInFromWithAggOverJoin(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "CREATE TABLE dept (name STRING, budget DOUBLE)")
	mustExec(t, e, "INSERT INTO dept VALUES ('eng', 1000.0), ('sales', 500.0)")
	rs := mustExec(t, e, `SELECT d.name, d.budget - g.total AS slack
		FROM dept d JOIN (SELECT dept, SUM(salary) total FROM emp GROUP BY dept) g
		ON d.name = g.dept ORDER BY d.name`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][1].F != 810 || rs.Rows[1][1].F != 350 {
		t.Errorf("slack = %v", rs.Rows)
	}
}

func TestTruncateViaDeleteAll(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	rs := mustExec(t, e, "DELETE FROM emp")
	_ = rs
	got := mustExec(t, e, "SELECT COUNT(*) FROM emp")
	if got.Rows[0][0].I != 0 {
		t.Errorf("delete-all left %v rows", got.Rows[0])
	}
}

func TestUpdateMultipleColumns(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "UPDATE emp SET salary = 0, dept = 'gone' WHERE id = 5")
	rs := mustExec(t, e, "SELECT dept, salary FROM emp WHERE id = 5")
	if rs.Rows[0][0].S != "gone" || rs.Rows[0][1].F != 0 {
		t.Errorf("multi-set update = %v", rs.Rows[0])
	}
	if _, err := e.Execute("UPDATE emp SET salary = 1, salary = 2"); err == nil {
		t.Error("duplicate SET column should fail")
	}
}

func TestUpdateSetFromOtherColumn(t *testing.T) {
	e := testEngine(t)
	seedEmployees(t, e, "ORC")
	mustExec(t, e, "UPDATE emp SET name = dept WHERE id = 1")
	rs := mustExec(t, e, "SELECT name FROM emp WHERE id = 1")
	if rs.Rows[0][0].S != "eng" {
		t.Errorf("set-from-column = %v", rs.Rows[0])
	}
}

func TestConcatWithNumericAndSubstrEdge(t *testing.T) {
	e := testEngine(t)
	rs := mustExec(t, e, "SELECT CONCAT('id-', 42), SUBSTR('hello', -3), SUBSTR('hi', 9), SUBSTR('hello', 1, 0)")
	r := rs.Rows[0]
	if r[0].S != "id-42" || r[1].S != "llo" || r[2].S != "" || r[3].S != "" {
		t.Errorf("string funcs = %v", r)
	}
}

func TestLoadOverwriteReplaces(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE t (a BIGINT)")
	e.FS.MkdirAll("/gen")
	e.FS.WriteFile("/gen/a.txt", []byte("1\n2\n"))
	e.FS.WriteFile("/gen/b.txt", []byte("9\n"))
	mustExec(t, e, "LOAD DATA INPATH '/gen/a.txt' INTO TABLE t")
	mustExec(t, e, "LOAD DATA INPATH '/gen/b.txt' OVERWRITE INTO TABLE t")
	rs := mustExec(t, e, "SELECT COUNT(*), MAX(a) FROM t")
	if rs.Rows[0][0].I != 1 || rs.Rows[0][1].I != 9 {
		t.Errorf("load overwrite = %v", rs.Rows[0])
	}
}

func TestStorageParityAfterDML(t *testing.T) {
	// The same DML sequence on ORC and HBASE yields the same visible
	// data. (ACID and DUALTABLE live outside this package; the root
	// package's TestDMLParityAcrossStorage compares all of them.)
	var results []string
	for _, storage := range []string{"ORC", "HBASE"} {
		e := testEngine(t)
		seedEmployees(t, e, storage)
		mustExec(t, e, "UPDATE emp SET salary = salary + 5 WHERE dept = 'eng'")
		mustExec(t, e, "DELETE FROM emp WHERE id = 4")
		rs := mustExec(t, e, "SELECT id, name, dept, salary FROM emp ORDER BY id")
		results = append(results, strings.Join(rowsAsStrings(rs), ";"))
	}
	if results[0] != results[1] {
		t.Errorf("DML parity broken:\nORC:   %s\nHBASE: %s", results[0], results[1])
	}
}

func TestBigTableManyStripes(t *testing.T) {
	// Enough rows to span many ORC stripes and multiple memtable
	// flushes in the KV path.
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE big (id BIGINT, v DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	n := 25000
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.25)", i, i)
	}
	mustExec(t, e, sb.String())
	rs := mustExec(t, e, "SELECT COUNT(*), MIN(id), MAX(id), SUM(v) FROM big")
	r := rs.Rows[0]
	if r[0].I != int64(n) || r[1].I != 0 || r[2].I != int64(n-1) {
		t.Errorf("big scan = %v", r)
	}
	wantSum := float64(n)*float64(n-1)/2 + 0.25*float64(n)
	if f, _ := r[3].AsFloat(); f != wantSum {
		t.Errorf("sum = %v, want %v", f, wantSum)
	}
}

// TestMapSideHashAggOverflow drives the map-side hash table past its
// flush cap: mid-task flushes must hand partial groups to the
// combiner, not lose or double them, over an ORC table's column
// vectors and over the same rows in a STORED AS HBASE table's Rows
// batches.
func TestMapSideHashAggOverflow(t *testing.T) {
	old := maxHashGroups
	maxHashGroups = 8
	defer func() { maxHashGroups = old }()

	e := testEngine(t)
	rows := make([]datum.Row, 600)
	for i := range rows {
		// 30 groups, revisited repeatedly so accumulators keep folding
		// across flush boundaries.
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 30)), datum.Float(1)}
	}
	for _, storage := range []string{"ORC", "HBASE"} {
		table := "hov_" + strings.ToLower(storage)
		mustExec(t, e, "CREATE TABLE "+table+" (id BIGINT, grp BIGINT, v DOUBLE) STORED AS "+storage)
		if _, err := e.BulkLoad(table, rows); err != nil {
			t.Fatal(err)
		}
		rs := mustExec(t, e, "SELECT grp, COUNT(*), SUM(v) FROM "+table+" GROUP BY grp ORDER BY grp")
		if len(rs.Rows) != 30 {
			t.Fatalf("%s: %d groups, want 30", storage, len(rs.Rows))
		}
		for i, r := range rs.Rows {
			if sum, _ := r[2].AsFloat(); r[0].I != int64(i) || r[1].I != 20 || sum != 20 {
				t.Fatalf("%s: group row %d = %s, want %d 20 20", storage, i, r, i)
			}
		}
		// Recorded when the row-at-a-time and batch readers both
		// existed and agreed.
		if storage == "ORC" && rs.SimSeconds != 13.010140025 {
			t.Errorf("ORC: SimSeconds = %v, want 13.010140025", rs.SimSeconds)
		}
	}
}

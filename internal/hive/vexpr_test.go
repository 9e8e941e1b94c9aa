package hive

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// vexprTestScope mirrors the vx test table for direct compiler tests.
func vexprTestScope() *scope {
	return &scope{cols: []scopeCol{
		{qual: "vx", name: "id", kind: datum.KindInt},
		{qual: "vx", name: "a", kind: datum.KindInt},
		{qual: "vx", name: "b", kind: datum.KindInt},
		{qual: "vx", name: "f", kind: datum.KindFloat},
		{qual: "vx", name: "g", kind: datum.KindFloat},
		{qual: "vx", name: "s", kind: datum.KindString},
	}}
}

func parseSelectExpr(t *testing.T, exprSQL string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT " + exprSQL + " FROM vx")
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	return stmt.(*sqlparser.SelectStmt).Items[0].Expr
}

// TestCompileVexprCoverage pins which expressions compile to vector
// programs and which fall back, so the equivalence suite below cannot
// silently pass with everything on the row path.
func TestCompileVexprCoverage(t *testing.T) {
	sc := vexprTestScope()
	compiles := []string{
		"a + b",
		"a % b",
		"f * (1 - g)",           // TPC-H Q1 disc_price shape
		"f * (1 - g) * (1 + a)", // TPC-H Q1 charge shape
		"-f + a",
		"CASE WHEN a < b THEN f ELSE g END", // searched CASE
		"CASE s WHEN 'x' THEN 1 WHEN 'y' THEN 2 ELSE 0 END", // operand CASE
		"IF(a < b, 1, 0)",
		"(a < b) AND (f >= g)",
		"NOT (a = b) OR (f > 1.5)",
		"a % 7 = 0", // WHERE shapes: selection-vector programs
		"s >= 'x'",
	}
	for _, src := range compiles {
		if _, ok := compileVexpr(parseSelectExpr(t, src), sc); !ok {
			t.Errorf("compileVexpr(%q) fell back, want a program", src)
		}
	}
	fallbacks := []string{
		"s + a",                             // string arithmetic coerces at runtime
		"a < s",                             // cross-kind comparison orders by kind tag
		"CASE WHEN a < b THEN f ELSE s END", // mixed-kind branches
		"LENGTH(s)",                         // unsupported function
		"a",                                 // bare column has a cheaper direct path
		"a IN (1, 2)",                       // IN, BETWEEN and LIKE filter row by row
		"a BETWEEN 1 AND 5",
		"s LIKE 'x%'",
	}
	for _, src := range fallbacks {
		if _, ok := compileVexpr(parseSelectExpr(t, src), sc); ok {
			t.Errorf("compileVexpr(%q) produced a program, want fallback", src)
		}
	}
}

// seedVexprTable loads rows exercising the compiler's edge cases:
// NULLs scattered through every column on different strides, int64
// overflow magnitudes, zero divisors and sign changes.
func seedVexprTable(t *testing.T, e *Engine) {
	t.Helper()
	seedVexprTableAs(t, e, "vx", "ORC")
}

// seedVexprTableAs loads the vx rows into a table of the given name
// and storage.
func seedVexprTableAs(t *testing.T, e *Engine, name, storage string) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE "+name+" (id BIGINT, a BIGINT, b BIGINT, f DOUBLE, g DOUBLE, s STRING) STORED AS "+storage)
	var rows []datum.Row
	strs := []string{"x", "y", "z", "w"}
	for i := 0; i < 500; i++ {
		r := datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i)*2654435761 - 900), // wraps through both signs
			datum.Int(int64(i%11) - 5),           // hits 0 (division/modulo by zero)
			datum.Float(float64(i-250) / 7),
			datum.Float(float64(i%13-6) / 3), // hits 0.0
			datum.String_(strs[i%len(strs)]),
		}
		if i%7 == 0 {
			r[1] = datum.Null
		}
		if i%5 == 0 {
			r[2] = datum.Null
		}
		if i%3 == 0 {
			r[3] = datum.Null
		}
		if i%17 == 0 {
			r[4] = datum.Null
		}
		if i%19 == 0 {
			r[5] = datum.Null
		}
		rows = append(rows, r)
	}
	// Overflow edges: a*b and a+b must wrap identically on both paths.
	rows = append(rows,
		datum.Row{datum.Int(500), datum.Int(math.MaxInt64), datum.Int(2), datum.Float(1e308), datum.Float(-1e308), datum.String_("x")},
		datum.Row{datum.Int(501), datum.Int(math.MinInt64), datum.Int(-1), datum.Float(0.1), datum.Float(0), datum.String_("y")},
	)
	if _, err := e.BulkLoad(name, rows); err != nil {
		t.Fatal(err)
	}
}

// vexprGolden holds each equivalence query's SimSeconds over the ORC
// table, recorded when the row-at-a-time and batch readers both
// existed and agreed.
var vexprGolden = []float64{
	12.5102486, 12.5102486, 12.51025475, 13.010255599999999, 12.5102249,
	12.510104, 12.510092075, 12.510203525, 12.5101034, 13.0101765,
	12.510113975, 13.010052, 12.510092675000001, 12.510125525, 12.51004985,
	12.51012515,
}

// TestVexprBatchRowEquivalence runs expression-heavy queries over the
// ORC table vx, whose scans deliver column vectors to the vector
// programs, and over the same rows in a STORED AS HBASE table, whose
// Rows batches go through the row evaluator: the oracle. At 1 and 4
// workers the rows must match and the ORC SimSeconds must equal the
// recorded goldens.
func TestVexprBatchRowEquivalence(t *testing.T) {
	queries := []string{
		// Arithmetic incl. wraparound, div/mod by zero, unary minus.
		"SELECT id, a + b, a - b, a * b, a / b, a % b, -a, f / g, f % g, f * (1 - g) FROM vx ORDER BY id",
		// Column-column comparisons and 3VL logic.
		"SELECT id, a < b, f >= g, (a < b) AND (f >= g), (a = b) OR (f != g), NOT (a < b) FROM vx ORDER BY id",
		// CASE: searched with no-ELSE fallthrough, operand form, IF.
		"SELECT id, CASE WHEN a < 0 THEN 'neg' WHEN a = 0 THEN 'zero' ELSE 'pos' END, " +
			"CASE WHEN f > g THEN a + 1 WHEN f < g THEN a - 1 END, " +
			"CASE s WHEN 'x' THEN 1 WHEN 'y' THEN 2 ELSE 0 END, IF(a < b, f, g) FROM vx ORDER BY id",
		// Aggregation over computed arguments (TPC-H Q1 shape).
		"SELECT s, COUNT(*), SUM(f * (1 - g)), SUM(f * (1 - g) * (1 + a)), AVG(a + b), " +
			"MIN(a * 2), MAX(f - g), SUM(a / b), SUM(a % b) FROM vx GROUP BY s ORDER BY s",
		// Arithmetic filter program over program projections.
		"SELECT id, f * (1 - g) FROM vx WHERE a + b > 0 ORDER BY id",
		// WHERE through selection vectors: modulo, column-column,
		// OR/NOT and a string compare on a column holding NULLs, on the
		// plain and the aggregating scan.
		"SELECT id, a, s FROM vx WHERE a % 7 = 0 ORDER BY id",
		"SELECT id FROM vx WHERE a < b ORDER BY id",
		"SELECT id FROM vx WHERE NOT (f > g) OR a % 3 = 1 ORDER BY id",
		"SELECT id, s FROM vx WHERE s >= 'x' ORDER BY id",
		"SELECT s, COUNT(*), SUM(a) FROM vx WHERE s != 'y' AND (a < b OR f >= 0) GROUP BY s ORDER BY s",
		// Filters that fall back to the row path inside a batch.
		"SELECT id FROM vx WHERE a IN (1, 2, 3) OR b BETWEEN -2 AND 1 ORDER BY id",
		"SELECT s, COUNT(*) FROM vx WHERE s LIKE 'x%' GROUP BY s ORDER BY s",
		// Streaming top-N: per-task heaps must reproduce sort+truncate.
		"SELECT id, a + b FROM vx ORDER BY a + b DESC, id LIMIT 5",
		"SELECT id, f FROM vx WHERE f > 0 ORDER BY f / g, id LIMIT 3",
		"SELECT id FROM vx ORDER BY s, id LIMIT 0",
		"SELECT id, s FROM vx ORDER BY s DESC, id LIMIT 10000",
	}
	if len(queries) != len(vexprGolden) {
		t.Fatalf("%d queries, %d goldens", len(queries), len(vexprGolden))
	}
	e := testEngine(t)
	seedVexprTable(t, e)
	seedVexprTableAs(t, e, "vx_kv", "HBASE")
	render := func(rs *ResultSet) string {
		var sb strings.Builder
		for _, r := range rs.Rows {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for qi, q := range queries {
		// Every query has a total ORDER BY or a single group per key.
		want := render(mustExec(t, e, strings.Replace(q, "FROM vx", "FROM vx_kv", 1)))
		for _, workers := range []int{1, 4} {
			e.MR.Parallelism = workers
			rs := mustExec(t, e, q)
			label := fmt.Sprintf("query %d, workers=%d", qi, workers)
			if out := render(rs); out != want {
				t.Errorf("%s: rows differ from the HBASE table:\n%s--- want ---\n%s", label, out, want)
			}
			if rs.SimSeconds != vexprGolden[qi] {
				t.Errorf("%s: SimSeconds = %v, want %v", label, rs.SimSeconds, vexprGolden[qi])
			}
		}
	}
}

// TestTopNMatchesFullSort checks ORDER BY ... LIMIT against the
// unlimited query: the limited result must be exactly the prefix.
func TestTopNMatchesFullSort(t *testing.T) {
	e := testEngine(t)
	seedVexprTable(t, e)
	full := mustExec(t, e, "SELECT id, a % 97, s FROM vx ORDER BY a % 97 DESC, s, id")
	for _, limit := range []int{1, 7, 100, 502, 600} {
		q := fmt.Sprintf("SELECT id, a %% 97, s FROM vx ORDER BY a %% 97 DESC, s, id LIMIT %d", limit)
		rs := mustExec(t, e, q)
		want := len(full.Rows)
		if limit < want {
			want = limit
		}
		if len(rs.Rows) != want {
			t.Fatalf("LIMIT %d returned %d rows, want %d", limit, len(rs.Rows), want)
		}
		for i := range rs.Rows {
			if rs.Rows[i].String() != full.Rows[i].String() {
				t.Errorf("LIMIT %d row %d = %s, want %s", limit, i, rs.Rows[i], full.Rows[i])
			}
		}
	}
}

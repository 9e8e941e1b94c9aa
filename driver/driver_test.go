package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dualtable"
	_ "dualtable/driver"
	"dualtable/internal/server"
)

// startServer runs a dtserver over a fresh in-memory cluster on an
// ephemeral port, returning the server (for Stats), the backing DB
// (for in-process inspection), and the address.
func startServer(t testing.TB, cfg server.Config) (*server.Server, *dualtable.DB, string) {
	t.Helper()
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(db, cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, db, addr.String()
}

func openSQL(t testing.TB, addr, params string) *sql.DB {
	t.Helper()
	dsn := "dt://" + addr
	if params != "" {
		dsn += "?" + params
	}
	db, err := sql.Open("dualtable", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDriverRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "")
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Exec(`CREATE TABLE rt (id BIGINT, tag STRING, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}

	ins, err := db.Prepare(`INSERT INTO rt VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := ins.Exec(i, fmt.Sprintf("tag%d", i%3), float64(i)*1.5); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	ins.Close()

	res, err := db.Exec(`UPDATE rt SET v = v + 100 WHERE id = ?`, int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("update affected %d rows, want 1", n)
	}

	rows, err := db.Query(`SELECT id, tag, v FROM rt WHERE v > ?`, 100.0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var id int64
		var tag string
		var v float64
		if err := rows.Scan(&id, &tag, &v); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d|%s|%g", id, tag, v))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(got) != 1 || got[0] != "4|tag1|106" {
		t.Fatalf("rows = %v, want [4|tag1|106]", got)
	}

	// NULLs survive the round trip.
	if _, err := db.Exec(`INSERT INTO rt VALUES (?, ?, ?)`, int64(11), nil, 3.0); err != nil {
		t.Fatal(err)
	}
	var tag sql.NullString
	if err := db.QueryRow(`SELECT tag FROM rt WHERE id = ?`, int64(11)).Scan(&tag); err != nil {
		t.Fatal(err)
	}
	if tag.Valid {
		t.Fatalf("tag = %q, want NULL", tag.String)
	}

	// Typed errors round-trip the wire as the same sentinels.
	_, err = db.Exec(`SELECT * FROM no_such_table`)
	if !errors.Is(err, dualtable.ErrTableNotFound) {
		t.Fatalf("err = %v, want ErrTableNotFound", err)
	}
	if _, err := db.Query(`SELECT * FROM no_such_table`); !errors.Is(err, dualtable.ErrTableNotFound) {
		t.Fatalf("query err = %v, want ErrTableNotFound", err)
	}
}

// workload runs one deterministic mixed workload (DDL, prepared
// inserts, point updates, delete, filtered scan) against either
// transport and returns the scan rendered row by row.
type workload struct {
	table string
}

type execer interface {
	exec(sqlText string, args ...any) error
	query(sqlText string, args ...any) ([]string, error)
}

func (w workload) run(e execer) ([]string, error) {
	if err := e.exec(fmt.Sprintf(
		`CREATE TABLE %s (id BIGINT, tag STRING, v DOUBLE) STORED AS DUALTABLE`, w.table)); err != nil {
		return nil, err
	}
	for i := int64(0); i < 30; i++ {
		if err := e.exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, w.table),
			i, fmt.Sprintf("g%d", i%5), float64(i)/2); err != nil {
			return nil, err
		}
	}
	// Point updates through the cost model...
	for _, id := range []int64{3, 7, 11, 19} {
		if err := e.exec(fmt.Sprintf(`UPDATE %s SET v = v * 10, tag = 'hot' WHERE id = ?`, w.table), id); err != nil {
			return nil, err
		}
	}
	if err := e.exec(fmt.Sprintf(`DELETE FROM %s WHERE tag = 'g4'`, w.table)); err != nil {
		return nil, err
	}
	// ...then a UNION READ scan that sees masters merged with edits.
	rows, err := e.query(fmt.Sprintf(`SELECT id, tag, v FROM %s WHERE v >= ?`, w.table), 2.0)
	if err != nil {
		return nil, err
	}
	sort.Strings(rows)
	return rows, nil
}

// sqlExecer drives the workload through database/sql over the wire.
type sqlExecer struct{ db *sql.DB }

func (e sqlExecer) exec(sqlText string, args ...any) error {
	_, err := e.db.Exec(sqlText, args...)
	return err
}

func (e sqlExecer) query(sqlText string, args ...any) ([]string, error) {
	rows, err := e.db.Query(sqlText, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var id int64
		var tag string
		var v float64
		if err := rows.Scan(&id, &tag, &v); err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%d|%s|%g", id, tag, v))
	}
	return out, rows.Err()
}

// sessExecer drives the identical workload on an in-process session.
type sessExecer struct{ sess *dualtable.Session }

func (e sessExecer) exec(sqlText string, args ...any) error {
	if len(args) == 0 {
		_, err := e.sess.Exec(sqlText)
		return err
	}
	st, err := e.sess.Prepare(sqlText)
	if err != nil {
		return err
	}
	defer st.Close()
	_, err = st.Exec(args...)
	return err
}

func (e sessExecer) query(sqlText string, args ...any) ([]string, error) {
	st, err := e.sess.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rows, err := st.QueryContext(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var id int64
		var tag string
		var v float64
		if err := rows.Scan(&id, &tag, &v); err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%d|%s|%g", id, tag, v))
	}
	return out, rows.Err()
}

// TestConcurrentClientsMatchInProcess is the acceptance test: 8
// goroutines run mixed workloads through the driver concurrently and
// every result must be byte-identical to the same workload executed
// in process.
func TestConcurrentClientsMatchInProcess(t *testing.T) {
	const clients = 8

	// In-process reference on its own identical cluster.
	refDB, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, clients)
	for g := 0; g < clients; g++ {
		w := workload{table: fmt.Sprintf("wk%d", g)}
		want[g], err = w.run(sessExecer{sess: refDB.Session()})
		if err != nil {
			t.Fatalf("in-process reference %d: %v", g, err)
		}
		if len(want[g]) == 0 {
			t.Fatalf("reference workload %d returned no rows", g)
		}
	}

	_, _, addr := startServer(t, server.Config{})
	var wg sync.WaitGroup
	got := make([][]string, clients)
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := openSQL(t, addr, "")
			w := workload{table: fmt.Sprintf("wk%d", g)}
			got[g], errs[g] = w.run(sqlExecer{db: db})
		}(g)
	}
	wg.Wait()
	for g := 0; g < clients; g++ {
		if errs[g] != nil {
			t.Fatalf("client %d: %v", g, errs[g])
		}
		if strings.Join(got[g], "\n") != strings.Join(want[g], "\n") {
			t.Errorf("client %d diverged from in-process run:\n wire: %v\n proc: %v", g, got[g], want[g])
		}
	}
}

// TestConcurrentSharedTable hammers one table from 8 clients (point
// updates racing UNION READ scans) and checks nothing errors and the
// final state is consistent.
func TestConcurrentSharedTable(t *testing.T) {
	_, _, addr := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueWait: 30 * time.Second})
	setup := openSQL(t, addr, "")
	if _, err := setup.Exec(`CREATE TABLE shared (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if _, err := setup.Exec(`INSERT INTO shared VALUES (?, ?)`, i, 0.0); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := openSQL(t, addr, "")
			for i := 0; i < 5; i++ {
				// Each client owns ids g*8..g*8+7: disjoint updates.
				id := int64(g*8 + i%8)
				if _, err := db.Exec(`UPDATE shared SET v = v + 1 WHERE id = ?`, id); err != nil {
					errs[g] = fmt.Errorf("update: %w", err)
					return
				}
				rows, err := db.Query(`SELECT id, v FROM shared WHERE id >= ? AND id < ?`,
					int64(g*8), int64(g*8+8))
				if err != nil {
					errs[g] = fmt.Errorf("scan: %w", err)
					return
				}
				n := 0
				for rows.Next() {
					var id int64
					var v float64
					if err := rows.Scan(&id, &v); err != nil {
						errs[g] = err
						return
					}
					n++
				}
				if err := rows.Err(); err != nil {
					errs[g] = err
					return
				}
				rows.Close()
				if n != 8 {
					errs[g] = fmt.Errorf("scan saw %d rows, want 8", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}

	var total float64
	if err := setup.QueryRow(`SELECT SUM(v) FROM shared`).Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != float64(clients*5) {
		t.Fatalf("SUM(v) = %g, want %d", total, clients*5)
	}
}

// TestCancelMidStreamAbortsServerJob cancels a context while a query
// stream is in flight: the client gets a prompt error and the
// server-side op terminates (no goroutine stuck holding a gate slot or
// snapshot).
func TestCancelMidStreamAbortsServerJob(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{BatchRows: 8})
	db := openSQL(t, addr, "window=1")
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE big (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO big VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		if _, err := ins.Exec(i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT id, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// Consume a couple of rows mid-stream, then pull the plug.
	for i := 0; i < 2; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	for rows.Next() {
		// drain whatever was already in flight
	}
	if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("rows.Err() = %v, want nil or context.Canceled", err)
	}
	rows.Close()

	// The server-side op must wind down completely.
	waitFor(t, func() bool { return srv.Stats().ActiveOps == 0 })

	// The connection resynchronized: the next query works.
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM big`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("COUNT(*) = %d, want 400", n)
	}
}

// TestAdmissionControlSheds saturates a MaxConcurrent=1, no-queue
// server with a stalled stream and checks the overload statement is
// shed with the typed busy sentinel, recovering once the slot frees.
func TestAdmissionControlSheds(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{
		MaxConcurrent: 1,
		QueueDepth:    -1, // no queue: shed immediately
		BatchRows:     4,
	})
	// retries=0: this test asserts the shed is visible, so the
	// driver's transparent busy retry must stay out of the way.
	db := openSQL(t, addr, "window=1&retries=0")

	if _, err := db.Exec(`CREATE TABLE adm (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if _, err := db.Exec(`INSERT INTO adm VALUES (?, ?)`, i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Open a stream and never consume it: with window=1 and 4-row
	// batches the server stalls waiting for credits while holding the
	// tenant's only execution slot.
	stall := openSQL(t, addr, "window=1")
	stall.SetMaxOpenConns(1)
	rows, err := stall.Query(`SELECT id, v FROM adm`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().ActiveOps == 1 })

	_, err = db.Exec(`UPDATE adm SET v = 0 WHERE id = 1`)
	if !errors.Is(err, dualtable.ErrServerBusy) {
		t.Fatalf("overload err = %v, want ErrServerBusy", err)
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("Stats().Shed = 0 after a shed")
	}

	// Free the slot; the same statement now runs.
	rows.Close()
	waitFor(t, func() bool { return srv.Stats().ActiveOps == 0 })
	if _, err := db.Exec(`UPDATE adm SET v = 0 WHERE id = 1`); err != nil {
		t.Fatalf("after slot freed: %v", err)
	}
}

// TestSequentialClientNeverShed runs a strictly sequential client
// against a MaxConcurrent=1, no-queue server: each statement's slot
// must be free by the time its answer (Result, QueryEnd or Error)
// arrives, so the client's next statement is never shed by its own
// previous one.
func TestSequentialClientNeverShed(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{
		MaxConcurrent: 1,
		QueueDepth:    -1,
		BatchRows:     4,
	})
	db := openSQL(t, addr, "retries=0")
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE seq (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := int64(0); i < n; i++ {
		if _, err := db.Exec(`INSERT INTO seq VALUES (?, ?)`, i, float64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		var count int64
		if err := db.QueryRow(`SELECT COUNT(*) FROM seq`).Scan(&count); err != nil {
			t.Fatalf("count after insert %d: %v", i, err)
		}
		if count != i+1 {
			t.Fatalf("COUNT(*) = %d after %d inserts", count, i+1)
		}
		rows, err := db.Query(`SELECT id, v FROM seq WHERE id <= ?`, i)
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		rows.Close()
		if _, err := db.Exec(`SELECT * FROM no_such_table`); err == nil || errors.Is(err, dualtable.ErrServerBusy) {
			t.Fatalf("failing statement %d: err = %v, want a non-busy error", i, err)
		}
	}
	if shed := srv.Stats().Shed; shed != 0 {
		t.Fatalf("Stats().Shed = %d for a sequential client, want 0", shed)
	}
}

// TestSessionVarsStickOnConnection sets read.epoch over the wire and
// checks it pins subsequent reads on that connection — and only that
// connection. Session state only sticks within one borrow, so the
// SET-dependent half runs on a dedicated sql.Conn (the pool resets SET
// state between borrows; see TestPooledConnSessionReset).
func TestSessionVarsStickOnConnection(t *testing.T) {
	_, backing, addr := startServer(t, server.Config{})
	db := openSQL(t, addr, "")
	ctx := context.Background()

	if _, err := db.Exec(`CREATE TABLE tv (id BIGINT, v DOUBLE) STORED AS DUALTABLE`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO tv VALUES (1, 1.0), (2, 2.0)`); err != nil {
		t.Fatal(err)
	}
	desc, err := backing.Engine.MS.Get("tv")
	if err != nil {
		t.Fatal(err)
	}
	epBefore, err := backing.Handler.CurrentEpoch(desc)
	if err != nil {
		t.Fatal(err)
	}

	cn, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if _, err := cn.ExecContext(ctx, `SET dualtable.force.plan = EDIT`); err != nil {
		t.Fatal(err)
	}
	if _, err := cn.ExecContext(ctx, `UPDATE tv SET v = 99.0 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}

	sum := func(q interface {
		QueryRowContext(context.Context, string, ...any) *sql.Row
	}) float64 {
		t.Helper()
		var s float64
		if err := q.QueryRowContext(ctx, `SELECT SUM(v) FROM tv`).Scan(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := sum(cn); got != 100.0 {
		t.Fatalf("current sum = %g, want 100", got)
	}

	// Pin this connection at the pre-update epoch.
	if _, err := cn.ExecContext(ctx, fmt.Sprintf(`SET read.epoch = %d`, epBefore)); err != nil {
		t.Fatal(err)
	}
	if got := sum(cn); got != 3.0 {
		t.Fatalf("pinned sum = %g, want 3 (pre-update)", got)
	}
	// Pooled borrows are unaffected by the dedicated conn's pin.
	if got := sum(db); got != 100.0 {
		t.Fatalf("pool conn sum = %g, want 100", got)
	}
	// Unpin restores current reads.
	if _, err := cn.ExecContext(ctx, `SET read.epoch = current`); err != nil {
		t.Fatal(err)
	}
	if got := sum(cn); got != 100.0 {
		t.Fatalf("unpinned sum = %g, want 100", got)
	}

	// A future epoch fails with the typed sentinel over the wire.
	if _, err := cn.ExecContext(ctx, `SET read.epoch = 999999`); err != nil {
		t.Fatal(err)
	}
	_, err = cn.QueryContext(ctx, `SELECT SUM(v) FROM tv`)
	if !errors.Is(err, dualtable.ErrEpochFuture) {
		t.Fatalf("future-epoch err = %v, want ErrEpochFuture", err)
	}
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

package main

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dualtable"
	_ "dualtable/driver"
	"dualtable/internal/datum"
	"dualtable/internal/server"
	"dualtable/internal/sqlparser"
)

// The wire table: wireRows rows in wireGroups equal groups.
const (
	wireTable  = "kv"
	wireRows   = 8192
	wireGroups = 64
	// wireConns is the number of client connections, one per CPU of
	// the 2-CPU box the benchmark is sized on.
	wireConns = 2
	// wirePairs is how many reads the traced run times both over the
	// wire and in process, for driver.overhead_ms.
	wirePairs = 300
	// wireReplays is how many scans and point updates the traced run
	// replays in process, for the hive and core exec figures.
	wireReplays = 100
)

const (
	wireUpdateSQL = "UPDATE " + wireTable + " SET v = v + 1 WHERE id = ?"
	wireScanSQL   = "SELECT id, v FROM " + wireTable + " WHERE grp = ?"
)

// wireOp is one statement of a connection's sequence: a point update
// of row arg, or a scan of group arg.
type wireOp struct {
	update bool
	arg    int64
}

// wireSequence gives each connection n/wireConns ops, exactly one in
// four of them updates, in a seeded order.
func wireSequence(seed int64, n int) [][]wireOp {
	out := make([][]wireOp, wireConns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*wireConns + int64(c)))
		per := n / wireConns
		ops := make([]wireOp, per)
		for i := range ops {
			if i < per/4 {
				ops[i] = wireOp{update: true, arg: rng.Int63n(wireRows)}
			} else {
				ops[i] = wireOp{arg: rng.Int63n(wireGroups)}
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		out[c] = ops
	}
	return out
}

// wireSeedRows generates the table: id, grp = id % wireGroups, a
// seeded v in [0, 1000) and a padding string.
func wireSeedRows(seed int64) []datum.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]datum.Row, wireRows)
	pad := make([]byte, 24)
	for i := range rows {
		for j := range pad {
			pad[j] = byte('a' + rng.Intn(26))
		}
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % wireGroups)), datum.Int(rng.Int63n(1000)), datum.String_(string(pad))}
	}
	return rows
}

type wireConn struct {
	conn      *sql.Conn
	upd, scan *sql.Stmt
}

type wireOLTP struct {
	seq     [][]wireOp
	seed    int64
	db      *dualtable.DB
	srv     *server.Server
	pool    *sql.DB
	conns   []wireConn
	seedSum int64
	// replayed counts the point updates the traced run applied in
	// process, on top of the sequence's.
	replayed int64
	// admission is the server's admission activity during the last
	// sequence.
	admission server.Stats
}

func newWireOLTP(seed int64, n int) instance {
	return &wireOLTP{seed: seed, seq: wireSequence(seed, n)}
}

// setup loads the table, starts an in-process server on
// loopback with its default admission settings, and opens and
// prepares the client connections. The DSN disables the driver's busy
// retry so a shed surfaces as a failed op instead of hidden backoff.
func (w *wireOLTP) setup() error {
	w.close()
	w.replayed = 0
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		return err
	}
	w.db = db
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, grp BIGINT, v BIGINT, pad STRING) STORED AS DUALTABLE", wireTable)); err != nil {
		return err
	}
	rows := wireSeedRows(w.seed)
	w.seedSum = 0
	for _, r := range rows {
		w.seedSum += r[2].I
	}
	// A bulk load leaves the attached table empty, the state COMPACT
	// leaves. Compacting it again would only add a superseded copy of
	// the master file that retention keeps, and space_amp would count it.
	if _, err := db.Engine.BulkLoad(wireTable, rows); err != nil {
		return err
	}
	w.srv = server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := w.srv.Start()
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	w.pool, err = sql.Open("dualtable", "dt://"+addr.String()+"?retries=0")
	if err != nil {
		return err
	}
	w.pool.SetMaxOpenConns(wireConns)
	ctx := context.Background()
	for c := 0; c < wireConns; c++ {
		conn, err := w.pool.Conn(ctx)
		if err != nil {
			return fmt.Errorf("connect: %w", err)
		}
		wc := wireConn{conn: conn}
		w.conns = append(w.conns, wc)
		if wc.upd, err = conn.PrepareContext(ctx, wireUpdateSQL); err != nil {
			return fmt.Errorf("prepare update: %w", err)
		}
		if wc.scan, err = conn.PrepareContext(ctx, wireScanSQL); err != nil {
			return fmt.Errorf("prepare scan: %w", err)
		}
		w.conns[c] = wc
	}
	return nil
}

func (w *wireOLTP) database() *dualtable.DB { return w.db }

func (w *wireOLTP) probeTables() []string { return []string{wireTable} }

// scanGroup runs one prepared group scan over the wire and returns its
// rows.
func (wc wireConn) scanGroup(ctx context.Context, grp int64) ([]datum.Row, error) {
	rows, err := wc.scan.QueryContext(ctx, grp)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []datum.Row
	for rows.Next() {
		var id, v int64
		if err := rows.Scan(&id, &v); err != nil {
			return nil, err
		}
		out = append(out, datum.Row{datum.Int(id), datum.Int(v)})
	}
	return out, rows.Err()
}

// runConn is one client's closed loop over its ops.
func (w *wireOLTP) runConn(tr *tracer, c int, out []opRecord) {
	ctx := context.Background()
	wc := w.conns[c]
	for i, op := range w.seq[c] {
		stmt := c*len(w.seq[c]) + i
		rec := opRecord{Kind: kindSelect}
		text, call := wireScanSQL, "driver.Query"
		if op.update {
			rec.Kind, text, call = kindUpdate, wireUpdateSQL, "driver.Exec"
		}
		root := tr.begin("op", 0, stmt)
		if tr != nil {
			sp := tr.begin("sqlparser.Parse", root, stmt)
			_, rec.Err = sqlparser.Parse(text)
			tr.end(sp)
		}
		start := time.Now()
		sp := tr.begin(call, root, stmt)
		if rec.Err == nil && op.update {
			var r sql.Result
			if r, rec.Err = wc.upd.ExecContext(ctx, op.arg); rec.Err == nil {
				rec.Affected, rec.Err = r.RowsAffected()
			}
		} else if rec.Err == nil {
			rec.Result, rec.Err = wc.scanGroup(ctx, op.arg)
			rec.Rows = int64(len(rec.Result))
		}
		tr.end(sp)
		rec.MS = sinceMS(start)
		tr.end(root)
		if rec.Err != nil {
			rec.MS = math.Inf(1)
		}
		out[i] = rec
	}
}

func (w *wireOLTP) run(tr *tracer) (*seqResult, error) {
	res := &seqResult{DFSBefore: w.db.FS.Metrics().TotalUsedBytes}
	before := w.srv.Stats()
	perConn := make([][]opRecord, wireConns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perConn {
		perConn[c] = make([]opRecord, len(w.seq[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.runConn(tr, c, perConn[c])
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	after := w.srv.Stats()
	w.admission = server.Stats{
		Admitted: after.Admitted - before.Admitted,
		Queued:   after.Queued - before.Queued,
		Shed:     after.Shed - before.Shed,
	}
	res.DFSAfter = w.db.FS.Metrics().TotalUsedBytes
	for _, ops := range perConn {
		res.Ops = append(res.Ops, ops...)
	}
	res.Captured = captureRows(res.Ops)
	for i := range res.Ops {
		res.Ops[i].Result = nil // the scans are checked by row count
	}
	return res, nil
}

// verify requires every scan to return its whole group, every acked
// update to change one row, and SUM(v) to equal the seed sum plus the
// acknowledged updates.
func (w *wireOLTP) verify(res *seqResult) error {
	var acked int64
	i := 0
	for c := range w.seq {
		for _, op := range w.seq[c] {
			rec := res.Ops[i]
			i++
			if rec.Err != nil {
				continue
			}
			if op.update {
				if rec.Affected != 1 {
					return fmt.Errorf("update of id %d affected %d rows, want 1", op.arg, rec.Affected)
				}
				acked++
			} else if rec.Rows != wireRows/wireGroups {
				return fmt.Errorf("scan of group %d returned %d rows, want %d", op.arg, rec.Rows, wireRows/wireGroups)
			}
		}
	}
	sess := w.db.Session()
	defer sess.Close()
	return checkWireSum(sess, w.seedSum, acked+w.replayed)
}

func (w *wireOLTP) close() {
	for _, wc := range w.conns {
		if wc.upd != nil {
			wc.upd.Close()
		}
		if wc.scan != nil {
			wc.scan.Close()
		}
		wc.conn.Close()
	}
	w.conns = nil
	if w.pool != nil {
		w.pool.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.db, w.pool, w.srv = nil, nil, nil
}

// probeLayers measures what only the serving path has: the driver and
// wire overhead of a read against the same read on an in-process
// Session, in alternating pairs on the same table state, and, traced,
// the in-process prepare and exec times of both statements.
func (w *wireOLTP) probeLayers(tr *tracer, m metricSet) error {
	ctx := context.Background()
	sess := w.db.Session()
	defer sess.Close()
	var wireMS, localMS []float64
	for i := 0; i < wirePairs; i++ {
		grp := int64(i % wireGroups)
		start := time.Now()
		if _, err := w.conns[0].scanGroup(ctx, grp); err != nil {
			return fmt.Errorf("paired wire read: %w", err)
		}
		wireMS = append(wireMS, sinceMS(start))
		start = time.Now()
		if _, err := execInProcess(sess, nil, 0, -1, wireScanSQL, grp); err != nil {
			return fmt.Errorf("paired in-process read: %w", err)
		}
		localMS = append(localMS, sinceMS(start))
	}
	rng := rand.New(rand.NewSource(w.seed))
	for i := 0; i < wireReplays; i++ {
		if _, err := execInProcess(sess, tr, 0, -1, wireScanSQL, int64(i%wireGroups)); err != nil {
			return fmt.Errorf("in-process read: %w", err)
		}
		if _, err := execInProcess(sess, tr, 0, -1, wireUpdateSQL, rng.Int63n(wireRows)); err != nil {
			return fmt.Errorf("in-process update: %w", err)
		}
		w.replayed++
	}
	m.set("driver.overhead_ms", median(wireMS)-median(localMS))
	if w.admission.Admitted > 0 {
		m.set("server.queued_share", float64(w.admission.Queued)/float64(w.admission.Admitted))
		m.set("server.shed_share", float64(w.admission.Shed)/float64(w.admission.Admitted))
	}
	return nil
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"dualtable"
	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

// TPC-H sizes: lineitem and orders keep the paper's 4:1 row ratio.
const (
	tpchLineitem = 60000
	tpchOrders   = 15000
	// tpchRangeWidth is how many order keys the selective range scan
	// covers (about 4 lineitem rows per order).
	tpchRangeWidth = 100
)

// The timed phase's query classes and their shares of the sequence.
// By latency QC and the range scan form one fast group (about 15-30
// ms on a 2-CPU box), then Q1 (about 100 ms) and Q12 (about 400 ms).
// With these shares p50 falls near the middle of the Q1 group
// (30-75%) and p90 inside Q12 (75-100%), away from any boundary
// between groups, where a small change in the mix would move them
// from one group to the next.
var tpchMix = []struct {
	class string
	share float64
}{
	{"qc", 0.12},
	{"range", 0.18},
	{"q1", 0.45},
	{"q12", 0.25},
}

// tpchQuery is one statement of the read sequence.
type tpchQuery struct {
	class  string
	sql    string
	lo, hi int64 // order-key range of a range scan
}

func rangeSQL(lo, hi int64) string {
	return fmt.Sprintf("SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey >= %d AND l_orderkey < %d", lo, hi)
}

// tpchSequence lays out n queries in the fixed proportions of tpchMix,
// in a seeded order.
func tpchSequence(seed int64, n int) []tpchQuery {
	rng := rand.New(rand.NewSource(seed))
	var qs []tpchQuery
	for i, m := range tpchMix {
		count := int(m.share*float64(n) + 0.5)
		if i == len(tpchMix)-1 {
			count = n - len(qs)
		}
		for j := 0; j < count; j++ {
			q := tpchQuery{class: m.class}
			switch m.class {
			case "qc":
				q.sql = workload.QueryC
			case "q1":
				q.sql = workload.QueryA
			case "q12":
				q.sql = workload.QueryB
			case "range":
				q.lo = 1 + rng.Int63n(tpchOrders-tpchRangeWidth)
				q.hi = q.lo + tpchRangeWidth
				q.sql = rangeSQL(q.lo, q.hi)
			}
			qs = append(qs, q)
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

type tpchRead struct {
	seed    int64
	qs      []tpchQuery
	db      *dualtable.DB
	sess    *dualtable.Session
	seedDML []opRecord
	ref     *tpchRef
}

func newTPCHRead(seed int64, n int) instance {
	return &tpchRead{seed: seed, qs: tpchSequence(seed, n)}
}

// setup loads lineitem and orders, then applies DML-a (5% update) and
// DML-b (2% delete) so every scan of the timed phase is a UNION READ.
func (t *tpchRead) setup() error {
	t.close()
	params := sim.TPCHCluster()
	params.DataScale = 180e6 / tpchLineitem // the paper's 0.18 billion lineitem rows
	db, err := dualtable.Open(dualtable.Config{Cluster: params})
	if err != nil {
		return err
	}
	cfg := workload.DefaultTPCHConfig()
	cfg.LineitemRows, cfg.OrdersRows, cfg.Seed = tpchLineitem, tpchOrders, t.seed
	if err := workload.SetupTPCH(db.Engine, cfg); err != nil {
		return fmt.Errorf("load TPC-H tables: %w", err)
	}
	t.db, t.sess = db, db.Session()
	t.seedDML = nil
	for i, sql := range []string{workload.DMLA, workload.DMLB} {
		op := runOp(t.sess, nil, -1-i, kindOf(sql), []string{sql})
		if op.Err != nil {
			return fmt.Errorf("seed DML: %w", op.Err)
		}
		t.seedDML = append(t.seedDML, op)
	}
	return nil
}

func (t *tpchRead) database() *dualtable.DB { return t.db }

func (t *tpchRead) probeTables() []string { return []string{"lineitem", "orders"} }

func (t *tpchRead) setupOps() []opRecord { return t.seedDML }

func (t *tpchRead) run(tr *tracer) (*seqResult, error) {
	res := &seqResult{DFSBefore: t.db.FS.Metrics().TotalUsedBytes}
	start := time.Now()
	for i, q := range t.qs {
		res.Ops = append(res.Ops, runOp(t.sess, tr, i, kindSelect, []string{q.sql}))
	}
	res.Wall = time.Since(start)
	res.DFSAfter = t.db.FS.Metrics().TotalUsedBytes
	res.Captured = captureRows(res.Ops)
	return res, nil
}

// verify checks every Q1, QC, Q12 and range-scan result against
// aggregates computed in plain Go from the generated rows, with the
// DML-a/DML-b predicates applied.
func (t *tpchRead) verify(res *seqResult) error {
	if t.ref == nil {
		ref := tpchReference(workload.GenLineitem(tpchLineitem, t.seed), workload.GenOrders(tpchOrders, t.seed))
		t.ref = &ref
	}
	for i, q := range t.qs {
		if res.Ops[i].Err != nil {
			continue // counted as failed, not as wrong
		}
		if err := t.ref.check(q, res.Ops[i].Result); err != nil {
			return fmt.Errorf("statement %d (%s): %w", i, q.class, err)
		}
	}
	return nil
}

func (t *tpchRead) close() {
	if t.sess != nil {
		t.sess.Close()
	}
	t.db, t.sess = nil, nil
}

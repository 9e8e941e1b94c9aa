package main

import (
	"context"
	"errors"
	"math"
	"strings"
	"time"

	"dualtable"
	"dualtable/internal/datum"
	"dualtable/internal/sqlparser"
)

// Statement kinds, as the end-to-end figures group them.
const (
	kindSelect  = "select"
	kindUpdate  = "update"
	kindDelete  = "delete"
	kindMerge   = "merge"
	kindCompact = "compact"
)

// isDML reports whether a kind counts toward dml_p50_ms.
func isDML(kind string) bool {
	return kind == kindUpdate || kind == kindDelete || kind == kindMerge
}

// kindOf classifies SQL text by its leading keyword.
func kindOf(sql string) string {
	f := strings.Fields(sql)
	if len(f) == 0 {
		return ""
	}
	return strings.ToLower(f[0])
}

// Failure classes. Busy covers admission-control sheds and drain
// rejections; timeout covers statement deadlines.
const (
	failBusy    = "busy"
	failTimeout = "timeout"
	failOther   = "other"
)

func classify(err error) string {
	switch {
	case errors.Is(err, dualtable.ErrServerBusy):
		return failBusy
	case errors.Is(err, dualtable.ErrStatementTimeout), errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	default:
		return failOther
	}
}

// opRecord is the outcome of one statement of the sequence.
type opRecord struct {
	Kind string
	// Plans lists ResultSet.Plan of each engine statement the op ran
	// (a MERGE runs two); empty over the wire, which does not expose it.
	Plans    []string
	MS       float64 // latency; +Inf when the op failed
	Rows     int64   // rows returned
	Affected int64   // rows affected
	Sim      float64 // simulated cluster seconds
	Err      error
	// Result holds the rows of the op's last statement.
	Result []datum.Row
}

// seqResult is one pass over a workload's statement sequence.
type seqResult struct {
	Ops  []opRecord
	Wall time.Duration
	// DFSBefore/DFSAfter are DFS bytes in use around the sequence.
	DFSBefore, DFSAfter int64
	// Captured holds a sample of result rows for the wire codec probe.
	Captured []datum.Row
}

// failures counts failed ops by class.
func (r *seqResult) failures() map[string]int {
	out := map[string]int{}
	for _, op := range r.Ops {
		if op.Err != nil {
			out[classify(op.Err)]++
		}
	}
	return out
}

// failedOps is the number of ops that returned an error.
func (r *seqResult) failedOps() int {
	n := 0
	for _, c := range r.failures() {
		n += c
	}
	return n
}

// latencies returns the latencies of the ops whose kind keep accepts.
func (r *seqResult) latencies(keep func(kind string) bool) []float64 {
	var out []float64
	for _, op := range r.Ops {
		if keep == nil || keep(op.Kind) {
			out = append(out, op.MS)
		}
	}
	return out
}

// fingerprint is what must repeat exactly for one seed: statements by
// plan, rows returned, rows affected and simulated seconds.
type fingerprint struct {
	Plans    map[string]int `json:"plans"`
	Rows     int64          `json:"rows"`
	Affected int64          `json:"affected"`
	SimS     float64        `json:"sim_s"`
}

func (r *seqResult) fingerprint() fingerprint {
	fp := fingerprint{Plans: map[string]int{}}
	for _, op := range r.Ops {
		if len(op.Plans) == 0 {
			fp.Plans[strings.ToUpper(op.Kind)]++
		}
		for _, p := range op.Plans {
			fp.Plans[p]++
		}
		fp.Rows += op.Rows
		fp.Affected += op.Affected
		fp.SimS += op.Sim
	}
	return fp
}

func (a fingerprint) equal(b fingerprint) bool {
	if a.Rows != b.Rows || a.Affected != b.Affected || a.SimS != b.SimS || len(a.Plans) != len(b.Plans) {
		return false
	}
	for k, v := range a.Plans {
		if b.Plans[k] != v {
			return false
		}
	}
	return true
}

// sinceMS is the elapsed time since t in milliseconds.
func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// execInProcess runs one SQL statement through Session.Prepare and
// Stmt.Exec, the in-process public path, under spans named for the
// layer each call enters. The traced run also times sqlparser.Parse
// on the text, a call the untraced run does not make.
func execInProcess(sess *dualtable.Session, tr *tracer, parent, stmt int, sql string, args ...any) (*dualtable.ResultSet, error) {
	if tr != nil {
		sp := tr.begin("sqlparser.Parse", parent, stmt)
		_, err := sqlparser.Parse(sql)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := tr.begin("hive.Prepare", parent, stmt)
	st, err := sess.Prepare(sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("hive.Exec."+kindOf(sql), parent, stmt)
	rs, err := st.Exec(args...)
	if rs != nil {
		tr.tag(sp, rs.Plan)
	}
	tr.end(sp)
	return rs, err
}

// runOp executes the SQL parts of one op in order and records it.
func runOp(sess *dualtable.Session, tr *tracer, stmt int, kind string, parts []string) opRecord {
	op := opRecord{Kind: kind}
	root := tr.begin("op", 0, stmt)
	start := time.Now()
	for _, sql := range parts {
		rs, err := execInProcess(sess, tr, root, stmt, sql)
		if err != nil {
			op.Err = err
			break
		}
		op.Plans = append(op.Plans, rs.Plan)
		op.Rows += int64(len(rs.Rows))
		op.Affected += rs.Affected
		op.Sim += rs.SimSeconds
		op.Result = rs.Rows
	}
	op.MS = sinceMS(start)
	tr.end(root)
	if op.Err != nil {
		op.MS = math.Inf(1)
	}
	return op
}

// captureLimit bounds the result rows kept for the wire codec probe.
const captureLimit = 4096

// captureRows keeps up to captureLimit of the ops' result rows.
func captureRows(ops []opRecord) []datum.Row {
	var out []datum.Row
	for _, op := range ops {
		for _, r := range op.Result {
			if len(out) == captureLimit {
				return out
			}
			out = append(out, r)
		}
	}
	return out
}

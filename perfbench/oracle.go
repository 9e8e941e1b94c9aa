package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"dualtable"
	"dualtable/internal/datum"
)

// The references below are computed by the benchmark itself, from the
// generated rows or from a second storage format, never taken from the
// result under test.

// floatTol is the relative tolerance for floating-point aggregates,
// whose summation order differs between the engine and the reference.
const floatTol = 1e-9

// Column positions in workload.GenLineitem / GenOrders rows.
const (
	liOrderKey, liPartKey, liQuantity, liPrice, liDiscount, liTax = 0, 1, 4, 5, 6, 7
	liReturnFlag, liLineStatus, liShipDate, liCommitDate          = 8, 9, 10, 11
	liReceiptDate, liShipMode                                     = 12, 14
	ordKey, ordPriority                                           = 0, 5
)

// tpchRef holds the expected results of the tpch_read queries.
type tpchRef struct {
	q1  []datum.Row
	qc  int64
	q12 []datum.Row
	// byOrder lists the surviving lineitem quantities per order key,
	// for range-scan references.
	byOrder map[int64][]float64
}

// tpchReference computes the expected results over the generated
// lineitem and orders rows after DML-a (which rewrites l_comment only,
// so no reference changes) and DML-b (delete l_partkey % 50 = 0).
func tpchReference(lineitem, orders []datum.Row) tpchRef {
	ref := tpchRef{byOrder: map[int64][]float64{}}
	type q1Acc struct {
		qty, price, disc, discPrice, charge float64
		n                                   int64
	}
	q1 := map[[2]string]*q1Acc{}
	prio := map[int64]string{}
	for _, o := range orders {
		prio[o[ordKey].I] = o[ordPriority].S
	}
	type q12Acc struct{ high, low int64 }
	q12 := map[string]*q12Acc{}
	for _, l := range lineitem {
		if l[liPartKey].I%50 == 0 {
			continue
		}
		ref.qc++
		ref.byOrder[l[liOrderKey].I] = append(ref.byOrder[l[liOrderKey].I], l[liQuantity].F)
		if l[liShipDate].S <= "1998-09-02" {
			k := [2]string{l[liReturnFlag].S, l[liLineStatus].S}
			a := q1[k]
			if a == nil {
				a = &q1Acc{}
				q1[k] = a
			}
			price, disc := l[liPrice].F, l[liDiscount].F
			a.qty += l[liQuantity].F
			a.price += price
			a.disc += disc
			a.discPrice += price * (1 - disc)
			a.charge += price * (1 - disc) * (1 + l[liTax].F)
			a.n++
		}
		mode := l[liShipMode].S
		p, joined := prio[l[liOrderKey].I]
		if joined && (mode == "MAIL" || mode == "SHIP") &&
			l[liCommitDate].S < l[liReceiptDate].S && l[liShipDate].S < l[liCommitDate].S &&
			l[liReceiptDate].S >= "1994-01-01" {
			a := q12[mode]
			if a == nil {
				a = &q12Acc{}
				q12[mode] = a
			}
			if p == "1-URGENT" || p == "2-HIGH" {
				a.high++
			} else {
				a.low++
			}
		}
	}
	var keys [][2]string
	for k := range q1 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		a := q1[k]
		n := float64(a.n)
		ref.q1 = append(ref.q1, datum.Row{
			datum.String_(k[0]), datum.String_(k[1]),
			datum.Float(a.qty), datum.Float(a.price), datum.Float(a.discPrice), datum.Float(a.charge),
			datum.Float(a.qty / n), datum.Float(a.price / n), datum.Float(a.disc / n), datum.Int(a.n),
		})
	}
	var modes []string
	for m := range q12 {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		ref.q12 = append(ref.q12, datum.Row{datum.String_(m), datum.Int(q12[m].high), datum.Int(q12[m].low)})
	}
	return ref
}

// check compares one query result with the reference.
func (ref tpchRef) check(q tpchQuery, got []datum.Row) error {
	switch q.class {
	case "q1":
		return equalRows(got, ref.q1)
	case "qc":
		return equalRows(got, []datum.Row{{datum.Int(ref.qc)}})
	case "q12":
		return equalRows(got, ref.q12)
	case "range":
		var n int64
		var sum float64
		for k := q.lo; k < q.hi; k++ {
			for _, qty := range ref.byOrder[k] {
				n++
				sum += qty
			}
		}
		var gotSum float64
		for _, r := range got {
			if r[0].I < q.lo || r[0].I >= q.hi {
				return fmt.Errorf("order key %d outside [%d, %d)", r[0].I, q.lo, q.hi)
			}
			gotSum += r[1].F
		}
		if int64(len(got)) != n || !closeEnough(gotSum, sum) {
			return fmt.Errorf("%d rows with quantity sum %v, want %d rows with sum %v", len(got), gotSum, n, sum)
		}
		return nil
	}
	return fmt.Errorf("unknown query class %q", q.class)
}

// equalRows compares row sets in order, numbers within floatTol.
func equalRows(got, want []datum.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !sameValue(got[i][j], w) {
				return fmt.Errorf("row %d column %d is %v, want %v", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

func sameValue(got, want datum.Datum) bool {
	if want.K == datum.KindString || got.K == datum.KindString {
		return got.K == want.K && got.S == want.S
	}
	g, ok1 := got.AsFloat()
	w, ok2 := want.AsFloat()
	return ok1 && ok2 && closeEnough(g, w)
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// tableDigest is a table's row count and an order-independent content
// checksum: the sum of a hash of every row.
type tableDigest struct {
	rows int64
	sum  uint64
}

// rowHash hashes a row's kinds and values.
func rowHash(r datum.Row) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, d := range r {
		b[0] = byte(d.K)
		var v uint64
		switch d.K {
		case datum.KindInt:
			v = uint64(d.I)
		case datum.KindFloat:
			v = math.Float64bits(d.F)
		case datum.KindBool:
			if d.B {
				v = 1
			}
		}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
		h.Write([]byte(d.S))
	}
	return h.Sum64()
}

// tableSum streams every row of table and digests it; it also requires
// SELECT COUNT(*) to agree with the streamed row count.
func tableSum(sess *dualtable.Session, table string) (tableDigest, error) {
	var d tableDigest
	rows, err := sess.Query("SELECT * FROM " + table)
	if err != nil {
		return d, fmt.Errorf("scan %s: %w", table, err)
	}
	for rows.Next() {
		d.rows++
		d.sum += rowHash(rows.Row())
	}
	err = rows.Err()
	rows.Close()
	if err != nil {
		return d, fmt.Errorf("scan %s: %w", table, err)
	}
	rs, err := sess.Exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return d, fmt.Errorf("count %s: %w", table, err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != d.rows {
		return d, fmt.Errorf("table %s: COUNT(*) = %v, but a full scan returned %d rows", table, rs.Rows, d.rows)
	}
	return d, nil
}

// checkWireSum requires SUM(v) over the wire table to equal the seed
// sum plus one per acknowledged increment: every acked update is
// visible, and nothing else changed v.
func checkWireSum(sess *dualtable.Session, seedSum, acked int64) error {
	rs, err := sess.Exec("SELECT SUM(v) FROM " + wireTable)
	if err != nil {
		return fmt.Errorf("sum: %w", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != seedSum+acked {
		return fmt.Errorf("SUM(v) = %v, want seed sum %d + %d acknowledged updates = %d", rs.Rows, seedSum, acked, seedSum+acked)
	}
	return nil
}

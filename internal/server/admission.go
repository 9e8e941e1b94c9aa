package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualtable"
)

// gate is one tenant's admission controller: a semaphore capping
// concurrently executing statements plus a bounded wait queue with a
// deadline. Excess load is shed with dualtable.ErrServerBusy —
// backpressure, not collapse: a queued statement runs as soon as a
// slot frees, a shed statement fails fast and cheap.
type gate struct {
	sem     chan struct{}
	depth   int64
	maxWait time.Duration

	waiting atomic.Int64

	// maxBytes caps the tenant's total in-flight result memory —
	// encoded response frames reserved (reserveBytes) while they are
	// built and written. Zero disables the cap.
	maxBytes int64
	bytes    atomic.Int64

	// Stats.
	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
}

func newGate(capacity, depth int, maxWait time.Duration, maxBytes int64) *gate {
	if capacity < 1 {
		capacity = 1
	}
	if depth < 0 {
		depth = 0
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Second
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &gate{sem: make(chan struct{}, capacity), depth: int64(depth), maxWait: maxWait, maxBytes: maxBytes}
}

// acquire claims an execution slot. Fast path: a free slot admits
// immediately. Slow path: join the wait queue if it has room and wait
// until a slot frees, the queue deadline passes (shed), or ctx is
// canceled. The caller must release() after the statement finishes
// iff acquire returned nil.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		return nil
	default:
	}
	if g.waiting.Add(1) > g.depth {
		g.waiting.Add(-1)
		g.shed.Add(1)
		return fmt.Errorf("%w: %d executing, queue of %d full",
			dualtable.ErrServerBusy, cap(g.sem), g.depth)
	}
	defer g.waiting.Add(-1)
	g.queued.Add(1)
	t := time.NewTimer(g.maxWait)
	defer t.Stop()
	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		return nil
	case <-t.C:
		g.shed.Add(1)
		return fmt.Errorf("%w: queued longer than %s", dualtable.ErrServerBusy, g.maxWait)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the slot claimed by a successful acquire.
func (g *gate) release() { <-g.sem }

// releaser returns an idempotent release for a slot claimed by a
// successful acquire: call it once the statement stops executing,
// before its terminal frame goes out, and defer it for the early
// returns and panics in between.
func (g *gate) releaser() func() {
	held := true
	return func() {
		if held {
			held = false
			g.release()
		}
	}
}

// reserveBytes claims n bytes of the tenant's in-flight result-memory
// budget, failing with the typed quota error when the cap would be
// exceeded. The caller must releaseBytes(n) iff reserve returned nil.
func (g *gate) reserveBytes(n int64) error {
	if g.maxBytes <= 0 || n <= 0 {
		return nil
	}
	if g.bytes.Add(n) > g.maxBytes {
		g.bytes.Add(-n)
		return fmt.Errorf("%w: tenant in-flight result memory cap %d bytes reached",
			dualtable.ErrQuotaExceeded, g.maxBytes)
	}
	return nil
}

// releaseBytes returns a reservation made by reserveBytes.
func (g *gate) releaseBytes(n int64) {
	if g.maxBytes > 0 && n > 0 {
		g.bytes.Add(-n)
	}
}

// gates hands out one gate per tenant, created on demand with the
// server's configured limits.
type gates struct {
	mu       sync.Mutex
	m        map[string]*gate
	cap      int
	depth    int
	maxWait  time.Duration
	maxBytes int64
}

func newGates(capacity, depth int, maxWait time.Duration, maxBytes int64) *gates {
	return &gates{m: map[string]*gate{}, cap: capacity, depth: depth, maxWait: maxWait, maxBytes: maxBytes}
}

func (gs *gates) forTenant(tenant string) *gate {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	g, ok := gs.m[tenant]
	if !ok {
		g = newGate(gs.cap, gs.depth, gs.maxWait, gs.maxBytes)
		gs.m[tenant] = g
	}
	return g
}

// snapshot sums admission stats across tenants.
func (gs *gates) snapshot() (admitted, queued, shed int64) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for _, g := range gs.m {
		admitted += g.admitted.Load()
		queued += g.queued.Load()
		shed += g.shed.Load()
	}
	return
}

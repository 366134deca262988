// Distributed shard records: the record-and-replay seam of parallel.go
// lifted across process boundaries.
//
// Workers in a cluster run the recording pass over their key range and
// ship the KeyRecords — the "digest" of everything their shard
// contributes to the global polygraph: read-dependency edges,
// writer-chain known edges, undecided either/or constraints, and the
// chosen sides of the constraints timestamps pre-decided, all
// referencing global node ids. The coordinator replays every shard's
// records in ascending key order through the same replay Build and
// Incremental use, so the merged polygraph — and therefore the verdict
// and any violation evidence — is byte-identical to a single-node Build
// over the full history for any shard count and any assignment of keys
// to shards.
//
// Two streaming seams let the cluster overlap this work with the
// network: BuildShardRecordsOrdered emits each key's record as soon as
// it is complete (in key order, while later keys are still recording),
// and ShardMerger accepts records in any arrival order, replaying the
// read-dependency pass incrementally behind a contiguous-key frontier.
// The constraint-pass replay is order-sensitive across keys (duplicate
// suppression against the evolving known set), so it runs at Finish,
// after every record has arrived.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"viper/internal/history"
)

// BuildShardRecordsOrdered runs the per-key recording pass over keys
// (ascending, a subset of h.Keys()) and hands each key's record to emit
// in key-index order, calling emit for key i as soon as every key ≤ i has
// been recorded — while the pool is still recording later keys. This is
// the streaming seam the cluster worker uses to put early records on the
// wire before the shard finishes. emit is called from the calling
// goroutine only. An emit error aborts the remaining work and is
// returned. opts.Parallelism bounds the local worker pool; the records
// are identical for any worker count. The pre-decision gate is evaluated
// on h: a worker recording a key slice must be handed options whose
// DisableTSFastPath carries the full history's gate (PreDecides).
func BuildShardRecordsOrdered(h *history.History, opts Options, keys []history.Key, emit func(i int, rec *KeyRecord) error) error {
	_, _, err := indexHistory(h).record(recorder(h, opts), opts, keys, emit)
	return err
}

// BuildShardRecords is BuildShardRecordsOrdered collected into a slice,
// in the given key order.
func BuildShardRecords(h *history.History, opts Options, keys []history.Key) []*KeyRecord {
	recs, _, _ := indexHistory(h).collect(recorder(h, opts), opts, keys)
	return recs
}

// ShardMerger replays shard records into a polygraph incrementally, in
// whatever order they arrive. It maintains a contiguous-key frontier:
// when records 0..i are all present, their read-dependency edges have
// been replayed (that pass is key-ordered but independent of later
// keys). The constraint-pass replay consults the evolving known set and
// must see every WR edge of every key first, so it runs in Finish once
// all records are in. Add is safe for concurrent use and idempotent:
// a duplicate record for a key it already holds is ignored, which makes
// retried dispatches (where the first attempt died mid-stream after
// some records were applied) safe — the recording pass is deterministic,
// so any complete copy of a key's record is identical.
type ShardMerger struct {
	h    *history.History
	opts Options

	mu       sync.Mutex
	pg       *Polygraph
	recs     []*KeyRecord // nil: not yet added
	frontier int
	replay   time.Duration
	finished bool
}

// NewShardMerger prepares the global polygraph skeleton and an empty
// record table over h.Keys().
func NewShardMerger(h *history.History, opts Options) *ShardMerger {
	return &ShardMerger{
		h:    h,
		opts: opts,
		pg:   newPolygraph(h, opts.Level, 0),
		recs: make([]*KeyRecord, len(h.Keys())),
	}
}

// Add accepts the record for key index i of h.Keys() and advances the
// read-dependency replay frontier over any newly contiguous prefix.
// Records already held are ignored (see the type comment). Records
// arrive from the network, so Add refuses one filed under the wrong key
// or naming a node outside the history's polygraph.
func (m *ShardMerger) Add(i int, rec *KeyRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := m.h.Keys()
	if i < 0 || i >= len(keys) {
		return fmt.Errorf("shard merge: record index %d out of range (history has %d keys)", i, len(keys))
	}
	if rec.Key != keys[i] {
		return fmt.Errorf("shard merge: record %d is key %q, want %q (records must cover h.Keys() in order)", i, rec.Key, keys[i])
	}
	if m.finished {
		return fmt.Errorf("shard merge: Add after Finish")
	}
	if m.recs[i] != nil {
		return nil
	}
	if err := m.checkNodes(rec); err != nil {
		return fmt.Errorf("shard merge: record for key %q: %v", rec.Key, err)
	}
	start := time.Now()
	m.recs[i] = rec
	for m.frontier < len(keys) && m.recs[m.frontier] != nil {
		m.pg.replayWR(m.recs[m.frontier])
		m.frontier++
	}
	m.replay += time.Since(start)
	return nil
}

// checkNodes verifies every node id in rec lies in [0, NumNodes).
func (m *ShardMerger) checkNodes(rec *KeyRecord) error {
	n := m.pg.NumNodes
	check := func(es ...Edge) error {
		for _, e := range es {
			if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
				return fmt.Errorf("edge %d→%d outside the polygraph's %d nodes", e.From, e.To, n)
			}
		}
		return nil
	}
	if err := check(rec.WR...); err != nil {
		return err
	}
	if err := check(rec.Chosen...); err != nil {
		return err
	}
	for j := range rec.Ops {
		op := &rec.Ops[j]
		var err error
		if !op.Cons {
			err = check(op.Edge)
		} else if err = check(op.First...); err == nil {
			err = check(op.Second...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Missing reports how many keys still have no record.
func (m *ShardMerger) Missing() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs) - m.frontier
}

// Records returns the held records for key indices [lo, hi). Only valid
// once every key in the range has been added; the caller must not
// mutate the result.
func (m *ShardMerger) Records(lo, hi int) []*KeyRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs[lo:hi]
}

// ReplayNS is the cumulative time spent replaying records (Add frontier
// advances plus Finish's constraint pass).
func (m *ShardMerger) ReplayNS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.replay)
}

// Finish verifies coverage, replays every key's constraint-pass
// emissions in key order, and completes the polygraph (session and
// real-time edges). The result is byte-identical to Build(h, opts).
func (m *ShardMerger) Finish() (*Polygraph, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return nil, fmt.Errorf("shard merge: Finish called twice")
	}
	keys := m.h.Keys()
	if m.frontier != len(keys) {
		return nil, fmt.Errorf("shard merge: no record for key %q (index %d)", keys[m.frontier], m.frontier)
	}
	m.finished = true
	start := time.Now()
	rec := func(i int) *KeyRecord { return m.recs[i] }
	m.pg.replayOps(len(keys), rec)
	m.pg.addVariantEdges(m.opts)
	m.pg.setFull(m.opts, func() *readIndex { return indexHistory(m.h) }, rec)
	m.replay += time.Since(start)
	return m.pg, nil
}

// CheckMergedContext finishes an incremental merge and checks the
// result: the same polynomial-level dispatch and G1b screen as
// CheckHistoryContext, with replay time attributed to the construct
// phase. The merger must hold a record for every key of its history.
func CheckMergedContext(ctx context.Context, m *ShardMerger) (*Report, error) {
	if m.opts.Level.Polynomial() {
		return checkPolynomial(m.h, m.opts), nil
	}
	if ev := findG1b(m.h, 1); ev != nil {
		return &Report{
			Level:   m.opts.Level,
			Outcome: Reject,
			Anomaly: ev.String(),
			Nodes:   int(m.pg.NumNodes),
		}, nil
	}
	pg, err := m.Finish()
	if err != nil {
		return nil, err
	}
	replay := time.Duration(m.ReplayNS())
	rep := CheckPolygraphContext(ctx, pg, m.opts)
	rep.Phases.Construct += replay
	rep.Phases.ConstructCPU += replay
	return rep, nil
}

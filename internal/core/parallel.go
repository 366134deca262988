// BC-polygraph construction: the one path every polygraph is built along,
// whether by Build, by a CheckHistory or session audit (Incremental), or
// by cluster workers and their coordinator (shard.go).
//
// Constraint generation is O(n²) in the worst case (pairwise writer-chain
// constraints per key) but independent across keys. Construction therefore
// splits into an index, a per-key recording pass and a replay, with one
// copy of each piece:
//
//   - The index (readIndex, polygraph.go): key → writer → readers and
//     key → writers, in transaction order. A session extends it at every
//     audit; update reports the keys whose records are stale.
//   - The skeleton (newPolygraph, polygraph.go): node layout, wall-clock
//     hints, and intra-transaction edges.
//   - The recording pass (readIndex.record → recordKey → KeyRecord) on the
//     pool (runPool): workers claim keys from an atomic cursor (per-key
//     costs vary wildly) and write their records into a slice indexed by
//     position, so the schedule cannot influence the result. When the
//     timestamp pre-decision gate is open (recorder, tsorder.go), the
//     constraints the clocks decide are counted, not recorded.
//   - The replay (replay, replayWR, replayOps): the per-key records fold
//     into the polygraph in one fixed order — all read-dependency edges in
//     ascending key order, then each key's constraint-pass emissions in
//     ascending key order. The knownSet-dependent steps (duplicate-edge
//     suppression and dropping constraint-side edges that are already
//     certain) happen only here, against the evolving known set. Build,
//     Incremental.AuditContext and the cluster coordinator's ShardMerger
//     all replay through it, so a polygraph is byte-identical for any
//     worker count, any session batching and any assignment of keys to
//     shards.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/history"
)

// KeyOp is one recorded emission of the per-key constraint pass.
type KeyOp struct {
	Cons bool // false: known-edge add; true: constraint

	// Known-edge add (classify already applied; edgeNormal only).
	Edge Edge
	Kind EdgeKind // also the first side's kind for constraints

	// Constraint: sides resolved through classify, with knownSet
	// filtering deferred to the replay. FBad/SBad mark sides containing
	// an impossible edge.
	First, Second []Edge
	FBad, SBad    bool
	Kind2         EdgeKind
}

// KeyRecord is everything one key contributes to the polygraph. Node ids
// are global — derived from transaction ids alone — so records computed
// over disjoint key sets (by different pool workers, or by different
// cluster nodes) compose.
//
// Decided counts the constraints the recording pass pre-decided by
// timestamp (tsorder.go) instead of recording them as Ops; Chosen holds
// the edges of their chosen sides, back to back. Both stay zero when the
// pre-decision gate is closed.
type KeyRecord struct {
	Key     history.Key
	WR      []Edge  // read-dependency edges, in emission order
	Ops     []KeyOp // constraint-pass emissions, in emission order
	Decided int
	Chosen  []Edge
}

// knownEdges counts the known edges r adds on replay, duplicates
// included: its read dependencies and its known-edge ops. Constraints
// add known edges only when a side is impossible, which is rare, so the
// count leaves them out and sizes the known graph to what replay
// almost always needs.
func (r *KeyRecord) knownEdges() int {
	n := len(r.WR)
	for i := range r.Ops {
		if !r.Ops[i].Cons {
			n++
		}
	}
	return n
}

// recordKnown records a certain event-level edge, elided when classify
// resolves it as trivially true or impossible.
func (pg *Polygraph) recordKnown(rec *KeyRecord, fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool, kind EdgeKind) {
	if e, cls := pg.classify(fromT, fromCommit, toT, toCommit); cls == edgeNormal {
		rec.Ops = append(rec.Ops, KeyOp{Edge: e, Kind: kind})
	}
}

// recordConstraint records an either/or constraint over sides already
// resolved through classify (trivially true edges elided; fBad/sBad mark
// a side with an impossible edge). The sides may alias scratch buffers:
// a recorded constraint copies them. When pre-decision is on and
// exactly one side is timestamp-settled, with neither side bad or empty,
// the constraint is not recorded: its chosen side joins rec.Chosen.
func (pg *Polygraph) recordConstraint(rec *KeyRecord, f, s []Edge, fBad, sBad bool, kind1, kind2 EdgeKind) {
	if pg.preDecide && !fBad && !sBad && len(f) > 0 && len(s) > 0 {
		if fs := pg.settled(f, pg.drift); fs != pg.settled(s, pg.drift) {
			if !fs {
				f = s
			}
			rec.Chosen = append(rec.Chosen, f...)
			rec.Decided++
			return
		}
	}
	clone := func(side []Edge, bad bool) []Edge {
		if bad || len(side) == 0 {
			return nil
		}
		return append([]Edge(nil), side...)
	}
	rec.Ops = append(rec.Ops, KeyOp{
		Cons: true, First: clone(f, fBad), Second: clone(s, sBad), FBad: fBad, SBad: sBad,
		Kind: kind1, Kind2: kind2,
	})
}

// recordKey runs the per-key recording pass for one key: its
// read-dependency edges (commit of writer → begin of reader, by ascending
// writer; reads of genesis need none), then its constraint-pass
// emissions. pg is only consulted for the node mapping, so one pg serves
// every worker.
func (pg *Polygraph) recordKey(key history.Key, writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine, coalesce bool) *KeyRecord {
	rec := &KeyRecord{Key: key}
	for _, w := range sortedTxns(byWriter) {
		if w == history.GenesisID {
			continue
		}
		for _, r := range byWriter[w] {
			if e, cls := pg.classify(w, true, r, false); cls == edgeNormal {
				rec.WR = append(rec.WR, e)
			}
		}
	}
	pg.buildKeyConstraints(rec, writers, byWriter, combine, coalesce)
	return rec
}

// record runs the recording pass over keys (ascending, each written) on
// the pool and hands each key's record to emit in key order as soon as
// every earlier key is recorded (see runPool); a record is dropped once
// emitted. lite is the recording polygraph (recorder), shared by every
// worker. It returns the pass's wall and summed busy time, and the first
// emit error.
func (ix *readIndex) record(lite *Polygraph, opts Options, keys []history.Key, emit func(i int, rec *KeyRecord) error) (wall, cpu time.Duration, err error) {
	if len(keys) == 0 {
		return 0, 0, nil
	}
	combine, coalesce := !opts.DisableCombineWrites, !opts.DisableCoalesce
	recs := make([]*KeyRecord, len(keys))
	return runPool(opts.workers(), len(keys), func(i int) {
		key := keys[i]
		recs[i] = lite.recordKey(key, ix.writers[key], ix.readers[key], combine, coalesce)
	}, func(i int) error {
		rec := recs[i]
		recs[i] = nil // release as we go: a cluster shard may be large
		return emit(i, rec)
	})
}

// collect is record gathering the records into a slice, in key order.
func (ix *readIndex) collect(lite *Polygraph, opts Options, keys []history.Key) (recs []*KeyRecord, wall, cpu time.Duration) {
	recs = make([]*KeyRecord, len(keys))
	// The emit callback never errors, so recording cannot either.
	wall, cpu, _ = ix.record(lite, opts, keys, func(i int, rec *KeyRecord) error {
		recs[i] = rec
		return nil
	})
	return recs, wall, cpu
}

// replay folds the records of n keys, in ascending key order, into pg:
// every key's read-dependency edges first, then every key's
// constraint-pass emissions. rec(i) is the i-th key's record, or nil when
// the key contributes nothing.
func (pg *Polygraph) replay(n int, rec func(i int) *KeyRecord) {
	for i := 0; i < n; i++ {
		if r := rec(i); r != nil {
			pg.replayWR(r)
		}
	}
	pg.replayOps(n, rec)
}

// fullPolygraph rebuilds the polygraph of ix.h with every constraint
// materialised: each key whose record pre-decided a constraint (rec(i),
// as for replay) is recorded again with pre-decision off, the other
// records are reused, and the lot is assembled. It returns the
// re-recording's wall and summed busy time.
func fullPolygraph(ix *readIndex, opts Options, rec func(i int) *KeyRecord) (pg *Polygraph, wall, cpu time.Duration) {
	keys := ix.h.Keys()
	var redo []int
	for i := range keys {
		if r := rec(i); r != nil && r.Decided > 0 {
			redo = append(redo, i)
		}
	}
	redoKeys := make([]history.Key, len(redo))
	for j, i := range redo {
		redoKeys[j] = keys[i]
	}
	off := opts
	off.DisableTSFastPath = true
	recs, wall, cpu := ix.collect(recorder(ix.h, off), off, redoKeys)
	fresh := make([]*KeyRecord, len(keys))
	for j, i := range redo {
		fresh[i] = recs[j]
	}
	pg = assemble(ix.h, opts, nil, func(i int) *KeyRecord {
		if fresh[i] != nil {
			return fresh[i]
		}
		return rec(i)
	})
	return pg, wall, cpu
}

// replayWR is replay's first pass for one key. It depends on no later
// key, so ShardMerger runs it as records arrive.
func (pg *Polygraph) replayWR(r *KeyRecord) {
	for _, e := range r.WR {
		pg.addKnown(e, EdgeWR, r.Key)
	}
}

// replayOps is replay's second pass; it consults the known set, so it
// must see every key's read-dependency edges first. Pre-decided
// constraints are only counted, and their chosen edges referenced in
// place: the check reads them straight from the records' arenas.
func (pg *Polygraph) replayOps(n int, rec func(i int) *KeyRecord) {
	for i := 0; i < n; i++ {
		if r := rec(i); r != nil {
			for j := range r.Ops {
				pg.applyOp(&r.Ops[j], r.Key)
			}
			pg.preDecided += r.Decided
			if len(r.Chosen) > 0 {
				pg.chosen = append(pg.chosen, r.Chosen)
			}
		}
	}
}

// applyOp replays one recorded emission against the live polygraph,
// performing the knownSet-dependent steps the workers deferred: a side
// with an impossible edge forces the other side into the known graph, and
// a side left empty once certain edges are dropped makes the constraint
// vacuous.
func (pg *Polygraph) applyOp(op *KeyOp, key history.Key) {
	if !op.Cons {
		pg.addKnown(op.Edge, op.Kind, key)
		return
	}
	switch {
	case op.FBad && op.SBad:
		pg.Contradiction = true
	case op.FBad:
		for _, e := range op.Second {
			pg.addKnown(e, op.Kind2, key)
		}
	case op.SBad:
		for _, e := range op.First {
			pg.addKnown(e, op.Kind, key)
		}
	default:
		// Filter without mutating the record: a session replays the same
		// ops across audits (and a prior audit's portfolio losers may still
		// be reading constraint sides that alias them), so in-place
		// compaction would corrupt shared state. The no-known-edge common
		// case stays allocation-free by aliasing the record's slice.
		filter := func(side []Edge) []Edge {
			for i, e := range side {
				if pg.knownSet.has(e) {
					kept := make([]Edge, i, len(side)-1)
					copy(kept, side[:i])
					for _, rest := range side[i+1:] {
						if !pg.knownSet.has(rest) {
							kept = append(kept, rest)
						}
					}
					return kept
				}
			}
			return side
		}
		f, s := filter(op.First), filter(op.Second)
		if len(f) == 0 || len(s) == 0 {
			// One side holds trivially: the constraint imposes nothing.
			return
		}
		pg.Cons = append(pg.Cons, Constraint{First: f, Second: s, Kind1: op.Kind, Kind2: op.Kind2, Key: key})
	}
}

// runPool is the work-stealing pool the recording pass runs on: up to
// workers goroutines claim indices [0, n) from an atomic cursor and run
// fn on each. emit is called from the calling goroutine for each index in
// ascending order as soon as fn has finished every index up to it — while
// later indices still run — and an emit error stops the pool and is
// returned. wall is the pass's elapsed time, cpu the summed per-worker
// busy time.
func runPool(workers, n int, fn func(i int), emit func(i int) error) (wall, cpu time.Duration, err error) {
	workers = max(1, min(workers, n))
	start := time.Now()
	var (
		cursor, busy atomic.Int64
		abort        atomic.Bool
		wg           sync.WaitGroup
		done         = make([]atomic.Bool, n)
		ready        = make(chan struct{}, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for !abort.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				fn(i)
				done[i].Store(true)
				ready <- struct{}{}
			}
			busy.Add(int64(time.Since(t0)))
		}()
	}
	for next := 0; next < n && err == nil; {
		if !done[next].Load() {
			<-ready
			continue
		}
		if err = emit(next); err != nil {
			abort.Store(true)
		}
		next++
	}
	wg.Wait()
	return time.Since(start), time.Duration(busy.Load()), err
}

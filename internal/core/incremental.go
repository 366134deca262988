// Online incremental checking: a long-lived session that extends its
// BC-polygraph construction state as transactions arrive, instead of
// rebuilding the polygraph from genesis at every audit.
//
// The readers index, the per-key writer lists, and the per-key emission
// records (known edges and constraints, in the serial build's order)
// persist across audits. An appended batch only dirties the keys it writes
// or reads; clean keys keep their records verbatim, so the
// O(chains²)-per-key constraint pass — the dominant construction cost —
// reruns only where the history actually changed. Each audit then replays
// the records into a Polygraph (byte-identical to Build on the same
// history) and runs the one batch check, CheckPolygraphContext, on it: a
// session report equals CheckHistory's report on the same live history.
//
// Rejection is cached: SI (and the other checked levels) are closed under
// history prefixes, so once a validated prefix is rejected every extension
// is rejected too, and the session returns the rejecting report from then
// on. (Validation itself is NOT monotone — a read of a not-yet-appended
// write is a validation error on the prefix and legal on the extension —
// which is why callers re-validate the full history before every audit.)
package core

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"viper/internal/history"
	"viper/internal/obs"
)

// rangeObs remembers a committed range query so that keys first written
// after the query was indexed can retroactively contribute the genesis
// observations the batch build derives: a range query silent about a
// written key inside its bounds read that key's initial version.
type rangeObs struct {
	reader   history.TxnID
	lo, hi   history.Key
	returned map[history.Key]bool
}

// Incremental is a long-lived checking session over a growing history.
// Append transactions (Append / the owned History), then Audit; each audit
// reuses the construction records of the previous ones. The session is not
// safe for concurrent use.
//
// Audit requires the full history to be validated first; the public
// viper.Checker wrapper does this on every audit. Every report describes
// that audit alone and equals the batch report on the same history.
type Incremental struct {
	opts Options
	h    *history.History

	// Persistent construction state.
	indexed   int // h.Txns high-water mark already folded into the indexes
	g1bHigh   int // h.Txns high-water mark already screened for G1b reads
	readers   map[history.Key]map[history.TxnID][]history.TxnID
	writers   map[history.Key][]history.TxnID
	knownKeys map[history.Key]bool
	ranges    []rangeObs
	dirty     map[history.Key]bool
	records   map[history.Key]*KeyRecord

	rejected *Report // cached graph rejection (levels are prefix-closed)
	audits   int

	// liveOps counts operations in the live window (Append adds, Checkpoint
	// subtracts); lastAccept is the most recent audit's accepting report,
	// nil after any non-accept, append, or checkpoint — Checkpoint requires
	// it, since the certificate freezes its witness order.
	liveOps    int64
	lastAccept *Report

	// lastSnap is the most recently published progress snapshot. It is the
	// one piece of session state other goroutines may read (Progress): an
	// immutable value behind an atomic pointer, so a reader never shares
	// mutable state with a running audit.
	lastSnap atomic.Pointer[obs.Snapshot]
}

// NewIncremental returns an empty checking session. The zero history
// contains only genesis; use Append (or write to History()) to grow it.
func NewIncremental(opts Options) *Incremental {
	return &Incremental{
		opts:      opts,
		h:         history.New(),
		indexed:   1,
		g1bHigh:   1,
		readers:   make(map[history.Key]map[history.TxnID][]history.TxnID),
		writers:   make(map[history.Key][]history.TxnID),
		knownKeys: make(map[history.Key]bool),
		dirty:     make(map[history.Key]bool),
		records:   make(map[history.Key]*KeyRecord),
	}
}

// Progress returns the most recently published progress snapshot: the
// final counters of the last audit, or — while an audit with a Progress
// callback runs — the latest sampling tick. Unlike the rest of the
// session, Progress is safe to call from any goroutine at any time. Before
// the first audit it returns a zero snapshot with Phase "idle".
func (inc *Incremental) Progress() obs.Snapshot {
	if p := inc.lastSnap.Load(); p != nil {
		return *p
	}
	return obs.Snapshot{Phase: "idle"}
}

// publish stamps the session coordinates onto a snapshot, stores it for
// Progress readers, and forwards it to the configured callback. Heap usage
// is only measured when a callback is configured (ReadMemStats briefly
// stops the world; a bare boundary store should stay cheap).
func (inc *Incremental) publish(snap obs.Snapshot) {
	snap.Audit = inc.audits
	snap.Txns = inc.h.Len()
	if inc.opts.Progress != nil && snap.HeapInUse == 0 {
		snap.HeapInUse = obs.HeapInUse()
	}
	inc.lastSnap.Store(&snap)
	if inc.opts.Progress != nil {
		inc.opts.Progress(snap)
	}
}

// stampGauges writes the session memory gauges onto a report: live-window
// history footprint and the checkpoint certificate's coordinates. Called at
// the end of every audit so reports and progress snapshots prove (or
// disprove) that checkpointing bounds the session. ClosureBytes stays zero:
// no resolution closure outlives the audit that built it.
func (inc *Incremental) stampGauges(rep *Report) {
	rep.LiveTxns = inc.h.Len()
	rep.HistoryBytes = inc.h.EstimateBytes()
	if f := inc.h.Fence(); f != nil {
		rep.Checkpoints = f.Checkpoints
		rep.FencedTxns = f.Txns
		rep.CertBytes = f.Bytes()
		rep.TxnIDBase = f.Base
	} else {
		rep.Checkpoints, rep.FencedTxns, rep.CertBytes, rep.TxnIDBase = 0, 0, 0, 0
	}
}

// obsOpts returns the session options with the Progress callback wrapped
// to stamp session coordinates and keep lastSnap current — AuditContext
// hands these to CheckPolygraph, whose sampler knows nothing about audits.
func (inc *Incremental) obsOpts() Options {
	o := inc.opts
	if user := o.Progress; user != nil {
		audit, txns := inc.audits, inc.h.Len()
		o.Progress = func(s obs.Snapshot) {
			s.Audit, s.Txns = audit, txns
			inc.lastSnap.Store(&s)
			user(s)
		}
	}
	return o
}

// History returns the session's owned history.
func (inc *Incremental) History() *history.History { return inc.h }

// Append adds a transaction to the session's history, assigning its id.
func (inc *Incremental) Append(t *history.Txn) history.TxnID {
	inc.liveOps += int64(len(t.Ops))
	inc.lastAccept = nil
	return inc.h.Append(t)
}

// Len returns the number of appended transactions (genesis excluded; the
// live window only, after checkpoints).
func (inc *Incremental) Len() int { return inc.h.Len() }

// LiveOps returns the operation count of the live window — what a
// bounded-session quota should meter, since checkpoints reclaim it.
func (inc *Incremental) LiveOps() int64 { return inc.liveOps }

// ser reports whether the session uses the transaction-level mapping.
func (inc *Incremental) ser() bool { return inc.opts.Level == Serializability }

// numNodes is the current event-node count (before auxiliary nodes).
func (inc *Incremental) numNodes() int32 {
	if inc.ser() {
		return int32(len(inc.h.Txns))
	}
	return int32(len(inc.h.Txns)) * 2
}

// Audit checks the full current history, reusing the construction records
// of prior audits. The history must have been validated (history.Validate)
// since the last append. The report equals CheckHistory's on an identical
// history.
func (inc *Incremental) Audit() *Report { return inc.AuditContext(context.Background()) }

// AuditContext is Audit under a cancellation context: ctx's deadline
// bounds the audit like Options.Timeout (whichever expires first), and
// canceling ctx interrupts a running solve — the audit then returns
// Outcome Timeout promptly instead of running to completion. A canceled
// audit leaves the session consistent: the construction state keeps the
// delta it absorbed (records describe the history, not any solve), and a
// later audit simply runs the check again.
func (inc *Incremental) AuditContext(ctx context.Context) *Report {
	if inc.opts.Level.Polynomial() {
		return checkPolynomial(inc.h, inc.opts)
	}
	auditReg := inc.opts.Tracer.Start("audit")
	auditReg.SetAttr("audit", int64(inc.audits))
	auditReg.SetAttr("txns", int64(inc.h.Len()))
	defer auditReg.End()

	constructStart := time.Now()
	inc.publish(obs.Snapshot{Phase: "construct"})
	conReg := inc.opts.Tracer.Start("construct")
	inc.update()
	regenWall, regenCPU, workers := inc.regen()

	// G1b screen (ra.go): an intermediate read can never replay under any
	// event schedule (commits install last-write-per-key, so VerifyWitness
	// would fail the accept), and the polygraph conflates a transaction's
	// writes of a key into its final version — without this screen the
	// solver could accept what PL-2 rejects, breaking the isolation
	// lattice's RC ⊂ AdyaSI monotonicity. A read's named writer is
	// immutable once appended, so only new transactions are scanned, and a
	// hit is cached like any other rejection (G1b is prefix-monotone).
	if inc.rejected == nil {
		if ev := findG1b(inc.h, inc.g1bHigh); ev != nil {
			inc.rejected = &Report{
				Level:   inc.opts.Level,
				Outcome: Reject,
				Anomaly: ev.String(),
				Nodes:   int(inc.numNodes()),
			}
		}
	}
	inc.g1bHigh = len(inc.h.Txns)

	if inc.rejected != nil {
		conReg.End()
		inc.stampGauges(inc.rejected)
		final := inc.rejected.Snapshot()
		final.ElapsedNS = int64(time.Since(constructStart))
		inc.publish(final)
		inc.audits++
		return inc.rejected
	}

	// Assemble the record store into a Polygraph and run the batch check
	// (ts fast path, resolution, pruning, portfolio, lazy theory all apply).
	pg := inc.assemble()
	construct := time.Since(constructStart)
	conReg.End()
	rep := CheckPolygraphContext(ctx, pg, inc.obsOpts())
	rep.Phases.Construct = construct
	rep.Phases.ConstructCPU = construct - regenWall + regenCPU
	rep.ConstructWorkers = workers
	if rep.Outcome == Reject {
		// A rejection reached under a live context is a real verdict (the
		// solver only answers Unsat from a completed refutation), so caching
		// it stays sound even for audits that were later canceled.
		inc.rejected = rep
	}
	if rep.Outcome == Accept && rep.WitnessPositions != nil {
		inc.lastAccept = rep
	} else {
		inc.lastAccept = nil
	}
	inc.stampGauges(rep)
	final := rep.Snapshot()
	final.ElapsedNS = int64(time.Since(constructStart))
	inc.publish(final)
	inc.audits++
	return rep
}

// addReader records one external observation (key, writer → reader),
// deduplicated exactly like the batch read collection, and dirties the key.
func (inc *Incremental) addReader(key history.Key, w, r history.TxnID) {
	if w == r {
		return
	}
	m := inc.readers[key]
	if m == nil {
		m = make(map[history.TxnID][]history.TxnID)
		inc.readers[key] = m
	}
	for _, prev := range m[w] {
		if prev == r {
			return
		}
	}
	m[w] = append(m[w], r)
	inc.dirty[key] = true
}

// update folds transactions appended since the last audit into the
// persistent indexes, marking the keys they touch dirty. Processing new
// transactions in id order keeps every per-(key, writer) reader list in
// the same order the batch read collection produces.
func (inc *Incremental) update() {
	h := inc.h
	if inc.indexed >= len(h.Txns) {
		return
	}
	newTxns := h.Txns[inc.indexed:]
	inc.indexed = len(h.Txns)

	// New committed writers first: they define which keys are new, which
	// older range queries must retroactively observe.
	var newKeys []history.Key
	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		for key := range t.LastWritePerKey() {
			inc.writers[key] = append(inc.writers[key], t.ID)
			inc.dirty[key] = true
			if !inc.knownKeys[key] {
				inc.knownKeys[key] = true
				newKeys = append(newKeys, key)
			}
		}
	}
	if len(newKeys) > 0 {
		sort.Slice(newKeys, func(i, j int) bool { return newKeys[i] < newKeys[j] })
		for _, ro := range inc.ranges {
			for _, k := range newKeys {
				if k >= ro.lo && k <= ro.hi && !ro.returned[k] {
					inc.addReader(k, history.GenesisID, ro.reader)
				}
			}
		}
	}

	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // unreachable on validated histories
			}
			inc.addReader(key, ref.Txn, t.ID)
		})
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind != history.OpRange {
				continue
			}
			returned := make(map[history.Key]bool, len(op.Result))
			for _, v := range op.Result {
				returned[v.Key] = true
			}
			for _, k := range h.KeysInRange(op.Lo, op.Hi) {
				if !returned[k] {
					inc.addReader(k, history.GenesisID, t.ID)
				}
			}
			inc.ranges = append(inc.ranges, rangeObs{reader: t.ID, lo: op.Lo, hi: op.Hi, returned: returned})
		}
	}
}

// regen rebuilds the emission records of every dirty written key on the
// construction pool (per-key records are independent, and per-key costs
// vary wildly). It returns the pass's wall time, summed per-worker busy
// time, and worker count for the report's construction accounting. lite is
// only consulted for the node mapping (classify); it is shared read-only
// across workers.
func (inc *Incremental) regen() (wall, cpu time.Duration, workers int) {
	keys := make([]history.Key, 0, len(inc.dirty))
	for k := range inc.dirty {
		if len(inc.writers[k]) > 0 {
			keys = append(keys, k) // never-written keys have nothing to emit
		}
	}
	inc.dirty = make(map[history.Key]bool)
	if len(keys) == 0 {
		return 0, 0, 1
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	combine, coalesce := !inc.opts.DisableCombineWrites, !inc.opts.DisableCoalesce
	lite := &Polygraph{ser: inc.ser()}
	recs := make([]*KeyRecord, len(keys))
	workers = max(1, inc.opts.workers())
	wall, cpu, _ = runPool(workers, len(keys), func(i int) {
		key := keys[i]
		recs[i] = lite.recordKey(key, inc.writers[key], inc.readers[key], combine, coalesce)
	}, nil)

	for i, key := range keys {
		inc.records[key] = recs[i]
	}
	return wall, cpu, workers
}

// assemble materializes the record store as a Polygraph through the
// shared skeleton and replay (parallel.go), so the result is
// byte-identical to Build for the same history.
func (inc *Incremental) assemble() *Polygraph {
	pg := newPolygraph(inc.h, inc.opts.Level)
	pg.buildWorkers = 1
	keys := inc.h.Keys()
	pg.replay(len(keys), func(i int) *KeyRecord { return inc.records[keys[i]] })
	pg.addVariantEdges(inc.opts)
	return pg
}

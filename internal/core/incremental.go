// Online incremental checking: a long-lived session that extends its
// BC-polygraph construction state as transactions arrive, instead of
// rebuilding the polygraph from genesis at every audit.
//
// The read index (readIndex) and the per-key records (KeyRecord) persist
// across audits. An appended batch only dirties the keys it writes or
// reads; clean keys keep their records verbatim, so the
// O(chains²)-per-key constraint pass — the dominant construction cost —
// reruns only where the history actually changed. Each audit then replays
// the records into a Polygraph (byte-identical to Build on the same
// history) and runs the one batch check, CheckPolygraphContext, on it: a
// session report equals CheckHistory's report on the same live history.
//
// Everything an audit does before that check costs O(appended batch), not
// O(window): the index, the pre-decision gate (tsGate) and the gauges are
// extended by the new transactions alone, and viper.Checker validates with
// History.ValidateAppended. What still costs O(window) is the replay of
// every record, the check's topological sort and its witness check.
//
// Rejection is cached: SI (and the other checked levels) are closed under
// history prefixes, so once a validated prefix is rejected every extension
// is rejected too, and the session returns the rejecting report from then
// on. (Validation itself is NOT monotone — a read of a not-yet-appended
// write is a validation error on the prefix and legal on the extension —
// which is why callers validate before every audit, and why a failed
// ValidateAppended validates in full the next time.)
package core

import (
	"context"
	"sync/atomic"
	"time"

	"viper/internal/history"
	"viper/internal/obs"
)

// Incremental is a long-lived checking session over a growing history.
// Append transactions (Append / the owned History), then Audit; each audit
// reuses the construction records of the previous ones. The session is not
// safe for concurrent use.
//
// Audit requires the history to be validated first; the public
// viper.Checker wrapper does this on every audit (ValidateAppended).
// Every report describes that audit alone and equals the batch report on
// the same history.
type Incremental struct {
	opts Options
	h    *history.History

	// Persistent construction state. gate is the pre-decision gate
	// (tsorder.go), extended batch by batch; preDecide is its state the
	// records were recorded under.
	ix        *readIndex
	gate      *tsGate
	g1bHigh   int // h.Txns high-water mark already screened for G1b reads
	records   map[history.Key]*KeyRecord
	preDecide bool

	rejected *Report // cached graph rejection (levels are prefix-closed)
	audits   int

	// liveOps counts operations in the live window (Append adds, reset
	// recounts the window). txnBytes is the share of History.EstimateBytes
	// of the window's transactions below bytesHigh; every audit folds in
	// the transactions appended since, by this session or — for a matrix
	// sub-session — by the one owning the history. lastAccept is the most
	// recent audit's accepting report, nil after any non-accept, append,
	// or checkpoint — Checkpoint requires it, since the certificate
	// freezes its witness order.
	liveOps    int64
	txnBytes   int64
	bytesHigh  int
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
	return newIncremental(opts, history.New())
}

// newIncremental returns a session over h, with nothing indexed yet.
func newIncremental(opts Options, h *history.History) *Incremental {
	inc := &Incremental{opts: opts}
	inc.reset(h)
	return inc
}

// reset points the session at h and drops every structure derived from
// the previous history; the next audit rebuilds them over h. The window
// counters start from h's transactions.
func (inc *Incremental) reset(h *history.History) {
	inc.h = h
	inc.liveOps, inc.txnBytes, inc.bytesHigh = 0, 0, 1
	for _, t := range h.Txns[1:] {
		inc.liveOps += int64(len(t.Ops))
	}
	inc.ix = newReadIndex(h)
	inc.gate = newTSGate(h, inc.opts)
	inc.g1bHigh = 1
	inc.records = make(map[history.Key]*KeyRecord)
	inc.preDecide = false
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
// no resolution closure outlives the audit that built it. Every gauge is a
// running sum or a stored count, so stamping costs nothing per window.
func (inc *Incremental) stampGauges(rep *Report) {
	for _, t := range inc.h.Txns[inc.bytesHigh:] {
		inc.txnBytes += history.EstimateTxnBytes(t)
	}
	inc.bytesHigh = len(inc.h.Txns)
	rep.LiveTxns = inc.h.Len()
	rep.HistoryBytes = inc.txnBytes + inc.h.KeyBytes()
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
	recordWall, recordCPU, workers := inc.construct()

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
	// += keeps the check's own construction: a fallback that had to
	// rebuild the polygraph in full.
	rep.Phases.Construct += construct
	rep.Phases.ConstructCPU += construct - recordWall + recordCPU
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

// construct folds the transactions appended since the last audit into
// the index and records every key they dirtied on the construction pool
// — every key, when the appended transactions moved the pre-decision
// gate. It returns the recording pass's wall time, summed per-worker busy
// time and worker count (1 when nothing was recorded) for the report's
// construction accounting.
func (inc *Incremental) construct() (wall, cpu time.Duration, workers int) {
	keys := inc.ix.update()
	lite := inc.gate.extend()
	if lite.preDecide != inc.preDecide {
		inc.preDecide = lite.preDecide
		keys = inc.h.Keys()
	}
	if len(keys) == 0 {
		return 0, 0, 1
	}
	// The emit callback never errors, so recording cannot either.
	wall, cpu, _ = inc.ix.record(lite, inc.opts, keys, func(i int, rec *KeyRecord) error {
		inc.records[keys[i]] = rec
		return nil
	})
	return wall, cpu, inc.opts.workers()
}

// assemble replays the record store into a Polygraph (byte-identical to
// Build for the same history).
func (inc *Incremental) assemble() *Polygraph {
	keys := inc.h.Keys()
	ix := inc.ix
	return assemble(inc.h, inc.opts, func() *readIndex { return ix }, func(i int) *KeyRecord { return inc.records[keys[i]] })
}

// Timestamp-assisted fast path: when a history carries usable
// begin/commit timestamps, they already imply a total order over the
// polygraph's events, and on a conformant history that order decides
// every constraint without touching the solver (the timestamp-based
// online checkers of PAPERS.md — arXiv 2504.01477, Vbox's hybrid
// strategy in 2503.05163 — built their entire pipelines on this
// observation). Timestamps only ever guess; the verdict never rests on
// them:
//
//   - The decision rule. An edge u→v is drift-implied when
//     ts(v) − ts(u) > ClockDrift (after) — the same strict happens-before
//     realtime.go encodes, so the two files can never disagree on
//     boundary semantics. A constraint side is settled when every edge
//     is drift-implied; a constraint with exactly one settled side is
//     decided (timestamps chose the side), anything else is residual.
//     The rule is a guess, not evidence.
//   - Decide before materialising. When the pre-decision gate is open,
//     the per-key recording pass applies the rule to every constraint it
//     is about to emit (recordConstraint): a decided constraint with no
//     impossible edge and no empty side is never built — its chosen
//     side's edges join the record's flat arena (KeyRecord.Chosen) and
//     it is only counted (KeyRecord.Decided). The check applies the same
//     rule to the constraints still materialised. Report.Constraints
//     counts both kinds, Report.TSDecided both decisions.
//   - The gate is a function of the history and the options alone: the
//     fast path enabled, usable stamps (tsUsable), and no read-dependency
//     edge the drift relation contradicts (its reader drift-implied
//     before its writer's commit). Adversarial clocks fail the screen at
//     once, so they switch pre-decision off before any work is done, and
//     every construction path over one history records the same
//     polygraph: Build, sessions, and cluster workers, who see only a
//     slice and are told the coordinator's gate in the shard job.
//   - Accepts need a witness: every constraint decided and every chosen
//     side — pre-decided or check-time — running forward in the known
//     graph's topological order, or failing that, an acyclic known graph
//     plus chosen edges, whose topological order is then the witness.
//     The witness order contains a compatible graph outright (Theorem 5),
//     so the accept is exact even when the timestamps are garbage —
//     inconsistent timestamps can only fail the check, never falsify it.
//   - Rejects come only from the ts-off pipeline, or from a cycle the
//     known graph's closure forces (resolve), which no timestamp
//     touched. A residue goes to one exact attempt with the chosen sides as theory constants and only
//     the residue encoded; Sat is a genuine accept. Unsat is NOT a
//     refutation — the constants were assumptions. A small residue is
//     first screened without encoding (screenResidue): a side closing a
//     cycle with the known and chosen edges is dead, the other side of
//     its constraint forced, to a fixpoint; a constraint with both sides
//     dead refutes only the chosen sides. Unsat and such refutations
//     fall back to a full check with the fast path disabled on the
//     Definition 3 polygraph: the pre-decided keys are recorded again
//     with pre-decision off (Polygraph.full) for that one check.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"viper/internal/acyclic"
	"viper/internal/history"
	"viper/internal/sat"
)

// tsUsable reports whether the history's timestamps can drive the fast
// path: every committed transaction (genesis excluded) must carry
// positive BeginAt/CommitAt stamps with BeginAt <= CommitAt. Histories
// assembled without stamps (raw history.Txn appends, imported Jepsen
// logs) fail deterministically — a zero timestamp would otherwise sort
// the event before genesis and derive a bogus order. The returned reason
// is surfaced as Report.TSUnusable.
func tsUsable(h *history.History) (ok bool, reason string) {
	if h == nil {
		return false, "no history attached to the polygraph"
	}
	return txnsUsable(h.Txns[1:])
}

// txnsUsable is tsUsable over the transactions txns.
func txnsUsable(txns []*history.Txn) (ok bool, reason string) {
	for _, t := range txns {
		if !t.Committed() {
			continue
		}
		if t.BeginAt <= 0 || t.CommitAt <= 0 {
			return false, fmt.Sprintf("txn %d carries absent or zero timestamps", t.ID)
		}
		if t.CommitAt < t.BeginAt {
			return false, fmt.Sprintf("txn %d commits before it begins (begin %d, commit %d)", t.ID, t.BeginAt, t.CommitAt)
		}
	}
	return true, ""
}

// after reports whether node v happens strictly after node u under the
// drift bound: ts(v) − ts(u) > drift. It is the one timestamp predicate
// the gate's screen, record-time pre-decision and check-time
// classification all reduce to. Under the Serializability mapping a
// node's stamp is its transaction's CommitAt (initNodeTS).
func (pg *Polygraph) after(u, v int32, drift int64) bool {
	return pg.nodeTS[v]-pg.nodeTS[u] > drift
}

// settled reports whether every edge of side is drift-implied.
func (pg *Polygraph) settled(side []Edge, drift int64) bool {
	for _, e := range side {
		if !pg.after(e.From, e.To, drift) {
			return false
		}
	}
	return true
}

// recorder returns the polygraph the recording pass consults: the node
// mapping and, when the pre-decision gate is open, the node stamps and
// drift bound it pre-decides with. The gate depends on h and opts alone.
func recorder(h *history.History, opts Options) *Polygraph {
	return newTSGate(h, opts).extend()
}

// tsGate is the pre-decision gate over a history that grows by appends:
// the recording polygraph (recorder) of h.Txns[:high], extended one batch
// of appended transactions at a time. Both of the gate's tests read only
// immutable per-transaction facts — a committed transaction's stamps, and
// a read's writer, fixed once the history is validated — so folding in
// just the appended transactions yields the gate of the whole history,
// and a closed gate stays closed for as long as the history grows.
type tsGate struct {
	lite   *Polygraph
	high   int  // h.Txns high-water mark folded in
	closed bool // the fast path is off, or some transaction closed the gate
}

// newTSGate returns the gate of h with nothing folded in yet.
func newTSGate(h *history.History, opts Options) *tsGate {
	return &tsGate{
		lite:   &Polygraph{H: h, Level: opts.Level, ser: opts.Level == Serializability, drift: opts.ClockDrift.Nanoseconds()},
		high:   1,
		closed: opts.DisableTSFastPath,
	}
}

// extend folds the transactions appended since the last call into the
// gate — their stamps' usability, their node stamps, and their reads'
// directions — and returns the recording polygraph of the whole
// history. h must be validated.
func (g *tsGate) extend() *Polygraph {
	lite := g.lite
	from := lite.H.Txns[g.high:]
	g.high = len(lite.H.Txns)
	if !g.closed {
		ok, _ := txnsUsable(from)
		g.closed = !ok
	}
	if !g.closed {
		lite.NumNodes = int32(len(lite.H.Txns))
		if !lite.ser {
			lite.NumNodes *= 2
		}
		lite.nodeTS = append(lite.nodeTS, make([]int64, int(lite.NumNodes)-len(lite.nodeTS))...)
		lite.stampNodes(from)
		g.closed = lite.readsContradicted(from)
	}
	lite.preDecide = !g.closed
	return lite
}

// PreDecides reports whether the recording pass pre-decides constraints
// by timestamp on h under opts. A cluster coordinator evaluates it on the
// full history and sends the result with each shard job, since a worker
// sees only its slice.
func PreDecides(h *history.History, opts Options) bool {
	return recorder(h, opts).preDecide
}

// readsContradicted reports whether some read-dependency edge — a
// writer's commit → the begin of a transaction of txns that read its
// version — runs backward under the drift relation. Conformant clocks
// never do; garbage clocks do almost at once. A key-sliced history
// carries a subset of the full history's reads, so a slice is never
// contradicted where the full history is not.
func (pg *Polygraph) readsContradicted(txns []*history.Txn) bool {
	contradicted := func(r history.TxnID, obs history.WriteID) bool {
		ref, ok := pg.H.WriterOf(obs)
		if !ok || ref.Txn == history.GenesisID {
			return false
		}
		e, cls := pg.classify(ref.Txn, true, r, false)
		return cls == edgeNormal && pg.after(e.To, e.From, pg.drift)
	}
	for _, t := range txns {
		if !t.Committed() {
			continue
		}
		for i := range t.Ops {
			op := &t.Ops[i]
			switch op.Kind {
			case history.OpRead:
				if contradicted(t.ID, op.Observed) {
					return true
				}
			case history.OpRange:
				for _, v := range op.Result {
					if contradicted(t.ID, v.WriteID) {
						return true
					}
				}
			}
		}
	}
	return false
}

// tsClassified is tsClassify's result. chosen holds the chosen sides'
// edges: the check-time decisions first, then each record's pre-decided
// arena, referenced in place.
type tsClassified struct {
	decided  int
	residual []Constraint
	chosen   [][]Edge
}

// tsClassify is one near-linear pass over the materialised constraints:
// decided constraints' chosen-side edges accumulate in chosen, the rest
// in residual, and the recording pass's pre-decisions join both counts.
// Both-sides-settled — possible only with inconsistent cross-transaction
// timestamps — is deliberately residual: the solver, not the clock, owns
// contradictions.
func (pg *Polygraph) tsClassify(drift int64) tsClassified {
	var chosen []Edge
	out := tsClassified{decided: pg.preDecided}
	for _, c := range pg.Cons {
		f, s := pg.settled(c.First, drift), pg.settled(c.Second, drift)
		if f != s {
			out.decided++
			if f {
				chosen = append(chosen, c.First...)
			} else {
				chosen = append(chosen, c.Second...)
			}
		} else {
			out.residual = append(out.residual, c)
		}
	}
	out.chosen = append([][]Edge{chosen}, pg.chosen...)
	return out
}

// chosenForward reports whether every chosen edge runs forward in pos.
func chosenForward(chosen [][]Edge, pos []int32) bool {
	for _, side := range chosen {
		if !sideForward(side, pos) {
			return false
		}
	}
	return true
}

// screenResidue decides a small residue without encoding it, against
// the known edges plus the chosen sides held in an incrementally ordered
// DAG seeded with pos (a topological order of known). A side whose edges
// would close a cycle is dead; a constraint with one dead side is forced
// to the other, whose edges join the graph, until nothing changes. Every
// constraint decided yields witness, the graph's order. refuted reports
// that the chosen sides cannot all hold: the graph is cyclic, or some
// constraint has both sides dead. Neither result rests on timestamps
// being right: a witness is checked against every edge, and a refutation
// only refutes the timestamps' guesses (see checkFull).
func (pg *Polygraph) screenResidue(cons []Constraint, known []KnownEdge, chosen [][]Edge, pos []int32) (witness []int32, refuted bool) {
	g := acyclic.NewGraph(int(pg.NumNodes))
	g.SetOrder(pos)
	// add inserts side's edges, or none of them when one closes a cycle.
	add := func(side []Edge) bool {
		for i, e := range side {
			if g.AddEdge(e.From, e.To) != nil {
				for ; i > 0; i-- {
					g.RemoveLastEdge()
				}
				return false
			}
		}
		return true
	}
	for _, ke := range known {
		if g.AddEdge(ke.From, ke.To) != nil {
			return nil, true
		}
	}
	for _, side := range chosen {
		if !add(side) {
			return nil, true
		}
	}
	alive := func(side []Edge) bool {
		if !add(side) {
			return false
		}
		for range side {
			g.RemoveLastEdge()
		}
		return true
	}
	open := slices.Clone(cons)
	for changed := true; changed && len(open) > 0; {
		changed = false
		kept := open[:0]
		for _, c := range open {
			// Whether edges close a cycle depends on the edge set alone, so a
			// side alive a moment ago adds cleanly.
			switch f, s := alive(c.First), alive(c.Second); {
			case !f && !s:
				return nil, true
			case !f:
				add(c.Second)
				changed = true
			case !s:
				add(c.First)
				changed = true
			default:
				kept = append(kept, c)
			}
		}
		open = kept
	}
	if len(open) > 0 {
		return nil, false
	}
	witness = make([]int32, pg.NumNodes)
	for n := range witness {
		witness[n] = g.Order(int32(n))
	}
	return witness, false
}

// checkTSResidue finishes a check whose constraints the timestamps mostly
// decided: resolve the residue against the known-graph closure (skipped
// when the residue is too small to pay for a closure build), then run one
// exact attempt with the chosen sides as theory constants. A small
// residue is screened first (screenResidue), which either decides it —
// a witness or a refutation of the chosen sides — or leaves the attempt
// to do so. Unsat under the chosen sides is not a refutation of the
// history: re-check with the fast path disabled (checkFull).
func (pg *Polygraph) checkTSResidue(ctx context.Context, opts Options, rep *Report, tc tsClassified, out [][]int32, order []int32, less func(a, b int32) bool, deadline time.Time, checkStart time.Time) *Report {
	cons, known := tc.residual, pg.Known
	pos := positionsOf(order)
	if !opts.DisableResolve && len(cons) > resolveCheapBatch {
		resolveStart := time.Now()
		rr := resolvePolygraph(ctx, pg, cons, out, order, opts.workers())
		rep.Phases.Resolve = time.Since(resolveStart)
		if rr != nil {
			rep.ResolvedConstraints = rr.resolved
			rep.ForcedEdges = len(rr.forced)
			if rr.cycle != nil {
				rep.Outcome = Reject
				rep.KnownCycle = rr.cycle
				return rep
			}
			cons = rr.kept
			if len(rr.forced) > 0 {
				known = make([]KnownEdge, 0, len(pg.Known)+len(rr.forced))
				known = append(append(known, pg.Known...), rr.forced...)
				var ok bool
				if order, ok = acyclic.TopoPriority(int(pg.NumNodes), out, less); !ok {
					rep.Outcome = Reject
					rep.KnownCycle = pg.knownCycle(out)
					return rep
				}
				pos = positionsOf(order)
			}
		}
	}
	accept := func(pos []int32) *Report {
		rep.Outcome = Accept
		rep.WitnessPositions = pos
		rep.selfCheck(pg, opts)
		return rep
	}
	if len(cons) == 0 && chosenForward(tc.chosen, pos) {
		// The residue resolved away and the chosen sides still follow the
		// (possibly re-sorted) topological order: witness in hand.
		return accept(pos)
	}
	if len(cons) <= resolveCheapBatch {
		screenStart := time.Now()
		witness, refuted := pg.screenResidue(cons, known, tc.chosen, pos)
		rep.Phases.TSOrder += time.Since(screenStart)
		if witness != nil {
			return accept(witness)
		}
		if refuted {
			return pg.checkFull(ctx, opts, rep, true)
		}
	}
	if ctx.Err() != nil {
		rep.Outcome = Timeout
		return rep
	}
	res := pg.attempt(ctx, opts, rep, cons, known, pos, 0, deadline, checkStart, tc.chosen)
	switch res {
	case sat.Sat:
		rep.Outcome = Accept
		rep.FinalK = 0
		rep.selfCheck(pg, opts)
		return rep
	case sat.Unknown:
		rep.Outcome = Timeout
		return rep
	}
	// Unsat with the chosen sides asserted. Timestamps may simply be
	// wrong about this history; only a check without them can tell.
	return pg.checkFull(ctx, opts, rep, true)
}

// checkFull re-checks with the fast path disabled on the Definition 3
// polygraph: pg itself, or — when its records pre-decided constraints —
// pg rebuilt with every constraint materialised. The rebuild is timed as
// construction (its own construct span). rep's timestamp counters and
// stage times carry over; retry counts the failed timestamp attempt.
func (pg *Polygraph) checkFull(ctx context.Context, opts Options, rep *Report, retry bool) *Report {
	full := pg
	var construct, constructCPU time.Duration
	if pg.preDecided > 0 {
		span := opts.Tracer.Start("construct")
		start := time.Now()
		var wall, cpu time.Duration
		full, wall, cpu = pg.full()
		span.End()
		construct = time.Since(start)
		constructCPU = construct - wall + cpu
	}
	off := opts
	off.DisableTSFastPath = true
	fb := CheckPolygraphContext(ctx, full, off)
	fb.TSDecided, fb.TSResidual = rep.TSDecided, rep.TSResidual
	fb.Phases.Construct += construct
	fb.Phases.ConstructCPU += constructCPU
	fb.Phases.TSOrder += rep.Phases.TSOrder
	fb.Phases.Resolve += rep.Phases.Resolve
	fb.Phases.Encode += rep.Phases.Encode
	fb.Phases.Solve += rep.Phases.Solve
	if retry {
		fb.Retries += rep.Retries + 1
	}
	return fb
}

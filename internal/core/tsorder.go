// Timestamp-assisted fast path: when a history carries usable
// begin/commit timestamps, they already imply a total order over the
// polygraph's events, and on a conformant history that order decides
// every constraint without touching the solver (the timestamp-based
// online checkers of PAPERS.md — arXiv 2504.01477, Vbox's hybrid
// strategy in 2503.05163 — built their entire pipelines on this
// observation). The pass is sound by construction:
//
//   - A constraint side is ts-settled when every edge u→v satisfies the
//     strict drift relation ts(v) − ts(u) > ClockDrift — the same
//     happens-before realtime.go encodes, so the two files can never
//     disagree on boundary semantics. A constraint with exactly one
//     settled side is decided (timestamps chose the side); anything else
//     is residual and goes to the solver.
//   - Accepting on timestamps alone requires a genuine witness: every
//     constraint decided and every chosen side running forward in the
//     known graph's topological order. The witness order then contains a
//     compatible graph outright (Theorem 5), so the accept is exact even
//     when the timestamps are garbage — inconsistent timestamps can only
//     fail the check, never falsify it.
//   - When a residue remains, the decided sides enter one exact attempt
//     as theory constants and only the residue is encoded. Sat is a
//     genuine accept (a model is a model); Unsat is NOT a refutation —
//     the constants were assumptions — so the checker falls back to a
//     full check with the fast path disabled. Rejections therefore never
//     rest on timestamps.
package core

import (
	"context"
	"fmt"
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
	for _, t := range h.Txns[1:] {
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

// tsClassify is one near-linear pass over the constraints: decided
// constraints' chosen-side edges accumulate in chosen, the rest in
// residual. A side with every edge strictly drift-implied is settled;
// exactly one settled side decides the constraint. Both-sides-settled —
// possible only with inconsistent cross-transaction timestamps — is
// deliberately residual: the solver, not the clock, owns contradictions.
type tsClassified struct {
	decided  int
	residual []Constraint
	chosen   []Edge
}

func (pg *Polygraph) tsClassify(drift int64) tsClassified {
	settled := func(side []Edge) bool {
		for _, e := range side {
			if pg.nodeTS[e.To]-pg.nodeTS[e.From] <= drift {
				return false
			}
		}
		return true
	}
	var out tsClassified
	for _, c := range pg.Cons {
		f, s := settled(c.First), settled(c.Second)
		if f != s {
			out.decided++
			if f {
				out.chosen = append(out.chosen, c.First...)
			} else {
				out.chosen = append(out.chosen, c.Second...)
			}
		} else {
			out.residual = append(out.residual, c)
		}
	}
	return out
}

// edgesForward reports whether every edge runs forward in pos.
func edgesForward(edges []Edge, pos []int32) bool {
	for _, e := range edges {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// checkTSResidue finishes a check whose constraints the timestamps mostly
// decided: resolve the residue against the known-graph closure (skipped
// when the residue is too small to pay for a closure build), then run one
// exact attempt with the chosen sides as theory constants. Unsat under
// those constants is not a refutation — re-check with the fast path
// disabled and carry the timestamp counters into the fallback's report.
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
	if len(cons) == 0 && edgesForward(tc.chosen, pos) {
		// The residue resolved away and the chosen sides still follow the
		// (possibly re-sorted) topological order: witness in hand.
		rep.Outcome = Accept
		rep.WitnessPositions = pos
		rep.selfCheck(pg, opts)
		return rep
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
	fallbackOpts := opts
	fallbackOpts.DisableTSFastPath = true
	fb := CheckPolygraphContext(ctx, pg, fallbackOpts)
	fb.TSDecided, fb.TSResidual = rep.TSDecided, rep.TSResidual
	fb.Phases.TSOrder += rep.Phases.TSOrder
	fb.Phases.Resolve += rep.Phases.Resolve
	fb.Phases.Encode += rep.Phases.Encode
	fb.Phases.Solve += rep.Phases.Solve
	fb.Retries += rep.Retries + 1
	return fb
}

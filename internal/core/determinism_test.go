package core

import (
	"testing"

	"viper/internal/history"
	"viper/internal/obs"
)

// Determinism suite: with Parallelism=1 and the default single solver
// instance (seed 0), two runs of the same history must produce identical
// solver statistics, identical graph counts, and identical span structure.
// This is the guard the observability layer is held to — instrumentation
// that perturbed the search (an extra allocation changing a heap decision,
// a sampling hook reordering propagation) would show up here first.

// detOpts is the deterministic configuration the suite pins.
func detOpts(level Level) Options {
	return Options{Level: level, Parallelism: 1}
}

// reportFingerprint collects every deterministic field of a report (all
// counters; no durations).
type reportFingerprint struct {
	outcome          Outcome
	nodes            int
	knownEdges       int
	constraints      int
	resolved         int
	forcedEdges      int
	pruned           int
	heuristic        int
	edgeVars         int
	retries          int
	finalK           int
	solver           struct{ vars, clauses, learnts int }
	conflicts        int64
	decisions        int64
	propagations     int64
	restarts         int64
	theoryConfl      int64
	reorders         int64
	reorderedNodes   int64
	knownCycleLen    int
	witnessPositions int
}

func fingerprint(rep *Report) reportFingerprint {
	var fp reportFingerprint
	fp.outcome = rep.Outcome
	fp.nodes = rep.Nodes
	fp.knownEdges = rep.KnownEdges
	fp.constraints = rep.Constraints
	fp.resolved = rep.ResolvedConstraints
	fp.forcedEdges = rep.ForcedEdges
	fp.pruned = rep.PrunedConstraints
	fp.heuristic = rep.HeuristicEdges
	fp.edgeVars = rep.EdgeVars
	fp.retries = rep.Retries
	fp.finalK = rep.FinalK
	fp.solver.vars = rep.Solver.Vars
	fp.solver.clauses = rep.Solver.Clauses
	fp.solver.learnts = rep.Solver.Learnts
	fp.conflicts = rep.Solver.Conflicts
	fp.decisions = rep.Solver.Decisions
	fp.propagations = rep.Solver.Propagations
	fp.restarts = rep.Solver.Restarts
	fp.theoryConfl = rep.Solver.TheoryConfl
	fp.reorders = rep.Reorders
	fp.reorderedNodes = rep.ReorderedNodes
	fp.knownCycleLen = len(rep.KnownCycle)
	fp.witnessPositions = len(rep.WitnessPositions)
	return fp
}

// detHistories are the suite's subjects: an accepted history, a rejection
// the solver must find (nonzero conflicts, so solver-path determinism is
// actually exercised), and a known-cycle rejection.
func detHistories(t *testing.T) map[string]*history.History {
	t.Helper()
	return map[string]*history.History{
		"figure2":  figure2(t),
		"longFork": longFork(t),
	}
}

func TestCheckDeterminism(t *testing.T) {
	for name, h := range detHistories(t) {
		for _, combos := range []struct {
			label string
			mut   func(*Options)
		}{
			{"default", func(*Options) {}},
			// The solver-search reject path: rejection must come out of the
			// constraint search, with nonzero conflicts. Resolution is off
			// because it would discharge longFork before any solver ran.
			{"no-combine-no-pruning", func(o *Options) {
				o.DisableCombineWrites = true
				o.DisablePruning = true
				o.DisableResolve = true
			}},
		} {
			opts1, opts2 := detOpts(AdyaSI), detOpts(AdyaSI)
			combos.mut(&opts1)
			combos.mut(&opts2)
			tr1, tr2 := obs.NewTracer(), obs.NewTracer()
			opts1.Tracer, opts2.Tracer = tr1, tr2

			rep1 := CheckHistory(h, opts1)
			rep2 := CheckHistory(h, opts2)

			fp1, fp2 := fingerprint(rep1), fingerprint(rep2)
			if fp1 != fp2 {
				t.Errorf("%s/%s: reports differ between runs:\n run1: %+v\n run2: %+v",
					name, combos.label, fp1, fp2)
			}
			if s1, s2 := tr1.Trace().Structure(), tr2.Trace().Structure(); s1 != s2 {
				t.Errorf("%s/%s: span structure differs: %q vs %q",
					name, combos.label, s1, s2)
			}
		}
	}
}

// TestCheckDeterminismSolverWorks asserts the reject subject actually
// exercises the solver (conflicts > 0) — otherwise the suite above could
// pass vacuously on fast paths that never search.
func TestCheckDeterminismSolverWorks(t *testing.T) {
	opts := detOpts(AdyaSI)
	opts.DisableCombineWrites = true
	opts.DisablePruning = true
	opts.DisableResolve = true
	rep := CheckHistory(longFork(t), opts)
	if rep.Outcome != Reject {
		t.Fatalf("outcome %v, want reject", rep.Outcome)
	}
	if rep.Solver.Conflicts == 0 {
		t.Fatal("reject subject produced zero conflicts; determinism suite is vacuous")
	}
}

// TestIncrementalDeterminism runs two identically-configured incremental
// sessions through the same batched appends and requires every audit to
// report identical counters and identical cumulative span structure.
func TestIncrementalDeterminism(t *testing.T) {
	build := func() *Incremental {
		opts := detOpts(AdyaSI)
		opts.Tracer = obs.NewTracer()
		return NewIncremental(opts)
	}
	// A multi-writer workload so later audits actually touch the solver.
	mkBatches := func() [][]*history.Txn {
		b := history.NewBuilder()
		ss := []*history.SessionBuilder{b.Session(), b.Session(), b.Session()}
		w1 := ss[0].Txn().Write("x").Write("y").Commit()
		ss[1].Txn().Write("x").Commit()
		ss[2].Txn().ReadObserved("x", w1.WriteIDOf("x")).Commit()
		ss[0].Txn().Write("y").Commit()
		ss[1].Txn().ReadObserved("y", w1.WriteIDOf("y")).Write("z").Commit()
		ss[2].Txn().Write("z").Commit()
		h := b.MustHistory()
		var batches [][]*history.Txn
		txns := h.Txns[1:]
		for i := 0; i < len(txns); i += 2 {
			end := i + 2
			if end > len(txns) {
				end = len(txns)
			}
			batches = append(batches, txns[i:end])
		}
		return batches
	}

	inc1, inc2 := build(), build()
	batches1, batches2 := mkBatches(), mkBatches()
	for i := range batches1 {
		for _, t2 := range batches1[i] {
			cp := *t2
			inc1.Append(&cp)
		}
		for _, t2 := range batches2[i] {
			cp := *t2
			inc2.Append(&cp)
		}
		if err := inc1.History().Validate(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := inc2.History().Validate(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		rep1, rep2 := inc1.Audit(), inc2.Audit()
		fp1, fp2 := fingerprint(rep1), fingerprint(rep2)
		if fp1 != fp2 {
			t.Fatalf("audit %d: reports differ:\n run1: %+v\n run2: %+v", i, fp1, fp2)
		}
	}
	s1 := inc1.opts.Tracer.Trace().Structure()
	s2 := inc2.opts.Tracer.Trace().Structure()
	if s1 != s2 {
		t.Fatalf("span structure differs:\n run1: %q\n run2: %q", s1, s2)
	}
	if s1 == "" {
		t.Fatal("no spans recorded")
	}
}

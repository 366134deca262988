package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"viper/internal/acyclic"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/sat"
)

// portfolioRace coordinates the racing solvers of one portfolio attempt.
// Registered solvers are interrupted the moment a winner is decided, and a
// solver that registers after the decision interrupts itself immediately —
// a straggler that was still being constructed when the race ended must
// not run to completion unobserved.
type portfolioRace struct {
	mu      sync.Mutex
	decided bool
	solvers []*sat.Solver
}

func (pr *portfolioRace) register(s *sat.Solver) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.decided {
		s.Interrupt()
	}
	pr.solvers = append(pr.solvers, s)
}

func (pr *portfolioRace) decide() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.decided = true
	for _, s := range pr.solvers {
		s.Interrupt()
	}
}

// Outcome is a checking verdict.
type Outcome uint8

const (
	// Accept: the history satisfies the checked level (a compatible
	// acyclic graph exists; Theorem 5).
	Accept Outcome = iota
	// Reject: no compatible acyclic graph exists.
	Reject
	// Timeout: the time budget expired before a verdict.
	Timeout
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return "timeout"
	}
}

// PhaseTimings decomposes checking time like Figure 10 of the paper.
// (Parsing is measured by the caller that loads the history.)
type PhaseTimings struct {
	Construct time.Duration // building the BC-polygraph (wall clock)
	// ConstructCPU is the construction work summed across workers: equal
	// to Construct when Options.Parallelism resolves to one worker, and up
	// to ConstructWorkers× larger when sharded construction overlaps work
	// (ConstructCPU / Construct is the effective construction speedup).
	ConstructCPU time.Duration
	// Resolve is the sound pre-solve resolution pass (resolve.go): closure
	// build plus the constraint fixpoint. Zero when the pass was disabled
	// or declined to run.
	Resolve time.Duration
	// TSOrder is the timestamp fast path (tsorder.go): deriving the
	// timestamp-implied order and classifying every constraint against
	// it. Zero when the path was disabled or the timestamps unusable.
	TSOrder time.Duration
	Encode  time.Duration // emitting SMT clauses (summed over attempts)
	// Solve is SAT+theory solving summed over attempts. Under a portfolio
	// it is the winning solver's time only; losers' encode/solve time is
	// never booked (it would misattribute the Figure 10 decomposition).
	Solve time.Duration
}

// Report is the result of a check.
type Report struct {
	Outcome Outcome
	Level   Level

	// Graph statistics.
	Nodes       int
	KnownEdges  int
	KnownByKind [EdgeHeuristic + 1]int // KnownEdges by EdgeKind
	Constraints int                    // constraints in the polygraph (before pruning)

	// ConstructWorkers is the worker count used for polygraph
	// construction (see Options.Parallelism).
	ConstructWorkers int

	// ResolvedConstraints counts constraints the sound pre-solve resolution
	// pass discharged without the solver (one side dead against the known
	// graph's transitive closure, or one side already implied by it);
	// ForcedEdges counts the known edges that forcing appended. Zero when
	// Options.DisableResolve is set or the pass declined to run.
	ResolvedConstraints int
	ForcedEdges         int

	// TSDecided/TSResidual count the constraints the timestamp fast path
	// (tsorder.go) classified: decided constraints were settled by the
	// strict drift relation before any encoding, residual ones went to
	// resolution and the solver. Both zero when Options.DisableTSFastPath
	// is set or the timestamps were unusable. TSUnusable, when non-empty,
	// explains why the history's timestamps could not drive the fast path
	// (absent/zero or inverted stamps).
	TSDecided  int
	TSResidual int
	TSUnusable string

	// Final-attempt statistics.
	PrunedConstraints int // constraints resolved by heuristic pruning
	HeuristicEdges    int
	EdgeVars          int
	Retries           int // pruning retries (k doublings)
	FinalK            int // 0 means no heuristic was in force

	Phases PhaseTimings
	Solver sat.Stats

	// Reorders/ReorderedNodes count the Pearce–Kelly order repairs the
	// acyclicity theory performed and the nodes they moved (the winning
	// solver's, under a portfolio).
	Reorders       int64
	ReorderedNodes int64

	// KnownCycle, when non-nil, is a cycle already present in the known
	// graph (a rejection that needs no solving), as diagnostic evidence.
	KnownCycle []KnownEdge

	// Anomaly, when non-empty, names a polynomially-detected anomaly that
	// rejected the history before any graph analysis (currently G1b
	// intermediate reads — see findG1b), in human-readable form.
	Anomaly string

	// WitnessPositions, on Accept, assigns each node a position in a valid
	// total order of begins/commits (the ŝ of Theorem 4): a schedule
	// witnessing SI. Indexed by node id; auxiliary nodes included.
	WitnessPositions []int32

	// WitnessVerified is set when Options.SelfCheck successfully replayed
	// the witness schedule; SelfCheckErr records a replay failure (which
	// would indicate a checker bug).
	WitnessVerified bool
	SelfCheckErr    error

	// Session memory gauges, stamped by Incremental at the end of every
	// audit (zero on reports that never passed through a session). These
	// are what checkpointing bounds: LiveTxns and HistoryBytes cover the
	// live window. ClosureBytes is always zero: every audit builds its
	// resolution closure afresh and drops it, so none outlives the audit.
	// Checkpoints/FencedTxns/CertBytes/TxnIDBase describe the checkpoint
	// certificate carried in place of the compacted prefix.
	LiveTxns     int
	HistoryBytes int64
	ClosureBytes int64
	Checkpoints  int
	FencedTxns   int
	CertBytes    int64
	TxnIDBase    int64
}

// Snapshot renders the report's counters as a final ("done") progress
// snapshot. Audit/Txns/ElapsedNS/HeapInUse are the caller's to stamp.
func (rep *Report) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Phase:               "done",
		Nodes:               rep.Nodes,
		KnownEdges:          rep.KnownEdges,
		Constraints:         rep.Constraints,
		PrunedConstraints:   rep.PrunedConstraints,
		ResolvedConstraints: rep.ResolvedConstraints,
		ForcedEdges:         rep.ForcedEdges,
		TSDecided:           rep.TSDecided,
		TSResidual:          rep.TSResidual,
		EdgeVars:            rep.EdgeVars,
		Conflicts:           rep.Solver.Conflicts,
		Decisions:           rep.Solver.Decisions,
		Propagations:        rep.Solver.Propagations,
		Learnts:             int64(rep.Solver.Learnts),
		Restarts:            rep.Solver.Restarts,
		TheoryConfl:         rep.Solver.TheoryConfl,
		Reorders:            rep.Reorders,
		ReorderedNodes:      rep.ReorderedNodes,
		HistoryBytes:        rep.HistoryBytes,
		ClosureBytes:        rep.ClosureBytes,
		Checkpoints:         rep.Checkpoints,
		CertBytes:           rep.CertBytes,
	}
}

// selfCheck replays the witness if requested.
func (rep *Report) selfCheck(pg *Polygraph, opts Options) {
	if !opts.SelfCheck || rep.Outcome != Accept || rep.WitnessPositions == nil {
		return
	}
	if err := VerifyWitness(pg.H, rep.WitnessPositions, pg.Level); err != nil {
		rep.SelfCheckErr = err
		return
	}
	rep.WitnessVerified = true
}

// CheckHistory builds the BC-polygraph of a validated history and checks
// it, populating construction timing (the CheckSI procedure of Figure 4).
func CheckHistory(h *history.History, opts Options) *Report {
	return CheckHistoryContext(context.Background(), h, opts)
}

// CheckHistoryContext is CheckHistory under a cancellation context: ctx's
// deadline bounds checking exactly like Options.Timeout (whichever
// expires first wins), and canceling ctx interrupts a running solve. A
// check stopped by ctx reports Outcome Timeout.
func CheckHistoryContext(ctx context.Context, h *history.History, opts Options) *Report {
	if opts.Level.Polynomial() {
		return checkPolynomial(h, opts)
	}
	// One-shot checking is a single-audit incremental session: every audit
	// assembles the full polygraph and runs the batch check on it.
	return newIncremental(opts, h).AuditContext(ctx)
}

// solveDeadline merges the Options.Timeout budget with ctx's deadline:
// the earlier of the two, or zero when neither applies.
func solveDeadline(ctx context.Context, opts Options) time.Time {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return deadline
}

// watchCancel interrupts s the moment ctx is canceled, turning a context
// cancellation into the solver's cooperative stop. The returned release
// function retires the watcher; callers pair it with exactly one solve.
// A context that can never be canceled installs nothing.
func watchCancel(ctx context.Context, s *sat.Solver) (release func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.Interrupt()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// CheckPolygraph decides whether the polygraph is acyclic (Definition 3) —
// equivalently whether the history meets the level (Theorem 5) — using
// MonoSAT-style solving with heuristic pruning and retry (§3.5).
func CheckPolygraph(pg *Polygraph, opts Options) *Report {
	return CheckPolygraphContext(context.Background(), pg, opts)
}

// CheckPolygraphContext is CheckPolygraph under a cancellation context
// (see CheckHistoryContext for the contract).
func CheckPolygraphContext(ctx context.Context, pg *Polygraph, opts Options) *Report {
	checkStart := time.Now()
	rep := &Report{
		Level:       pg.Level,
		Nodes:       int(pg.NumNodes),
		KnownEdges:  len(pg.Known),
		KnownByKind: pg.knownByKind,
		Constraints: len(pg.Cons) + pg.preDecided,
	}
	// A context that is already done stops the check before any stage —
	// including the constraint-free fast path, which would otherwise accept.
	if ctx.Err() != nil {
		rep.Outcome = Timeout
		return rep
	}
	deadline := solveDeadline(ctx, opts)

	if pg.Contradiction {
		rep.Outcome = Reject
		return rep
	}

	// Topologically sort the known graph. A cycle here is a rejection with
	// direct evidence; otherwise the order seeds heuristic pruning.
	out := make([][]int32, pg.NumNodes)
	for _, ke := range pg.Known {
		out[ke.From] = append(out[ke.From], ke.To)
	}
	less := func(a, b int32) bool {
		if pg.nodeTS[a] != pg.nodeTS[b] {
			return pg.nodeTS[a] < pg.nodeTS[b]
		}
		return a < b
	}
	order, ok := acyclic.TopoPriority(int(pg.NumNodes), out, less)
	if !ok {
		rep.Outcome = Reject
		rep.KnownCycle = pg.knownCycle(out)
		return rep
	}

	// Constraint-free fast path (write order fully known — e.g. the
	// list-append workload, §7.1): the BC-polygraph is a BC-graph and the
	// successful topological sort already proves acyclicity.
	if rep.Constraints == 0 {
		rep.Outcome = Accept
		rep.WitnessPositions = positionsOf(order)
		rep.selfCheck(pg, opts)
		return rep
	}

	pos := positionsOf(order)

	// Timestamp fast path (tsorder.go): when the history carries usable
	// timestamps, classify every materialised constraint against the
	// strict drift relation in one near-linear pass (the recording pass
	// may have pre-decided the rest). With everything decided and the
	// chosen sides following the topological order (which already embeds
	// every known edge), the order itself witnesses a compatible graph —
	// accept without resolution, encoding, or solving. A small residue
	// goes through resolution and one exact attempt with the decided
	// sides as constants; Unsat there falls back to a full check with the
	// fast path off, so timestamps can never flip a verdict (see
	// tsorder.go for the soundness argument).
	if !opts.DisableTSFastPath && ctx.Err() == nil {
		if usable, reason := tsUsable(pg.H); !usable {
			rep.TSUnusable = reason
		} else {
			tsStart := time.Now()
			tc := pg.tsClassify(opts.ClockDrift.Nanoseconds())
			rep.TSDecided, rep.TSResidual = tc.decided, len(tc.residual)
			if len(tc.residual) == 0 && chosenForward(tc.chosen, pos) {
				rep.Phases.TSOrder = time.Since(tsStart)
				rep.Outcome = Accept
				rep.WitnessPositions = pos
				rep.selfCheck(pg, opts)
				return rep
			}
			if tc.decided*10 >= rep.Constraints*9 {
				// Timestamps decided >= 90%: solve only the residue.
				rep.Phases.TSOrder = time.Since(tsStart)
				return pg.checkTSResidue(ctx, opts, rep, tc, out, order, less, deadline, checkStart)
			}
			// Timestamps decide too little to carry assumptions — run the
			// standard pipeline; the counters still report what they knew.
			rep.Phases.TSOrder = time.Since(tsStart)
		}
	}
	if pg.preDecided > 0 {
		// Only the timestamp path can finish a polygraph whose records
		// pre-decided constraints; the standard pipeline needs them all.
		if ctx.Err() != nil {
			rep.Outcome = Timeout
			return rep
		}
		return pg.checkFull(ctx, opts, rep, false)
	}

	// Sound pre-solve resolution (resolve.go): discharge every constraint
	// the known graph's transitive closure already decides, before any
	// solver exists. Unlike the heuristic pruning below, everything this
	// pass forces is exact, so a cycle among forced edges is an immediate
	// rejection with known-edge evidence, and a fully-resolved constraint
	// set accepts without ever encoding a clause.
	cons, known := pg.Cons, pg.Known
	if !opts.DisableResolve {
		resolveStart := time.Now()
		rr := resolvePolygraph(ctx, pg, pg.Cons, out, order, opts.workers())
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
				// Forced edges joined the known graph (resolvePolygraph
				// extended out in place): recompute the heuristic order over
				// the extended graph — still a DAG, the resolver checked
				// every forced edge against the closure.
				known = make([]KnownEdge, 0, len(pg.Known)+len(rr.forced))
				known = append(append(known, pg.Known...), rr.forced...)
				if order, ok = acyclic.TopoPriority(int(pg.NumNodes), out, less); !ok {
					rep.Outcome = Reject
					rep.KnownCycle = pg.knownCycle(out)
					return rep
				}
				pos = positionsOf(order)
			}
			if len(cons) == 0 {
				// Every constraint resolved: the extended known graph is the
				// whole polygraph and its topological order is the witness.
				rep.Outcome = Accept
				rep.WitnessPositions = positionsOf(order)
				rep.selfCheck(pg, opts)
				return rep
			}
		}
	}

	k := opts.initialK()
	useHeuristic := !opts.DisablePruning
	if !useHeuristic {
		k = 0
	}
	for {
		if ctx.Err() != nil {
			rep.Outcome = Timeout
			return rep
		}
		res := pg.attempt(ctx, opts, rep, cons, known, pos, k, deadline, checkStart, nil)
		switch res {
		case sat.Sat:
			rep.Outcome = Accept
			rep.FinalK = k
			rep.selfCheck(pg, opts)
			return rep
		case sat.Unknown:
			rep.Outcome = Timeout
			return rep
		}
		// Unsat: exact if no heuristic was in force.
		if k == 0 {
			rep.Outcome = Reject
			return rep
		}
		rep.Retries++
		k *= 2
		if k >= int(pg.NumNodes) {
			k = 0 // final, exact attempt
		}
	}
}

// attempt runs one encode+solve round. k > 0 applies heuristic pruning at
// stride k; k == 0 is exact. assume holds constraint-side edges asserted
// as theory constants beyond the known graph (the timestamp fast path's
// chosen sides); with a non-empty assume, Unsat is only exact relative to
// those assumptions. Canceling ctx interrupts the attempt's solver(s);
// the attempt then reports Unknown.
func (pg *Polygraph) attempt(ctx context.Context, opts Options, rep *Report, cons []Constraint, known []KnownEdge, pos []int32, k int, deadline time.Time, checkStart time.Time, assume [][]Edge) sat.Result {
	attReg := opts.Tracer.Start("attempt")
	attReg.SetAttr("k", int64(k))
	defer attReg.End()
	encodeStart := time.Now()

	var forced []Edge    // constraint sides resolved by pruning
	var heuristic []Edge // stride edges
	if k > 0 {
		var keep []Constraint
		violates := func(side []Edge) bool {
			for _, e := range side {
				if int(pos[e.From])-int(pos[e.To]) >= k {
					return true
				}
			}
			return false
		}
		for i, c := range cons {
			fBad, sBad := violates(c.First), violates(c.Second)
			switch {
			case fBad && sBad:
				// Both sides contradict the heuristic order: this attempt
				// cannot succeed; skip the solver and retry with larger k.
				// Stamp what this attempt actually did before bailing —
				// otherwise the counters of a previous, smaller-k attempt
				// leak into the final report.
				rep.PrunedConstraints = i + 1 - len(keep)
				rep.HeuristicEdges = 0
				rep.Phases.Encode += time.Since(encodeStart)
				return sat.Unsat
			case fBad:
				forced = append(forced, c.Second...)
			case sBad:
				forced = append(forced, c.First...)
			default:
				keep = append(keep, c)
			}
		}
		rep.PrunedConstraints = len(cons) - len(keep)
		cons = keep
		heuristic = pg.heuristicEdges(pos, k)
		rep.HeuristicEdges = len(heuristic)
	} else {
		rep.PrunedConstraints = 0
		rep.HeuristicEdges = 0
	}

	n := opts.Portfolio
	if n < 1 {
		n = 1
	}
	type solveOut struct {
		res      sat.Result
		witness  []int32
		stats    sat.Stats
		vars     int
		reorders int64
		moved    int64
		encode   time.Duration
		solve    time.Duration
	}
	runOne := func(seed int64, race *portfolioRace) solveOut {
		encStart := time.Now()
		s := sat.New()
		defer watchCancel(ctx, s)()
		if !deadline.IsZero() {
			s.SetDeadline(deadline)
		}
		if seed > 0 {
			s.SetRandomSeed(seed)
		}
		if race != nil {
			race.register(s)
		}

		var alloc interface {
			EdgeVar(*sat.Solver, int32, int32) sat.Var
			InsertConstant(u, v int32) bool
		}
		var eager *acyclic.EdgeTheory
		var lazyTh *acyclic.LazyEdgeTheory
		if opts.LazyTheory {
			th := acyclic.NewLazyEdgeTheory(int(pg.NumNodes))
			s.SetTheory(th)
			alloc = th
			lazyTh = th
		} else {
			eager = acyclic.NewEdgeTheory(int(pg.NumNodes))
			// Warm-start the incremental topological order with the
			// heuristic schedule: the known graph's edges (the bulk of all
			// insertions) then land in already-consistent positions.
			eager.SeedOrder(pos)
			s.SetTheory(eager)
			alloc = eager
		}
		// Solve-time progress sampling. Installed only outside a portfolio
		// race: racing solvers' counters are not individually meaningful,
		// and losers may outlive the attempt (their callbacks would fire
		// after the winner's report is final). The hook runs synchronously
		// on this solver's goroutine, so reading s.Stats and the theory's
		// counters is race-free; everything else it reads was fixed before
		// the solve began.
		if opts.Progress != nil && race == nil {
			pruned := rep.PrunedConstraints
			s.SetProgress(opts.progressInterval(), func() {
				snap := obs.Snapshot{
					Phase:               "solve",
					ElapsedNS:           int64(time.Since(checkStart)),
					Nodes:               int(pg.NumNodes),
					KnownEdges:          len(known),
					Constraints:         rep.Constraints,
					PrunedConstraints:   pruned,
					ResolvedConstraints: rep.ResolvedConstraints,
					ForcedEdges:         rep.ForcedEdges,
					EdgeVars:            s.NumVars(),
					Conflicts:           s.Stats.Conflicts,
					Decisions:           s.Stats.Decisions,
					Propagations:        s.Stats.Propagations,
					Learnts:             int64(s.Stats.Learnts),
					Restarts:            s.Stats.Restarts,
					TheoryConfl:         s.Stats.TheoryConfl,
					HeapInUse:           obs.HeapInUse(),
				}
				if eager != nil {
					snap.Reorders, snap.ReorderedNodes = eager.Reorders()
				}
				opts.Progress(snap)
			})
		}

		// Edge variables start biased toward their schedule-consistent
		// polarity: an edge running forward in ŝ is probably present, a
		// backward one probably absent. Decisions then reproduce ŝ unless
		// conflicts force otherwise, keeping the search near-linear on
		// healthy histories and localized on violations.
		edgeLit := func(e Edge) sat.Lit {
			v := alloc.EdgeVar(s, e.From, e.To)
			if !opts.DisablePhaseBias {
				s.SetPhase(v, pos[e.From] < pos[e.To])
			}
			return sat.PosLit(v)
		}

		// Known, pruning-forced, and heuristic edges are unconditionally
		// present: they go straight into the theory graph as constants —
		// no SAT variables, no clauses — so the boolean search ranges only
		// over the genuinely unknown constraint edges.
		okSoFar := true
		for _, ke := range known {
			okSoFar = alloc.InsertConstant(ke.From, ke.To) && okSoFar
		}
		for _, e := range forced {
			okSoFar = alloc.InsertConstant(e.From, e.To) && okSoFar
		}
		for _, side := range assume {
			for _, e := range side {
				okSoFar = alloc.InsertConstant(e.From, e.To) && okSoFar
			}
		}
		for _, e := range heuristic {
			okSoFar = alloc.InsertConstant(e.From, e.To) && okSoFar
		}
		for _, c := range cons {
			if len(c.First) == 1 && len(c.Second) == 1 {
				// The paper's XOR encoding (Figure 4 line 22).
				okSoFar = s.AddXOR(edgeLit(c.First[0]), edgeLit(c.Second[0])) && okSoFar
			} else {
				// Coalesced: one selector implying each side; the selector
				// is biased toward the side whose edges follow ŝ.
				sel := s.NewVar()
				if !opts.DisablePhaseBias {
					s.SetPhase(sel, sideForward(c.First, pos))
				}
				for _, e := range c.First {
					okSoFar = s.AddClause(sat.NegLit(sel), edgeLit(e)) && okSoFar
				}
				for _, e := range c.Second {
					okSoFar = s.AddClause(sat.PosLit(sel), edgeLit(e)) && okSoFar
				}
			}
		}

		encDur := time.Since(encStart)
		var res sat.Result
		if !okSoFar {
			res = sat.Unsat
		} else {
			res = s.Solve()
		}
		out := solveOut{res: res, stats: s.Stats, vars: s.NumVars(), encode: encDur}
		if eager != nil {
			out.reorders, out.moved = eager.Reorders()
		}
		if res == sat.Sat {
			if eager != nil {
				w := make([]int32, pg.NumNodes)
				for n := int32(0); n < pg.NumNodes; n++ {
					w[n] = eager.Order(n)
				}
				out.witness = w
			} else if lazyTh != nil {
				// Reconstruct a topological order of the selected graph.
				adj := make([][]int32, pg.NumNodes)
				for _, e := range lazyTh.ActiveEdges() {
					adj[e.From] = append(adj[e.From], e.To)
				}
				if order, ok := acyclic.TopoBFS(int(pg.NumNodes), adj, nil); ok {
					out.witness = positionsOf(order)
				}
			}
		}
		// Everything after encoding — solving plus witness extraction — is
		// this solver's solve time.
		out.solve = time.Since(encStart) - encDur
		return out
	}

	rep.Phases.Encode += time.Since(encodeStart) // pruning + setup

	var win solveOut
	if n == 1 {
		win = runOne(0, nil)
	} else {
		// Portfolio: differently-seeded solvers race; the first definitive
		// verdict wins and returns immediately. The channel is buffered so
		// interrupted losers can always deliver their result and exit; a
		// detached goroutine drains them.
		results := make(chan solveOut, n)
		race := &portfolioRace{}
		for i := 0; i < n; i++ {
			seed := int64(i) // seed 0 = deterministic VSIDS, others random
			go func() { results <- runOne(seed, race) }()
		}
		win = solveOut{res: sat.Unknown}
		for done := 0; done < n; done++ {
			out := <-results
			if out.res == sat.Unknown {
				if done == n-1 {
					// Every solver timed out: book the last finisher so
					// the decomposition still accounts for the attempt.
					win.encode, win.solve = out.encode, out.solve
					win.stats, win.vars = out.stats, out.vars
				}
				continue
			}
			win = out
			race.decide()
			remaining := n - done - 1
			go func() {
				for i := 0; i < remaining; i++ {
					<-results
				}
			}()
			break
		}
	}

	// Attribute encode/solve to the winner only: losing portfolio members'
	// time must not inflate (or, via subtraction, turn negative) the
	// Figure 10 phase decomposition.
	rep.Phases.Encode += win.encode
	rep.Phases.Solve += win.solve
	rep.Solver = win.stats
	rep.EdgeVars = win.vars
	rep.Reorders = win.reorders
	rep.ReorderedNodes = win.moved
	if win.witness != nil {
		rep.WitnessPositions = win.witness
	}
	attReg.Child("encode", win.encode)
	attReg.Child("solve", win.solve)
	return win.res
}

// sideForward reports whether every edge of a constraint side runs
// forward in the heuristic order.
func sideForward(side []Edge, pos []int32) bool {
	for _, e := range side {
		if pos[e.From] >= pos[e.To] {
			return false
		}
	}
	return true
}

// heuristicEdges returns the §3.5 stride edges: each commit node is
// assumed to precede the first begin node at least k positions later in
// the heuristic order ŝ.
func (pg *Polygraph) heuristicEdges(pos []int32, k int) []Edge {
	type pb struct {
		pos  int32
		node int32
	}
	var begins []pb
	for _, t := range pg.H.Txns[1:] {
		if !t.Committed() {
			continue
		}
		b := pg.Begin(t.ID)
		begins = append(begins, pb{pos[b], b})
	}
	sort.Slice(begins, func(i, j int) bool { return begins[i].pos < begins[j].pos })
	var edges []Edge
	for _, t := range pg.H.Txns[1:] {
		if !t.Committed() {
			continue
		}
		c := pg.Commit(t.ID)
		target := pos[c] + int32(k)
		i := sort.Search(len(begins), func(i int) bool { return begins[i].pos >= target })
		if i < len(begins) {
			edges = append(edges, Edge{c, begins[i].node})
		}
	}
	return edges
}

// knownCycle extracts a cycle of the known graph with edge provenance.
func (pg *Polygraph) knownCycle(out [][]int32) []KnownEdge {
	cyc := acyclic.FindCycle(int(pg.NumNodes), out)
	if cyc == nil {
		return nil
	}
	kinds := make(map[Edge]KnownEdge, len(pg.Known))
	for _, ke := range pg.Known {
		kinds[ke.Edge] = ke
	}
	edges := make([]KnownEdge, 0, len(cyc))
	for i := range cyc {
		e := Edge{cyc[i], cyc[(i+1)%len(cyc)]}
		if ke, ok := kinds[e]; ok {
			edges = append(edges, ke)
		} else {
			edges = append(edges, KnownEdge{Edge: e})
		}
	}
	return edges
}

func positionsOf(order []int32) []int32 {
	pos := make([]int32, len(order))
	for i, n := range order {
		pos[n] = int32(i)
	}
	return pos
}

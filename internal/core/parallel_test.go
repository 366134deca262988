package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/sat"
	"viper/internal/workload"
)

// comparePolygraphs fails unless the two builds are byte-identical:
// same nodes, same known-edge list (content and order), same constraint
// list, same contradiction flag, same stats.
func comparePolygraphs(t *testing.T, want, got *Polygraph, label string) {
	t.Helper()
	if want.NumNodes != got.NumNodes {
		t.Fatalf("%s: nodes %d vs %d", label, want.NumNodes, got.NumNodes)
	}
	if want.Contradiction != got.Contradiction {
		t.Fatalf("%s: contradiction %v vs %v", label, want.Contradiction, got.Contradiction)
	}
	if !reflect.DeepEqual(want.Known, got.Known) {
		t.Fatalf("%s: known edges differ:\nwant: %v\ngot:  %v", label, want.Known, got.Known)
	}
	if !reflect.DeepEqual(want.Cons, got.Cons) {
		t.Fatalf("%s: constraints differ:\nwant: %v\ngot:  %v", label, want.Cons, got.Cons)
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, want.Stats(), got.Stats())
	}
}

// TestShardedBuildIdenticalAcrossWorkers is the construction-determinism
// differential: for every level and optimization combination, Build with
// Parallelism 2, 3, and 8 must produce a polygraph identical to the
// one-worker build.
func TestShardedBuildIdenticalAcrossWorkers(t *testing.T) {
	histories := map[string]*history.History{
		"figure2":     figure2(t),
		"long-fork":   longFork(t),
		"lost-update": lostUpdate(t),
		"write-skew":  writeSkew(t),
		"read-skew":   readSkew(t),
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 6; i++ {
		histories["random-serial"] = randomSerialHistory(rng, 30+rng.Intn(40), 5, 3)
	}
	levels := []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability}
	for name, h := range histories {
		for _, level := range levels {
			for _, combo := range []Options{
				{Level: level},
				{Level: level, DisableCombineWrites: true},
				{Level: level, DisableCoalesce: true},
				{Level: level, DisableCombineWrites: true, DisableCoalesce: true},
			} {
				oneOpts := combo
				oneOpts.Parallelism = 1
				one := Build(h, oneOpts)
				for _, p := range []int{2, 3, 8} {
					parOpts := combo
					parOpts.Parallelism = p
					comparePolygraphs(t, one, Build(h, parOpts), name+"/"+level.String())
				}
			}
		}
	}
}

// TestShardedBuildOnGeneratedWorkload runs the differential on a real
// concurrent workload (constraint-heavy blind writes) and additionally
// checks that the verdict and graph statistics agree end to end.
func TestShardedBuildOnGeneratedWorkload(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 16, Txns: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	one := Build(h, Options{Level: AdyaSI, Parallelism: 1})
	for _, p := range []int{2, 8} {
		comparePolygraphs(t, one, Build(h, Options{Level: AdyaSI, Parallelism: p}), "blindw-rw")
	}
	want := CheckHistory(h, Options{Level: AdyaSI, Parallelism: 1})
	for _, p := range []int{0, 2, 8} {
		rep := CheckHistory(h, Options{Level: AdyaSI, Parallelism: p})
		if rep.Outcome != want.Outcome {
			t.Fatalf("parallelism %d: outcome %v, want %v", p, rep.Outcome, want.Outcome)
		}
		if rep.KnownEdges != want.KnownEdges || rep.Constraints != want.Constraints {
			t.Fatalf("parallelism %d: graph stats (%d known, %d cons) vs (%d, %d)",
				p, rep.KnownEdges, rep.Constraints, want.KnownEdges, want.Constraints)
		}
	}
}

// TestConstructTimingsPopulated checks the report's construction wall/CPU
// breakdown: both non-negative, and the worker count reported as
// resolved.
func TestConstructTimingsPopulated(t *testing.T) {
	h := figure2(t)
	rep := CheckHistory(h, Options{Level: AdyaSI, Parallelism: 4})
	if rep.ConstructWorkers != 4 || rep.Phases.Construct < 0 || rep.Phases.ConstructCPU < 0 {
		t.Fatalf("report timings: %+v workers=%d", rep.Phases, rep.ConstructWorkers)
	}
}

// TestPortfolioPhaseTimings asserts the Figure 10 decomposition stays
// sane under portfolio solving: every phase non-negative, and the phase
// sum bounded by the measured wall clock (winner-only attribution — the
// losers' time must not be booked anywhere).
func TestPortfolioPhaseTimings(t *testing.T) {
	// Constraint-heavy non-SI history so there is real solving to race.
	h := longFork(t)
	for _, portfolio := range []int{1, 4, 8} {
		start := time.Now()
		rep := CheckHistory(h, Options{
			Level: AdyaSI, Portfolio: portfolio,
			DisableCombineWrites: true, DisablePruning: true,
		})
		elapsed := time.Since(start)
		if rep.Outcome != Reject {
			t.Fatalf("portfolio %d: outcome %v", portfolio, rep.Outcome)
		}
		ph := rep.Phases
		if ph.Construct < 0 || ph.ConstructCPU < 0 || ph.Encode < 0 || ph.Solve < 0 {
			t.Fatalf("portfolio %d: negative phase timing: %+v", portfolio, ph)
		}
		if sum := ph.Construct + ph.Encode + ph.Solve; sum > elapsed {
			t.Fatalf("portfolio %d: phase sum %v exceeds wall clock %v (losers booked?)",
				portfolio, sum, elapsed)
		}
	}
}

// TestPortfolioRaceInterruptsLosers: solvers registered before the
// decision are interrupted by it.
func TestPortfolioRaceInterruptsLosers(t *testing.T) {
	race := &portfolioRace{}
	s := sat.New()
	pigeonhole(s)
	race.register(s)
	race.decide()
	if res := s.Solve(); res != sat.Unknown {
		t.Fatalf("interrupted loser solved to %v", res)
	}
}

// TestPortfolioRaceLateRegistrantSelfInterrupts: a solver that registers
// after the winner is decided must interrupt itself (without this, a
// straggler still encoding when the race ends would run to completion
// unobserved).
func TestPortfolioRaceLateRegistrantSelfInterrupts(t *testing.T) {
	race := &portfolioRace{}
	race.decide()
	s := sat.New()
	pigeonhole(s)
	race.register(s)
	if res := s.Solve(); res != sat.Unknown {
		t.Fatalf("late registrant solved to %v", res)
	}
}

// pigeonhole encodes PHP(8,7) — unsat, and hard enough that Solve cannot
// finish before noticing an interrupt flag set prior to the call.
func pigeonhole(s *sat.Solver) {
	const p, holes = 8, 7
	occ := make([][]sat.Var, p)
	for i := range occ {
		occ[i] = make([]sat.Var, holes)
		lits := make([]sat.Lit, holes)
		for j := range occ[i] {
			occ[i][j] = s.NewVar()
			lits[j] = sat.PosLit(occ[i][j])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				s.AddClause(sat.NegLit(occ[a][h]), sat.NegLit(occ[b][h]))
			}
		}
	}
}

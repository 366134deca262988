package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/obs"
	"viper/internal/oracle"
)

// countSpans counts the spans named name in tr's forest.
func countSpans(tr *obs.Tracer, name string) int {
	var walk func(ss []*obs.Span) int
	walk = func(ss []*obs.Span) int {
		n := 0
		for _, s := range ss {
			if s.Name == name {
				n++
			}
			n += walk(s.Children)
		}
		return n
	}
	return walk(tr.Trace().Spans)
}

// checkPreDecide compares the polygraph and verdict of h with timestamp
// pre-decision on (opts as given) and off (DisableTSFastPath), failing
// unless
//   - the known graphs are identical,
//   - the materialised constraints with pre-decision on are a
//     subsequence of the full polygraph's,
//   - the verdicts agree with each other and, when want is non-nil, with
//     *want,
//   - a pre-decided accept carries a witness VerifyWitness accepts.
//
// It returns the pre-decided polygraph and its report.
func checkPreDecide(t *testing.T, h *history.History, opts Options, want *Outcome, label string) (*Polygraph, *Report) {
	t.Helper()
	off := opts
	off.DisableTSFastPath = true
	on, full := Build(h, opts), Build(h, off)
	if full.preDecided != 0 || full.full != nil {
		t.Fatalf("%s: DisableTSFastPath still pre-decided %d constraints", label, full.preDecided)
	}
	if on.NumNodes != full.NumNodes || !reflect.DeepEqual(on.Known, full.Known) || on.Contradiction != full.Contradiction {
		t.Fatalf("%s: known graphs differ with pre-decision on (%d edges) and off (%d edges)", label, len(on.Known), len(full.Known))
	}
	j := 0
	for i := range on.Cons {
		for j < len(full.Cons) && !reflect.DeepEqual(on.Cons[i], full.Cons[j]) {
			j++
		}
		if j == len(full.Cons) {
			t.Fatalf("%s: materialised constraint %d (%+v) is not in the full polygraph", label, i, on.Cons[i])
		}
		j++
	}
	if on.preDecided > 0 && on.full == nil {
		t.Fatalf("%s: %d pre-decided constraints but no fallback rebuild", label, on.preDecided)
	}

	opts.SelfCheck, off.SelfCheck = true, true
	repOn, repOff := CheckPolygraph(on, opts), CheckHistory(h, off)
	if viaHistory := CheckHistory(h, opts); viaHistory.Outcome != repOn.Outcome {
		t.Fatalf("%s: CheckHistory %v != CheckPolygraph(Build) %v", label, viaHistory.Outcome, repOn.Outcome)
	}
	if repOn.Outcome != repOff.Outcome {
		t.Fatalf("%s: pre-decision on %v != off %v (%d pre-decided)", label, repOn.Outcome, repOff.Outcome, on.preDecided)
	}
	if want != nil && repOn.Outcome != *want {
		t.Fatalf("%s: verdict %v, want %v", label, repOn.Outcome, *want)
	}
	if repOn.Outcome == Accept {
		if !repOn.WitnessVerified {
			t.Fatalf("%s: accept witness failed self-check: %v", label, repOn.SelfCheckErr)
		}
		if err := VerifyWitness(h, repOn.WitnessPositions, opts.Level); err != nil {
			t.Fatalf("%s: accept witness: %v", label, err)
		}
	}
	// Full rebuild: the fallback's polygraph is the DisableTSFastPath one.
	if on.full != nil {
		rebuilt, _, _ := on.full()
		if !reflect.DeepEqual(rebuilt.Known, full.Known) || !reflect.DeepEqual(rebuilt.Cons, full.Cons) || rebuilt.preDecided != 0 {
			t.Fatalf("%s: fallback rebuild differs from the DisableTSFastPath polygraph", label)
		}
	}
	return on, repOn
}

// skewClocks perturbs the stamps of h: mode 1 shifts a few transactions
// by up to ±spread, mode 2 replaces every stamp with garbage (keeping
// begin <= commit), mode 3 zeroes one transaction's stamps.
func skewClocks(h *history.History, rng *rand.Rand, mode int, spread int64) {
	txns := h.Txns[1:]
	if len(txns) == 0 || spread <= 0 {
		return
	}
	switch mode {
	case 1:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			tx := txns[rng.Intn(len(txns))]
			d := rng.Int63n(2*spread+1) - spread
			if tx.BeginAt+d > 0 {
				tx.BeginAt += d
				tx.CommitAt += d
			}
		}
	case 2:
		for _, tx := range txns {
			b := 1 + rng.Int63n(spread)
			tx.BeginAt, tx.CommitAt = b, b+rng.Int63n(10)
		}
	case 3:
		tx := txns[rng.Intn(len(txns))]
		tx.BeginAt, tx.CommitAt = 0, 0
	}
}

// FuzzTSPreDecide drives generated and mutated timestamped histories,
// with conformant, skewed, garbage and partly absent clocks, through
// checkPreDecide at several levels and drift bounds; tiny AdyaSI cases
// are also held against the exhaustive oracle.
func FuzzTSPreDecide(f *testing.F) {
	f.Add(int64(1), 40, 4, 0, 0, int64(0))
	f.Add(int64(2), 60, 3, 2, 1, int64(50))
	f.Add(int64(3), 30, 2, 1, 2, int64(1000))
	f.Add(int64(4), 5, 2, 1, 0, int64(3))
	f.Add(int64(5), 50, 5, 0, 3, int64(0))
	f.Add(int64(6), 80, 3, 3, 1, int64(5))
	f.Fuzz(func(t *testing.T, seed int64, txns, keys, mutations, clockMode int, drift int64) {
		txns = 2 + abs(txns)%90
		keys = 1 + abs(keys)%6
		drift = abs64(drift) % 2000
		rng := rand.New(rand.NewSource(seed))
		h := histgen.SI(histgen.Spec{Txns: txns, Keys: keys, MaxConcurrency: 1 + int(abs64(seed)%5), Seed: seed})
		for m := abs(mutations) % 4; m > 0; m-- {
			mutateObservation(h, rng)
		}
		skewClocks(h, rng, abs(clockMode)%4, 1+drift*3)
		if err := h.Validate(); err != nil {
			return // mutation broke a validation invariant: not our input
		}
		var want *Outcome
		if txns <= 7 && keys <= 2 { // the exhaustive oracle is exponential
			o := Reject
			if oracle.IsSI(h) {
				o = Accept
			}
			want = &o
		}
		for _, level := range []Level{AdyaSI, GSI, Serializability} {
			w := want
			if level != AdyaSI {
				w = nil
			}
			for _, coalesce := range []bool{true, false} {
				opts := Options{Level: level, ClockDrift: time.Duration(drift), DisableCoalesce: !coalesce, Parallelism: 1}
				checkPreDecide(t, h, opts, w, level.String())
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestTSPreDecideConformant: on serial and concurrent SI histories with
// honest clocks the recording pass pre-decides, the report's counters
// count pre-decided constraints (Constraints = materialised +
// pre-decided, TSDecided = pre-decided + check-time decided), and
// accepts need no re-recording. A pre-decided constraint is counted as
// recorded: the replay never sees its unchosen side, so one that known
// edges would have made vacuous still counts, and the count can only
// exceed the full polygraph's by such constraints.
func TestTSPreDecideConformant(t *testing.T) {
	accept := Accept
	for seed := int64(0); seed < 4; seed++ {
		h := histgen.SI(histgen.Spec{Txns: 200, Keys: 5, MaxConcurrency: 1 + int(seed), Seed: seed})
		for _, level := range []Level{AdyaSI, StrongSessionSI, StrongSI, Serializability} {
			opts := Options{Level: level}
			want := &accept
			if level == Serializability {
				want = nil // SI histories may hold write skew
			}
			pg, rep := checkPreDecide(t, h, opts, want, level.String())
			if level == AdyaSI && seed == 0 && (pg.preDecided == 0 || len(pg.Cons) != 0) {
				t.Fatalf("serial history: %d pre-decided, %d materialised; want every constraint pre-decided",
					pg.preDecided, len(pg.Cons))
			}
			off := opts
			off.DisableTSFastPath = true
			full := Build(h, off)
			if rep.Outcome != Accept {
				continue // a fallback's report counts the full polygraph
			}
			if rep.Constraints != len(pg.Cons)+pg.preDecided || rep.TSDecided+rep.TSResidual != rep.Constraints {
				t.Fatalf("seed %d %v: counters %d constraints, %d decided, %d residual over %d materialised + %d pre-decided",
					seed, level, rep.Constraints, rep.TSDecided, rep.TSResidual, len(pg.Cons), pg.preDecided)
			}
			if extra := rep.Constraints - len(full.Cons); extra < 0 || extra > pg.preDecided {
				t.Fatalf("seed %d %v: %d constraints counted, the full polygraph has %d (%d pre-decided)",
					seed, level, rep.Constraints, len(full.Cons), pg.preDecided)
			}
			tr := obs.NewTracer()
			opts.Tracer = tr
			if r := CheckHistory(h, opts); r.Outcome != Accept || countSpans(tr, "construct") != 1 {
				t.Fatalf("seed %d %v: %v with %d construct spans; want an accept without re-recording",
					seed, level, r.Outcome, countSpans(tr, "construct"))
			}
		}
	}
}

// TestTSPreDecideRejectFallsBack: a lost update among pre-decided
// constraints leaves a residue the chosen sides refute, so the check
// re-records the pre-decided keys (one more construct span, timed as
// construction) and rejects through the ts-off pipeline, which counts
// the full polygraph.
func TestTSPreDecideRejectFallsBack(t *testing.T) {
	reject := Reject
	for seed := int64(0); seed < 4; seed++ {
		h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 200, Keys: 5, MaxConcurrency: 3, Seed: seed}), anomaly.LostUpdate)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		pg, _ := checkPreDecide(t, h, Options{Level: AdyaSI}, &reject, "lost update")
		if pg.preDecided == 0 {
			t.Fatalf("seed %d: nothing pre-decided", seed)
		}
		tr := obs.NewTracer()
		rep := CheckHistory(h, Options{Level: AdyaSI, Tracer: tr})
		if rep.Outcome != Reject || countSpans(tr, "construct") != 2 {
			t.Fatalf("seed %d: %v with %d construct spans; want a reject after one re-recording",
				seed, rep.Outcome, countSpans(tr, "construct"))
		}
		if rep.Constraints != len(Build(h, Options{Level: AdyaSI, DisableTSFastPath: true}).Cons) {
			t.Fatalf("seed %d: fallback report counts %d constraints, not the full polygraph's", seed, rep.Constraints)
		}
		if rep.Retries == 0 {
			t.Fatalf("seed %d: the refuted timestamp attempt is not counted as a retry", seed)
		}
	}
}

// TestTSPreDecideAdversarialClocksCloseGate: scrambled clocks, as in
// TestPruningRobustToAdversarialClocks, contradict read dependencies, so
// the gate closes before any work: nothing is pre-decided and nothing is
// recorded twice, and the verdict stands.
func TestTSPreDecideAdversarialClocksCloseGate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		h := randomSerialHistory(rng, 40, 4, 3)
		for _, tx := range h.Txns[1:] {
			b := rng.Int63n(1000)
			tx.BeginAt, tx.CommitAt = b, b+1+rng.Int63n(10)
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		opts := Options{Level: AdyaSI, InitialK: 2}
		if PreDecides(h, opts) {
			t.Fatalf("iter %d: scrambled clocks left the pre-decision gate open", iter)
		}
		if pg := Build(h, opts); pg.preDecided != 0 || pg.full != nil {
			t.Fatalf("iter %d: closed gate still pre-decided %d constraints", iter, pg.preDecided)
		}
		tr := obs.NewTracer()
		opts.Tracer = tr
		if rep := CheckHistory(h, opts); rep.Outcome != Accept || countSpans(tr, "construct") != 1 {
			t.Fatalf("iter %d: %v with %d construct spans; want an accept recorded once",
				iter, rep.Outcome, countSpans(tr, "construct"))
		}
	}
}

// TestTSPreDecideSessionGateMoves streams a history whose late
// transactions contradict a read dependency through a session: once the
// gate closes, every record is recorded again without pre-decision, and
// each audit's polygraph equals Build's on the same history.
func TestTSPreDecideSessionGateMoves(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 160, Keys: 4, MaxConcurrency: 2, Seed: 9})
	// Stamp a late reader at time 1, before the commit of the version it
	// read: its read dependency runs backward under any drift.
	var bad *history.Txn
	for _, tx := range h.Txns[100:] {
		tx.ExternalReads(func(_ history.Key, obs history.WriteID) {
			if bad == nil && obs != history.GenesisWriteID {
				bad = tx
			}
		})
	}
	if bad == nil {
		t.Fatal("no late reader")
	}
	inc := NewIncremental(Options{Level: AdyaSI})
	for at := 1; at < len(h.Txns); at += 40 {
		hi := min(at+40, len(h.Txns))
		for _, txn := range h.Txns[at:hi] {
			t2 := *txn
			if txn == bad {
				t2.BeginAt, t2.CommitAt = 1, 1
			}
			inc.Append(&t2)
		}
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		if rep := inc.Audit(); rep.Outcome != Accept {
			t.Fatalf("audit at %d txns: %v, want Accept", hi, rep.Outcome)
		}
		got, pg := inc.assemble(), Build(inc.History(), Options{Level: AdyaSI})
		if got.preDecided != pg.preDecided || !reflect.DeepEqual(got.Known, pg.Known) ||
			!reflect.DeepEqual(got.Cons, pg.Cons) || !reflect.DeepEqual(got.chosen, pg.chosen) {
			t.Fatalf("audit at %d txns: the session's polygraph differs from Build's", hi)
		}
		if hi > int(bad.ID) && (inc.preDecide || pg.preDecided != 0) {
			t.Fatalf("audit at %d txns: gate still open after a contradicted read", hi)
		}
	}
}

package core

import (
	"math/rand"
	"testing"
	"time"

	"viper/internal/anomaly"
	"viper/internal/histgen"
	"viper/internal/history"
	"viper/internal/oracle"
)

// checkTSBoth runs the same history with the timestamp fast path enabled
// and disabled and fails unless both verdicts match want (the fast path
// is sound: it may never flip a verdict). Accepts additionally replay
// their witness.
func checkTSBoth(t *testing.T, h *history.History, level Level, want Outcome, label string) (on, off *Report) {
	t.Helper()
	on = CheckHistory(h, Options{Level: level, SelfCheck: true})
	off = CheckHistory(h, Options{Level: level, DisableTSFastPath: true, SelfCheck: true})
	if on.Outcome != off.Outcome {
		t.Fatalf("%s: ts-on %v != ts-off %v", label, on.Outcome, off.Outcome)
	}
	if on.Outcome != want {
		t.Fatalf("%s: got %v, want %v", label, on.Outcome, want)
	}
	if off.TSDecided != 0 || off.TSResidual != 0 {
		t.Fatalf("%s: DisableTSFastPath reported fast-path work (%d decided, %d residual)",
			label, off.TSDecided, off.TSResidual)
	}
	if on.Outcome == Accept && !on.WitnessVerified {
		t.Fatalf("%s: ts-on accept witness failed self-check", label)
	}
	if off.Outcome == Accept && !off.WitnessVerified {
		t.Fatalf("%s: ts-off accept witness failed self-check", label)
	}
	return on, off
}

// TestTSFastPathDifferentialGenerated cross-checks the fast path on
// schedule-sampled SI histories (accepted by construction) across every
// polygraph level, including the Serializability node mapping (where the
// verdict is whatever it is — only on/off equality is asserted).
func TestTSFastPathDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := histgen.SI(histgen.Spec{Txns: 200, Keys: 6, MaxConcurrency: 6, AbortEvery: 9, Seed: seed})
		for _, level := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI} {
			on, _ := checkTSBoth(t, h, level, Accept, "generated SI")
			if on.TSUnusable != "" {
				t.Fatalf("seed %d level %v: generated history reported unusable timestamps: %s",
					seed, level, on.TSUnusable)
			}
		}
		onSer := CheckHistory(h, Options{Level: Serializability, SelfCheck: true})
		offSer := CheckHistory(h, Options{Level: Serializability, DisableTSFastPath: true, SelfCheck: true})
		if onSer.Outcome != offSer.Outcome {
			t.Fatalf("seed %d: serializability ts-on %v != ts-off %v", seed, onSer.Outcome, offSer.Outcome)
		}
	}
}

// TestTSFastPathDifferentialAnomalies injects every polygraph-level
// anomaly and checks both configurations reject: the timestamps of a
// violating history must never talk the checker into an accept, and an
// Unsat under timestamp assumptions must fall back rather than reject.
func TestTSFastPathDifferentialAnomalies(t *testing.T) {
	for _, kind := range anomaly.Kinds() {
		if kind.ValidationLevel() {
			continue // rejected before the polygraph is built
		}
		for seed := int64(0); seed < 4; seed++ {
			h := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 120, Keys: 5, Seed: seed}), kind)
			if err := h.Validate(); err != nil {
				t.Fatal(err)
			}
			checkTSBoth(t, h, AdyaSI, Reject, kind.String())
		}
	}
}

// TestTSFastPathDifferentialFuzz mutates observations of generated SI
// histories and checks verdict equality on whatever comes out; tiny
// cases are additionally compared against the exhaustive oracle.
func TestTSFastPathDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		spec := histgen.Spec{Txns: 40, Keys: 3, MaxConcurrency: 4, Seed: int64(100 + iter)}
		tiny := iter%2 == 0
		if tiny {
			spec.Txns, spec.Keys = 7, 2
		}
		h := histgen.SI(spec)
		for m := rng.Intn(3); m >= 0; m-- {
			mutateObservation(h, rng)
		}
		if err := h.Validate(); err != nil {
			continue // mutation broke a validation invariant: not our input
		}
		on := CheckHistory(h, Options{Level: AdyaSI})
		off := CheckHistory(h, Options{Level: AdyaSI, DisableTSFastPath: true})
		if on.Outcome != off.Outcome {
			t.Fatalf("iter %d: ts-on %v != ts-off %v", iter, on.Outcome, off.Outcome)
		}
		if tiny {
			want := Reject
			if oracle.IsSI(h) {
				want = Accept
			}
			if on.Outcome != want {
				t.Fatalf("iter %d: checker %v, oracle %v", iter, on.Outcome, want)
			}
		}
	}
}

// TestTSFastPathDifferentialIncremental streams a history that turns bad
// mid-stream through two sessions (fast path on / off) and checks the
// verdicts agree at every audit. The interleaved generation appends
// concurrent transactions that begin before their predecessors commit.
func TestTSFastPathDifferentialIncremental(t *testing.T) {
	bad := anomaly.Inject(histgen.SI(histgen.Spec{Txns: 300, Keys: 6, MaxConcurrency: 5, Seed: 13}), anomaly.LostUpdate)
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	audit := func(inc *Incremental) *Report {
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		return inc.Audit()
	}
	on := NewIncremental(Options{Level: AdyaSI})
	off := NewIncremental(Options{Level: AdyaSI, DisableTSFastPath: true})
	const step = 60
	var last *Report
	for at := 1; at < len(bad.Txns); at += step {
		hi := at + step
		if hi > len(bad.Txns) {
			hi = len(bad.Txns)
		}
		for _, txn := range bad.Txns[at:hi] {
			t2 := *txn
			on.Append(&t2)
			t3 := *txn
			off.Append(&t3)
		}
		a, b := audit(on), audit(off)
		if a.Outcome != b.Outcome {
			t.Fatalf("audit at %d txns: ts-on %v != ts-off %v", hi, a.Outcome, b.Outcome)
		}
		if a.TSUnusable != "" {
			t.Fatalf("audit at %d txns: generated history reported unusable timestamps: %s", hi, a.TSUnusable)
		}
		last = a
	}
	if last == nil || last.Outcome != Reject {
		t.Fatalf("final audit: %+v, want Reject", last)
	}
}

// TestTSFastPathIncrementalMonotone streams a serial history (appended in
// timestamp order) through a session: every audit accepts with the fast
// path deciding every constraint and the timestamps usable throughout.
func TestTSFastPathIncrementalMonotone(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 240, Keys: 5, MaxConcurrency: 1, Seed: 5})
	inc := NewIncremental(Options{Level: AdyaSI, SelfCheck: true})
	const step = 60
	var last *Report
	for at := 1; at < len(h.Txns); at += step {
		hi := at + step
		if hi > len(h.Txns) {
			hi = len(h.Txns)
		}
		for _, txn := range h.Txns[at:hi] {
			t2 := *txn
			inc.Append(&t2)
		}
		if err := inc.History().Validate(); err != nil {
			t.Fatal(err)
		}
		last = inc.Audit()
		if last.Outcome != Accept {
			t.Fatalf("audit at %d txns: %v, want Accept", hi, last.Outcome)
		}
		if !last.WitnessVerified {
			t.Fatalf("audit at %d txns: witness failed self-check", hi)
		}
		if last.TSResidual != 0 {
			t.Fatalf("audit at %d txns: serial ingest left %d constraints undecided", hi, last.TSResidual)
		}
		if last.TSUnusable != "" {
			t.Fatalf("audit at %d txns: unusable: %s", hi, last.TSUnusable)
		}
	}
	if last.TSDecided == 0 {
		t.Fatal("session fast path never decided a constraint on a serial history")
	}
}

// TestTSFastPathPureAccept pins the zero-solver accept: on a serial
// timestamped history every constraint is decided and the chosen sides
// follow the topological order, so the batch check accepts with no edge
// variables, no solver work, and a verified witness.
func TestTSFastPathPureAccept(t *testing.T) {
	h := histgen.SI(histgen.Spec{Txns: 300, Keys: 5, MaxConcurrency: 1, Seed: 3})
	rep := CheckHistory(h, Options{Level: AdyaSI, SelfCheck: true})
	if rep.Outcome != Accept {
		t.Fatalf("outcome %v, want Accept", rep.Outcome)
	}
	if rep.Constraints == 0 {
		t.Fatal("degenerate history: no constraints to decide")
	}
	if rep.TSDecided != rep.Constraints || rep.TSResidual != 0 {
		t.Fatalf("decided %d of %d constraints (%d residual), want all",
			rep.TSDecided, rep.Constraints, rep.TSResidual)
	}
	if rep.EdgeVars != 0 || rep.Solver.Decisions != 0 {
		t.Fatalf("pure accept touched the solver: %d edge vars, %d decisions",
			rep.EdgeVars, rep.Solver.Decisions)
	}
	if !rep.WitnessVerified {
		t.Fatal("witness failed self-check")
	}
}

// TestTSFastPathUnusableMixed pins satellite 3: a history where only some
// transactions carry timestamps must deterministically disable the fast
// path and report why, both in a one-shot check and across the audits of a
// session — never derive an order from zero-valued stamps.
func TestTSFastPathUnusableMixed(t *testing.T) {
	mixed := func() []*history.Txn {
		return []*history.Txn{
			{Session: 0, BeginAt: 1, CommitAt: 2,
				Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}},
			// No stamps: a hand-built or Jepsen-imported transaction.
			{Session: 1, SeqInSession: 0,
				Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}},
			{Session: 2, BeginAt: 5, CommitAt: 6,
				Ops: []history.Op{{Kind: history.OpRead, Key: "x", Observed: 2}}},
		}
	}
	h := history.New()
	for _, txn := range mixed() {
		h.Append(txn)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := CheckHistory(h, Options{Level: AdyaSI})
	if rep.TSUnusable == "" {
		t.Fatal("mixed-timestamp history did not report unusable timestamps")
	}
	if rep.TSDecided != 0 || rep.TSResidual != 0 {
		t.Fatalf("unusable timestamps still classified constraints (%d decided, %d residual)",
			rep.TSDecided, rep.TSResidual)
	}
	off := CheckHistory(h, Options{Level: AdyaSI, DisableTSFastPath: true})
	if rep.Outcome != off.Outcome {
		t.Fatalf("ts-on %v != ts-off %v", rep.Outcome, off.Outcome)
	}
	if off.TSUnusable != "" {
		t.Fatal("DisableTSFastPath still probed timestamp usability")
	}

	// Session variant: both the first audit and a later one, after an
	// append of a fully stamped transaction, report the unusable stamps.
	inc := NewIncremental(Options{Level: AdyaSI})
	for _, txn := range mixed() {
		t2 := *txn
		inc.Append(&t2)
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}
	if rep := inc.Audit(); rep.TSUnusable == "" {
		t.Fatal("first audit did not report unusable timestamps")
	}
	inc.Append(&history.Txn{Session: 3, BeginAt: 7, CommitAt: 8,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "y", WriteID: 3}}})
	if err := inc.History().Validate(); err != nil {
		t.Fatal(err)
	}
	rep2 := inc.Audit()
	if rep2.TSUnusable == "" {
		t.Fatal("second audit did not report unusable timestamps")
	}
	if rep2.Outcome != Accept {
		t.Fatalf("second audit: %v, want Accept", rep2.Outcome)
	}
}

// TestTSUsableReasons pins the usability scan's verdicts: nil history,
// genesis-only, zero stamps, and commit-before-begin.
func TestTSUsableReasons(t *testing.T) {
	if ok, _ := tsUsable(nil); ok {
		t.Fatal("nil history reported usable")
	}
	if ok, reason := tsUsable(history.New()); !ok {
		t.Fatalf("genesis-only history unusable: %s", reason)
	}
	h := history.New()
	h.Append(&history.Txn{Session: 0, BeginAt: 10, CommitAt: 4,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	if ok, reason := tsUsable(h); ok || reason == "" {
		t.Fatalf("commit-before-begin accepted (ok=%v reason=%q)", ok, reason)
	}
	// Aborted transactions are exempt: they contribute no edges.
	h2 := history.New()
	h2.Append(&history.Txn{Session: 0, BeginAt: 1, CommitAt: 2,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	h2.Append(&history.Txn{Session: 1, Status: history.StatusAborted,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}})
	if ok, reason := tsUsable(h2); !ok {
		t.Fatalf("aborted zero-stamp txn flagged: %s", reason)
	}
}

// TestTSOrderDriftBoundaryStrict pins the strict drift semantics of the
// classification against realtime.go's: with gap g between one writer's
// commit and the next writer's begin, drift == g must leave the
// constraint undecided (ts(j) − ts(i) > drift is strict) while
// drift == g−1 decides it — both where the recording pass pre-decides
// (the constraint is then never built) and where the check classifies
// the materialised polygraph. This is the boundary agreement between
// tsorder.go and realtime.go.
func TestTSOrderDriftBoundaryStrict(t *testing.T) {
	h := history.New()
	h.Append(&history.Txn{Session: 0, BeginAt: 1, CommitAt: 2,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 1}}})
	h.Append(&history.Txn{Session: 1, BeginAt: 100, CommitAt: 101,
		Ops: []history.Op{{Kind: history.OpWrite, Key: "x", WriteID: 2}}})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Largest edge gap on the winning side is b(T2) − c(T1) = 98.
	for _, tc := range []struct {
		drift   time.Duration
		decided int
	}{{97 * time.Nanosecond, 1}, {98 * time.Nanosecond, 0}} {
		pg := Build(h, Options{Level: AdyaSI, ClockDrift: tc.drift})
		if pg.preDecided != tc.decided || len(pg.Cons) != 1-tc.decided {
			t.Fatalf("drift %v: pre-decided %d, materialised %d; want %d pre-decided of the one WW constraint",
				tc.drift, pg.preDecided, len(pg.Cons), tc.decided)
		}
		full := Build(h, Options{Level: AdyaSI, DisableTSFastPath: true})
		if len(full.Cons) != 1 {
			t.Fatalf("want exactly one WW constraint, got %d", len(full.Cons))
		}
		if got := full.tsClassify(tc.drift.Nanoseconds()).decided; got != tc.decided {
			t.Fatalf("drift %v: check-time classification decided %d, want %d", tc.drift, got, tc.decided)
		}
	}
}

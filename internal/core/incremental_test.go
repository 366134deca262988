package core

import (
	"fmt"
	"testing"

	"viper/internal/history"
	"viper/internal/runner"
	"viper/internal/workload"
)

// appendAll validates-then-audits after appending the given transactions,
// failing the test on a validation error.
func (inc *Incremental) mustAudit(t *testing.T, txns ...*history.Txn) *Report {
	t.Helper()
	for _, tx := range txns {
		t2 := *tx
		inc.Append(&t2)
	}
	if err := inc.History().Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return inc.Audit()
}

// TestIncrementalWarmPathEngages audits one session three times — half the
// history, all of it, then again with no appends — and asserts every audit
// accepts with a witness that passes the self-check.
func TestIncrementalWarmPathEngages(t *testing.T) {
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 4, Txns: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(Options{Level: AdyaSI, SelfCheck: true})
	mid := h.Len() / 2
	rep := inc.mustAudit(t, h.Txns[1:1+mid]...)
	if rep.Outcome != Accept {
		t.Fatalf("first audit: %v", rep.Outcome)
	}
	rep = inc.mustAudit(t, h.Txns[1+mid:]...)
	if rep.Outcome != Accept {
		t.Fatalf("second audit: %v", rep.Outcome)
	}
	if rep.SelfCheckErr != nil {
		t.Fatalf("second audit witness self-check: %v", rep.SelfCheckErr)
	}
	// Third audit with no appends: same verdict.
	if rep = inc.mustAudit(t); rep.Outcome != Accept {
		t.Fatalf("no-op re-audit: outcome=%v", rep.Outcome)
	}
}

// TestIncrementalWarmNotUsedForRealTimeLevels: on levels with real-time
// obligations, whose auxiliary edges change with every append, a session
// audited twice matches the batch verdict.
func TestIncrementalWarmNotUsedForRealTimeLevels(t *testing.T) {
	h := figure2(t)
	for _, level := range []Level{GSI, StrongSessionSI, StrongSI} {
		inc := NewIncremental(Options{Level: level})
		inc.mustAudit(t, h.Txns[1:2]...)
		rep := inc.mustAudit(t, h.Txns[2:]...)
		want := CheckHistory(h, Options{Level: level})
		if rep.Outcome != want.Outcome {
			t.Fatalf("%v: incremental=%v batch=%v", level, rep.Outcome, want.Outcome)
		}
	}
}

// TestIncrementalRejectIsCached: once an audit rejects at the graph level,
// later audits return the cached report without re-solving (the checked
// levels are prefix-closed).
func TestIncrementalRejectIsCached(t *testing.T) {
	h := longFork(t)
	inc := NewIncremental(Options{Level: AdyaSI})
	rep := inc.mustAudit(t, h.Txns[1:]...)
	if rep.Outcome != Reject {
		t.Fatalf("long fork: %v", rep.Outcome)
	}
	// Append a harmless transaction; the verdict must remain the same
	// cached report (SI is prefix-closed, so no work is owed).
	extra := &history.Txn{Session: 9, Ops: []history.Op{
		{Kind: history.OpWrite, Key: "z", WriteID: 999}}}
	again := inc.mustAudit(t, extra)
	if again != rep {
		t.Fatal("rejection should be cached and returned verbatim")
	}
}

// TestIncrementalChainGrowthStaysSound: a later read-modify-write that
// extends a writer chain changes the key's chain partition; the session
// regenerates the key's record and still matches the batch verdict.
func TestIncrementalChainGrowthStaysSound(t *testing.T) {
	b := history.NewBuilder()
	s1, s2, s3 := b.Session(), b.Session(), b.Session()
	t1 := s1.Txn().Write("x").Commit()
	s2.Txn().Write("x").Commit() // second chain on x
	s3.Txn().Write("y").Commit()
	h := b.MustHistory()

	inc := NewIncremental(Options{Level: AdyaSI})
	rep := inc.mustAudit(t, h.Txns[1:]...)
	if rep.Outcome != Accept {
		t.Fatalf("first audit: %v", rep.Outcome)
	}
	rep = inc.mustAudit(t) // no-op audit
	if rep.Outcome != Accept {
		t.Fatalf("no-op audit: outcome=%v", rep.Outcome)
	}

	// An RMW of t1's write extends t1's chain: x's partition changes from
	// {t1},{t2} to {t1,t4},{t2} — old chain {t1} is gone (t1 now heads a
	// longer chain), so x's constraints must be rebuilt from scratch.
	rmw := &history.Txn{Session: 3, Ops: []history.Op{
		{Kind: history.OpRead, Key: "x", Observed: t1.WriteIDOf("x")},
		{Kind: history.OpWrite, Key: "x", WriteID: 777},
	}}
	rep = inc.mustAudit(t, rmw)
	full := inc.History()
	want := CheckHistory(full, Options{Level: AdyaSI})
	if rep.Outcome != want.Outcome {
		t.Fatalf("after chain growth: incremental=%v batch=%v", rep.Outcome, want.Outcome)
	}
}

// TestIncrementalValidationRejectNotSticky: a prefix that fails validation
// (future read) is rejected by the wrapper layers without consulting the
// graph machinery, and the same session accepts once the missing write
// arrives — unlike graph rejections, validation rejections are not final.
func TestIncrementalValidationRejectNotSticky(t *testing.T) {
	inc := NewIncremental(Options{Level: AdyaSI})
	reader := &history.Txn{Session: 0, Ops: []history.Op{
		{Kind: history.OpRead, Key: "x", Observed: 5}}}
	r2 := *reader
	inc.Append(&r2)
	if err := inc.History().Validate(); err == nil {
		t.Fatal("future read should fail validation")
	}
	// The writer arrives; the full history now validates and is SI.
	writer := &history.Txn{Session: 1, Ops: []history.Op{
		{Kind: history.OpWrite, Key: "x", WriteID: 5}}}
	rep := inc.mustAudit(t, writer)
	if rep.Outcome != Accept {
		t.Fatalf("after writer arrived: %v", rep.Outcome)
	}
}

// TestIncrementalFirstAuditMatchesBatchPolygraph: a history streamed into
// a session in batches must assemble to Build's polygraph byte for byte at
// every audit — the first one and every extension — so session and
// one-shot reports describe the same graph.
func TestIncrementalFirstAuditMatchesBatchPolygraph(t *testing.T) {
	rangeB, _, err := runner.Run(workload.NewRangeB(), runner.Config{Clients: 3, Txns: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// A range query silent about a key first written in a later batch read
	// the key's initial version, so the session adds it to the key's
	// genesis readers retroactively. It must land at its transaction-order
	// position, ahead of the newer plain reader, where Build puts it: the
	// anti-dependency edges toward the writer then come out in Build's
	// order.
	retroactive := []*history.Txn{
		{Session: 0, Ops: []history.Op{{Kind: history.OpRange, Lo: "a", Hi: "z"}}},
		{Session: 1, Ops: []history.Op{{Kind: history.OpRead, Key: "k", Observed: history.GenesisWriteID}}},
		{Session: 2, Ops: []history.Op{{Kind: history.OpWrite, Key: "k", WriteID: 1}}},
	}
	for _, tc := range []struct {
		name string
		txns []*history.Txn
		step int
	}{
		{"range-b", rangeB.Txns[1:], 7},
		{"retroactive-range-genesis", retroactive, 2},
	} {
		for _, level := range []Level{AdyaSI, Serializability, StrongSessionSI} {
			opts := Options{Level: level}
			inc := NewIncremental(opts)
			for at := 0; at < len(tc.txns); at += tc.step {
				hi := min(at+tc.step, len(tc.txns))
				inc.mustAudit(t, tc.txns[at:hi]...)
				comparePolygraphs(t, Build(inc.History(), opts), inc.assemble(),
					fmt.Sprintf("%s, %v, audit at %d txns", tc.name, level, hi))
			}
		}
	}
}

// TestSessionReportMatchesBatch streams a BlindW-RW history into a session,
// once with its timestamps and once with them zeroed, and at every audit
// compares the session's report with CheckHistory on the same history:
// a session report describes that audit alone, field for field.
func TestSessionReportMatchesBatch(t *testing.T) {
	type fields struct {
		Outcome                                                          Outcome
		Nodes, KnownEdges, Constraints, ResolvedConstraints, ForcedEdges int
		TSDecided, TSResidual                                            int
		WitnessVerified                                                  bool
	}
	pick := func(r *Report) fields {
		return fields{r.Outcome, r.Nodes, r.KnownEdges, r.Constraints, r.ResolvedConstraints,
			r.ForcedEdges, r.TSDecided, r.TSResidual, r.WitnessVerified}
	}
	h, _, err := runner.Run(workload.NewBlindWRW(), runner.Config{Clients: 8, Txns: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, stamped := range []bool{true, false} {
		opts := Options{Level: AdyaSI, SelfCheck: true}
		inc := NewIncremental(opts)
		const step = 50
		for at := 1; at < len(h.Txns); at += step {
			hi := min(at+step, len(h.Txns))
			for _, tx := range h.Txns[at:hi] {
				t2 := *tx
				if !stamped {
					t2.BeginAt, t2.CommitAt = 0, 0
				}
				inc.Append(&t2)
			}
			if err := inc.History().Validate(); err != nil {
				t.Fatal(err)
			}
			got := inc.Audit()
			want := CheckHistory(inc.History(), opts)
			if g, w := pick(got), pick(want); g != w {
				t.Fatalf("stamped=%v, audit at %d txns: session %+v, batch %+v", stamped, hi-1, g, w)
			}
			if got.Outcome != Accept {
				t.Fatalf("stamped=%v, audit at %d txns: %v, want Accept", stamped, hi-1, got.Outcome)
			}
		}
	}
}

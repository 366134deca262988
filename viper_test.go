package viper

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestPublicAPIQuickstart(t *testing.T) {
	b := NewHistoryBuilder()
	s := b.Session()
	w := s.Txn().Write("x").Commit()
	s.Txn().ReadObserved("x", w.WriteIDOf("x")).Commit()
	h, err := b.History()
	if err != nil {
		t.Fatal(err)
	}
	res := Check(h, Options{Level: AdyaSI})
	if res.Outcome != Accept || res.Report == nil {
		t.Fatalf("res = %+v", res)
	}
}

func TestCheckRejectsValidationViolation(t *testing.T) {
	b := NewHistoryBuilder()
	s := b.Session()
	tb := s.Txn().Write("x")
	wid := tb.WriteIDOf("x")
	tb.Abort()
	s.Txn().ReadObserved("x", wid).Commit()
	h := b.RawHistory()
	res := Check(h, Options{Level: AdyaSI})
	if res.Outcome != Reject || res.Violation == nil {
		t.Fatalf("res = %+v", res)
	}
	var verr *ValidationError
	if !errors.As(res.Violation, &verr) {
		t.Fatalf("violation = %v", res.Violation)
	}
}

func TestRunWorkloadAndFileRoundTrip(t *testing.T) {
	h, st, err := RunWorkload(NewBlindWRW(), RunConfig{Clients: 4, Txns: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 50 {
		t.Fatalf("stats = %+v", st)
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := WriteHistory(path, h); err != nil {
		t.Fatal(err)
	}
	res, err := CheckFile(path, Options{Level: StrongSI, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Accept {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.ParseTime <= 0 {
		t.Fatal("parse time not recorded")
	}
}

func TestCheckFileMissing(t *testing.T) {
	if _, err := CheckFile("/nonexistent/zzz.jsonl", Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAllGeneratorsExported(t *testing.T) {
	gens := []Generator{
		NewBlindWRW(), NewBlindWRM(), NewRangeB(), NewRangeRQH(), NewRangeIDH(),
		NewAppend(), NewTPCC(10), NewRUBiS(10, 10), NewTwitter(10),
	}
	for _, g := range gens {
		if g.Name() == "" {
			t.Fatal("generator without a name")
		}
	}
}

func TestLevelsRoundTrip(t *testing.T) {
	for _, l := range []Level{AdyaSI, GSI, StrongSessionSI, StrongSI, Serializability} {
		b := NewHistoryBuilder()
		s := b.Session()
		s.Txn().Write("x").Commit()
		h, err := b.History()
		if err != nil {
			t.Fatal(err)
		}
		if res := Check(h, Options{Level: l}); res.Outcome != Accept {
			t.Fatalf("level %v: %v", l, res.Outcome)
		}
	}
}

// TestAuditMatrixIncrementalDifferential pins the facade contract: after
// every append batch, Checker.AuditMatrix (the matrix session) returns
// exactly the per-level outcomes of a one-shot CheckMatrix over a
// snapshot of the same transactions.
func TestAuditMatrixIncrementalDifferential(t *testing.T) {
	h, _, err := RunWorkload(NewBlindWRW(), RunConfig{Clients: 4, Txns: 36, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(Options{})
	for i := 1; i < len(h.Txns); {
		end := i + 9
		if end > len(h.Txns) {
			end = len(h.Txns)
		}
		c.Append(h.Txns[i:end]...)
		i = end
		got := c.AuditMatrix()
		want := CheckMatrix(c.History(), Options{})
		if got.Outcome != want.Outcome || got.Matrix == nil || want.Matrix == nil {
			t.Fatalf("after %d txns: session %v, one-shot %v", c.Len(), got.Outcome, want.Outcome)
		}
		for _, l := range MatrixLevels {
			gv, wv := got.Matrix.Verdict(l), want.Matrix.Verdict(l)
			if gv.Outcome != wv.Outcome {
				t.Fatalf("after %d txns, %v: session %v, one-shot %v", c.Len(), l, gv.Outcome, wv.Outcome)
			}
		}
	}
}

// TestAuditMatrixAfterCheckpoint: compaction replaces the session's
// history object; the matrix session must re-bind and keep matching
// one-shot checks over the compacted snapshot.
func TestAuditMatrixAfterCheckpoint(t *testing.T) {
	h, _, err := RunWorkload(NewBlindWRW(), RunConfig{Clients: 4, Txns: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(Options{})
	c.AppendHistory(h)
	if mr := c.AuditMatrix(); mr.Outcome != Accept {
		t.Fatalf("pre-checkpoint matrix: %v", mr.Outcome)
	}
	if res := c.Audit(); res.Outcome != Accept {
		t.Fatalf("audit: %v", res.Outcome)
	}
	n, err := c.Checkpoint(10)
	if err != nil || n == 0 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	got := c.AuditMatrix()
	want := CheckMatrix(c.History(), Options{})
	if got.Outcome != Accept || want.Outcome != Accept {
		t.Fatalf("post-checkpoint: session %v, one-shot %v", got.Outcome, want.Outcome)
	}
	for _, l := range MatrixLevels {
		if g, w := got.Matrix.Verdict(l).Outcome, want.Matrix.Verdict(l).Outcome; g != w {
			t.Fatalf("post-checkpoint %v: session %v, one-shot %v", l, g, w)
		}
	}
}

// TestStressLargeHistory is the end-to-end stress test at the paper's
// mid-range scale (5k transactions, 24 clients): generation, persistence,
// reload, checking at two levels, and anomaly rejection. Skipped with
// -short.
func TestStressLargeHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h, st, err := RunWorkload(NewBlindWRW(), RunConfig{Clients: 24, Txns: 5000, Seed: 2026})
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 5000 {
		t.Fatalf("issued %d", st.Issued)
	}
	path := filepath.Join(t.TempDir(), "big.jsonl")
	if err := WriteHistory(path, h); err != nil {
		t.Fatal(err)
	}
	res, err := CheckFile(path, Options{Level: AdyaSI, Timeout: 2 * time.Minute, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Accept || !res.Report.WitnessVerified {
		t.Fatalf("outcome=%v verified=%v err=%v", res.Outcome, res.Report.WitnessVerified, res.Report.SelfCheckErr)
	}
	if res.Report.Retries != 0 {
		t.Fatalf("pruning retried %d times on a healthy history", res.Report.Retries)
	}
	res2, err := CheckFile(path, Options{Level: StrongSessionSI, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != Accept {
		t.Fatalf("SSSI outcome = %v", res2.Outcome)
	}
}

// TestCheckerProgressConcurrent hammers Checker.Progress from a reader
// goroutine while the owning goroutine appends and audits — the one
// concurrency affordance Checker documents. Run under -race (the CI race
// step does) this locks down that progress snapshots never share mutable
// state with a running audit.
func TestCheckerProgressConcurrent(t *testing.T) {
	c := NewChecker(Options{Level: AdyaSI, Parallelism: 1,
		Progress:         func(ProgressSnapshot) {},
		ProgressInterval: time.Millisecond,
	})
	if got := c.Progress(); got.Phase != "idle" {
		t.Fatalf("pre-audit phase %q, want idle", got.Phase)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s := c.Progress()
				if s.Txns < 0 || s.Phase == "" {
					panic("corrupt snapshot")
				}
			}
		}
	}()

	b := NewHistoryBuilder()
	sessions := []*SessionBuilder{b.Session(), b.Session(), b.Session(), b.Session()}
	for i := 0; i < 40; i++ {
		s := sessions[i%len(sessions)]
		if i%2 == 0 {
			s.Txn().Write(Key('a' + rune(i%7))).Commit()
		} else {
			s.Txn().Write(Key('a' + rune((i+3)%7))).Commit()
		}
	}
	h := b.MustHistory()
	txns := h.Txns[1:]
	for i := 0; i < len(txns); i += 8 {
		end := i + 8
		if end > len(txns) {
			end = len(txns)
		}
		c.Append(txns[i:end]...)
		res := c.Audit()
		if res.Outcome != Accept {
			t.Fatalf("audit at %d: %v (violation %v)", i, res.Outcome, res.Violation)
		}
		snap := c.Progress()
		if snap.Phase != "done" {
			t.Fatalf("post-audit phase %q, want done", snap.Phase)
		}
		if snap.Txns != c.Len() {
			t.Fatalf("snapshot txns %d, checker len %d", snap.Txns, c.Len())
		}
	}
	close(stop)
	<-done
}

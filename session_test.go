package viper

import (
	"errors"
	"reflect"
	"testing"

	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/history"
)

// comparableReport strips a report of what legitimately differs between a
// session audit and a batch check of the same transactions: timings, and
// the construction worker count (a session records only dirty keys).
func comparableReport(rep *Report) Report {
	r := *rep
	r.Phases = core.PhaseTimings{}
	r.ConstructWorkers = 0
	return r
}

// TestSessionDeltaAuditsMatchBatch streams histories through a
// checkpointing Checker, some batches with their first transaction held
// back to the next batch, so that their audits fail validation and the
// next audit heals them. Every audit must equal a batch check of a
// snapshot taken just before it — validation error, report and gauges
// field for field — its running HistoryBytes must equal a recount of the
// snapshot, and after each checkpoint the stored certificate byte count
// must equal a recount from the certificate's maps.
func TestSessionDeltaAuditsMatchBatch(t *testing.T) {
	for _, stamped := range []bool{true, false} {
		h := histgen.SI(histgen.Spec{Txns: 900, Keys: 30, MaxConcurrency: 4, Seed: 12})
		opts := Options{Level: AdyaSI, SelfCheck: true, Portfolio: 1}
		c := NewChecker(opts)
		c.SetCheckpointPolicy(CheckpointPolicy{EveryTxns: 160, Keep: 40})
		var held *Txn
		violations, checkpoints := 0, 0
		const batch = 45
		for lo := 1; lo < len(h.Txns); lo += batch {
			var txns []*Txn
			if held != nil {
				txns = append(txns, held)
				held = nil
			}
			for _, tx := range h.Txns[lo:min(lo+batch, len(h.Txns))] {
				t2 := *tx
				if !stamped {
					t2.BeginAt, t2.CommitAt = 0, 0
				}
				txns = append(txns, &t2)
			}
			// Hold back the batch's first transaction: its session's later
			// transactions, and any read of its writes, fail validation
			// until it arrives.
			if lo+batch < len(h.Txns) && lo/batch%3 == 1 {
				held, txns = txns[0], txns[1:]
			}
			c.Append(txns...)

			snap := c.History()
			want := Check(snap, opts)
			got := c.Audit()
			if (got.Violation == nil) != (want.Violation == nil) ||
				got.Violation != nil && got.Violation.Error() != want.Violation.Error() {
				t.Fatalf("stamped=%v, %d txns: violation %v, batch %v", stamped, c.LifetimeLen(), got.Violation, want.Violation)
			}
			if got.Violation != nil {
				var verr *history.ValidationError
				if !errors.As(got.Violation, &verr) {
					t.Fatalf("violation %T is not a validation error", got.Violation)
				}
				violations++
				continue
			}
			if got.Outcome != Accept {
				t.Fatalf("stamped=%v, %d txns: %v, want Accept", stamped, c.LifetimeLen(), got.Outcome)
			}
			if g, w := comparableReport(got.Report), comparableReport(want.Report); !reflect.DeepEqual(g, w) {
				t.Fatalf("stamped=%v, %d txns: session report\n%+v\nbatch report\n%+v", stamped, c.LifetimeLen(), g, w)
			}
			if got.Report.HistoryBytes != snap.EstimateBytes() {
				t.Fatalf("%d txns: HistoryBytes %d, recount %d", c.LifetimeLen(), got.Report.HistoryBytes, snap.EstimateBytes())
			}
			if got.Compacted > 0 {
				checkpoints++
				f := c.LiveHistory().Fence()
				recount := &history.Fence{Writes: f.Writes, Latest: f.Latest, SessBase: f.SessBase}
				recount.Freeze()
				if f.Bytes() != recount.Bytes() || c.Certificate().Bytes != recount.Bytes() {
					t.Fatalf("certificate bytes %d (summary %d), recount %d", f.Bytes(), c.Certificate().Bytes, recount.Bytes())
				}
			}
		}
		t.Logf("stamped=%v: %d violations, %d checkpoints", stamped, violations, checkpoints)
		if violations == 0 || checkpoints < 3 {
			t.Fatalf("stamped=%v: %d violations, %d checkpoints; the stream should exercise both", stamped, violations, checkpoints)
		}
		if got := c.Audit(); got.Report.CertBytes != c.Certificate().Bytes || got.Report.CertBytes == 0 {
			t.Fatalf("report CertBytes %d, certificate %d", got.Report.CertBytes, c.Certificate().Bytes)
		}
	}
}

package experiments

import (
	"fmt"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/history"
	"viper/internal/workload"
)

// truncateRun is one streamed checking session's outcome: cumulative and
// final audit latency, plus the memory gauges of the last audit.
type truncateRun struct {
	outcome     core.Outcome
	audits      int
	auditTotal  time.Duration
	lastAudit   time.Duration
	liveTxns    int
	histBytes   int64
	checkpoints int
	certBytes   int64
}

// streamAudits feeds h transaction-by-transaction into a Checker under the
// given checkpoint policy, auditing every `every` transactions (and once
// at the end), the way `viper -follow -checkpoint-every` drives a live
// log. A graph-level reject stops the stream (the verdict is permanent).
func streamAudits(h *history.History, opts core.Options, policy viper.CheckpointPolicy, every int) (truncateRun, error) {
	c := viper.NewChecker(opts)
	c.SetCheckpointPolicy(policy)
	var r truncateRun
	audit := func() error {
		start := time.Now()
		res := c.Audit()
		r.lastAudit = time.Since(start)
		r.auditTotal += r.lastAudit
		r.audits++
		r.outcome = res.Outcome
		if res.Violation != nil {
			return fmt.Errorf("streamed history failed validation: %v", res.Violation)
		}
		if res.CheckpointErr != nil {
			return fmt.Errorf("checkpoint failed: %v", res.CheckpointErr)
		}
		if res.Report != nil {
			r.histBytes = res.Report.HistoryBytes
		}
		return nil
	}
	pending := 0
	for _, t := range h.Txns[1:] {
		c.Append(t)
		if pending++; pending >= every {
			pending = 0
			if err := audit(); err != nil {
				return r, err
			}
			if r.outcome == core.Reject {
				break
			}
		}
	}
	if pending > 0 && r.outcome != core.Reject {
		if err := audit(); err != nil {
			return r, err
		}
	}
	cert := c.Certificate()
	r.liveTxns = c.Len()
	r.checkpoints = cert.Checkpoints
	r.certBytes = cert.Bytes
	return r, nil
}

// Truncate is the history-compaction ablation (not a paper figure — it
// tracks this repo's bounded-memory auditing): the same BlindW-RW stream
// audited incrementally by an unbounded session and by one that
// checkpoints its checked prefix into a certificate. wall(s) is the
// checkpointing session's total audit time — the column -ratchet gates —
// and unbounded(s) the unbounded session's, each the median of
// cfg.Trials streams. The other columns report final (steady-state)
// audit latency, the live window the checkpointing session actually
// holds, its history-gauge footprint versus the unbounded session's, and
// what the certificate costs to carry. Expected shape: identical verdicts; the checkpointing session's
// live window and history bytes plateau at the policy's threshold while
// the unbounded session grows linearly, and its final-audit latency is
// flat or better (smaller window to re-encode) at the cost of a small
// certificate.
func Truncate(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "truncate",
		Title:  "checkpoint compaction ablation (streamed audits; unbounded vs -checkpoint-every)",
		Header: []string{"history", "#txns", "wall(s)", "audits", "unbounded(s)", "last-unb(s)", "last-cp(s)", "live-txns", "hist-unb-KB", "hist-cp-KB", "checkpoints", "cert-KB"},
	}
	opts := core.Options{
		Level:             core.AdyaSI,
		Timeout:           cfg.timeout(),
		Parallelism:       cfg.Parallelism,
		DisableTSFastPath: cfg.DisableTSFastPath,
	}
	kb := func(b int64) string { return fmt.Sprintf("%.0f", float64(b)/1024) }
	for _, size := range cfg.sizes([]int{20000, 40000}) {
		h, err := genHistory(workload.NewBlindWRW(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		every := size / 8
		if every < 1 {
			every = 1
		}
		// The checkpointing session compacts once the live window reaches
		// two audit periods, keeping half an audit period live.
		policy := viper.CheckpointPolicy{EveryTxns: 2 * every, Keep: every / 2}
		var unb, cp truncateRun
		var unbTotals, cpTotals []time.Duration
		for trial := 0; trial < cfg.trials(); trial++ {
			if unb, err = streamAudits(h, opts, viper.CheckpointPolicy{}, every); err != nil {
				return nil, fmt.Errorf("truncate ablation (unbounded, %d txns): %w", size, err)
			}
			if cp, err = streamAudits(h, opts, policy, every); err != nil {
				return nil, fmt.Errorf("truncate ablation (checkpointed, %d txns): %w", size, err)
			}
			if unb.outcome != cp.outcome {
				return nil, fmt.Errorf("truncate ablation: verdicts diverge at %d txns: unbounded %v vs checkpointed %v",
					size, unb.outcome, cp.outcome)
			}
			unbTotals, cpTotals = append(unbTotals, unb.auditTotal), append(cpTotals, cp.auditTotal)
		}
		t.Rows = append(t.Rows, []string{
			"blindw-rw", fmt.Sprint(size), secs(median(cpTotals)), fmt.Sprint(cp.audits),
			secs(median(unbTotals)),
			secs(unb.lastAudit), secs(cp.lastAudit),
			fmt.Sprint(cp.liveTxns), kb(unb.histBytes), kb(cp.histBytes),
			fmt.Sprint(cp.checkpoints), kb(cp.certBytes),
		})
	}
	return t, nil
}

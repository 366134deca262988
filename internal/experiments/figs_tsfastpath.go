package experiments

import (
	"fmt"
	"slices"
	"time"

	"viper/internal/anomaly"
	"viper/internal/baseline"
	"viper/internal/core"
	"viper/internal/workload"
)

// TSFastPath is the timestamp-assisted fast-path ablation (not a paper
// figure — it tracks this repo's own optimization): viper with and
// without the timestamp pass of tsorder.go, on the standard BlindW-RW
// workload in healthy and violating variants. wall(s) is viper's
// end-to-end check time with the fast path (the column viperbench
// -ratchet compares), next to the time without it — each the median of
// cfg.Trials runs — and the fraction of
// constraints the timestamps decided — pre-decided by the recording pass
// or at check time — before any solver work. Expected shape: on healthy
// timestamped histories the fast path decides ~100% of constraints,
// never builds them, and accepts on the order witness alone; on
// violating histories an injected anomaly leaves a residue, and the
// verdict — checked identical between the two configurations — comes
// from the ordinary pipeline on the fully built polygraph.
func TSFastPath(cfg Config) (*Table, error) {
	t := &Table{
		Name:   "tsfastpath",
		Title:  "timestamp fast-path ablation (seconds; decided% of constraints)",
		Header: []string{"history", "#txns", "wall(s)", "w/o ts-fastpath(s)", "decided%", "residual", "verdict"},
	}
	sizes := cfg.sizes([]int{10000, 30000})
	for _, size := range sizes {
		base, err := genHistory(workload.NewBlindWRW(), size, cfg, int64(size))
		if err != nil {
			return nil, err
		}
		type variant struct {
			label string
			kind  anomaly.Kind
			bad   bool
		}
		for _, v := range []variant{
			{label: "blindw-rw", bad: false},
			{label: "blindw-rw+g-sib", kind: anomaly.GSIb, bad: true},
			{label: "blindw-rw+lost-update", kind: anomaly.LostUpdate, bad: true},
		} {
			h := base
			if v.bad {
				cl, err := cloneHistory(base)
				if err != nil {
					return nil, err
				}
				h = anomaly.Inject(cl, v.kind)
				if err := h.Validate(); err != nil {
					return nil, err
				}
			}
			on := &baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism}}
			off := &baseline.Viper{Opts: core.Options{Level: core.AdyaSI, Parallelism: cfg.Parallelism, DisableTSFastPath: true}}
			var onWalls, offWalls []time.Duration
			var ron baseline.Result
			for trial := 0; trial < cfg.trials(); trial++ {
				var roff baseline.Result
				ron, roff = on.Check(h, cfg.timeout()), off.Check(h, cfg.timeout())
				if ron.Outcome != roff.Outcome {
					return nil, fmt.Errorf("ts-fastpath ablation: verdicts diverge on %s/%d: %v vs %v",
						v.label, size, ron.Outcome, roff.Outcome)
				}
				onWalls, offWalls = append(onWalls, ron.Elapsed), append(offWalls, roff.Elapsed)
			}
			decidedPct, residual := "0", 0
			if rep := on.LastReport; rep != nil {
				residual = rep.TSResidual
				if rep.Constraints > 0 {
					decidedPct = fmt.Sprintf("%.0f", 100*float64(rep.TSDecided)/float64(rep.Constraints))
				}
			}
			t.Rows = append(t.Rows, []string{
				v.label, fmt.Sprint(size), secs(median(onWalls)), secs(median(offWalls)), decidedPct, fmt.Sprint(residual), ron.Outcome.String(),
			})
		}
	}
	return t, nil
}

// median returns the median of ds (the upper one of an even count).
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

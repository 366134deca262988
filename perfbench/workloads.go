package main

import (
	"bytes"
	"fmt"

	"viper/internal/anomaly"
	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/workload"
)

const (
	// clients is the number of virtual clients (and, for histgen, the
	// bound on transactions in flight): 24, as in the paper's experiments.
	clients = 24
	// auditEvery and checkpointEvery set the stream-audit session: an
	// audit every 200 appended transactions, and a checkpoint once the
	// live window holds 4000.
	auditEvery      = 200
	checkpointEvery = 4000
)

// A benchWorkload is one seeded input family and the verdict every check
// of it must return. Each puts a different stage of the checker in the
// lead; BENCHMARK.json records why each was chosen.
type benchWorkload struct {
	name string
	txns int
	want core.Outcome
	// stream feeds the history through histio.Decoder into a viper.Checker
	// with periodic audits, instead of one histio.Decode + one check.
	stream bool
	// instances is how many histories a run checks, each from its own
	// seed derived from the run's. One suffices where the work a history
	// needs varies little from seed to seed.
	instances int
	build     func(txns int, seed int64) (*history.History, error)
}

var workloads = []benchWorkload{
	// Construction is most of the wall; ts-order decides every constraint.
	{name: "accept-ts", txns: 30000, want: core.Accept, instances: 1, build: blindW},
	// The timestamp residue is Unsat, so resolve decides the reject.
	{name: "reject-lostupdate", txns: 15000, want: core.Reject, instances: 1, build: blindWLostUpdate},
	// No clocks: resolve, encode and the solver do the deciding. The cost
	// of one history varies between seeds with how much resolve settles
	// (its standard deviation is about a sixth of its mean, at 5k txns as
	// at 10k), so a run checks 24 histories and reports means over them.
	// Over 16 keys the cost varies about half as much as over 8.
	{name: "contended-noclock", txns: 5000, want: core.Accept, instances: 24, build: contendedNoClock},
	// The warm incremental path with checkpoint compaction.
	{name: "stream-audit", txns: 20000, want: core.Accept, stream: true, instances: 1, build: blindW},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// blindW is BlindW-RW with the collector's logical timestamps.
func blindW(txns int, seed int64) (*history.History, error) {
	return driveHistory(workload.NewBlindWRW(), txns, clients, seed)
}

// blindWLostUpdate is blindW plus one lost update (P4), over fresh keys.
func blindWLostUpdate(txns int, seed int64) (*history.History, error) {
	h, err := blindW(txns, seed)
	if err != nil {
		return nil, err
	}
	anomaly.Inject(h, anomaly.LostUpdate)
	return h, h.Validate()
}

// contendedNoClock is a schedule-sampled SI history over 16 keys with 24
// transactions in flight, its timestamps zeroed as a collector without
// clocks would record them. (histgen formats keys in two digits, so it
// must stay at or below 100 keys.)
func contendedNoClock(txns int, seed int64) (*history.History, error) {
	h := histgen.SI(histgen.Spec{Txns: txns, Keys: 16, MaxConcurrency: clients, Seed: seed})
	for _, t := range h.Txns[1:] {
		t.BeginAt, t.CommitAt = 0, 0
	}
	return h, nil
}

// inputs generates the run's histories for seed and encodes each as the
// history log the checker is handed. The first history's seed is seed
// itself.
func (w benchWorkload) inputs(seed int64) ([][]byte, error) {
	out := make([][]byte, w.instances)
	for i := range out {
		h, err := w.build(w.txns, seed+int64(i)*1_000_003)
		if err != nil {
			return nil, fmt.Errorf("%s: generating history: %w", w.name, err)
		}
		var buf bytes.Buffer
		if err := histio.Encode(&buf, h); err != nil {
			return nil, fmt.Errorf("%s: encoding history: %w", w.name, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"viper"
	"viper/internal/core"
	"viper/internal/histio"
	"viper/internal/history"
	"viper/internal/obs"
)

// A pass is one timed trip from history bytes to verdict: histio.Decode
// then core.CheckHistoryContext for a batch workload, or the whole log
// streamed through histio.Decoder into a viper.Checker with periodic
// audits for a stream workload.
type pass struct {
	verdict  time.Duration   // history bytes to final verdict
	audits   []time.Duration // each audit call (batch: the one cold audit)
	peakHeap uint64          // highest heap in use, bytes
	txns     int
	// attempted counts checks (batch) or audits (stream); failed counts
	// those that returned the wrong verdict, a timeout or an error.
	attempted, failed int
	err               error
	fp                fingerprint
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

// fingerprint is the amount of work a pass did. It depends only on the
// input, so it must repeat exactly across passes and runs of one seed.
type fingerprint struct {
	Constraints int   `json:"constraints"`
	KnownEdges  int   `json:"known_edges"`
	EdgeVars    int   `json:"edge_vars"`
	Conflicts   int64 `json:"conflicts"`
	Checkpoints int   `json:"checkpoints"`
}

// runPass runs one pass of w over input. A non-nil tr traces it: the
// checker's own spans (through Options.Tracer) nest under benchmark-side
// spans around each call, and the pass collects its per-layer metrics.
func (w benchWorkload) runPass(ctx context.Context, input []byte, tr *obs.Tracer) pass {
	heap := startHeapSampler()
	root := tr.Start("pass")
	var p pass
	if w.stream {
		p = w.streamPass(ctx, input, tr)
	} else {
		p = w.batchPass(ctx, input, tr)
	}
	root.End()
	p.peakHeap = heap.stop()
	if p.err != nil {
		p.attempted++
		p.failed++
	}
	return p
}

// batchPass decodes the whole log and checks it once, as viper.Check and
// the viper CLI do.
func (w benchWorkload) batchPass(ctx context.Context, input []byte, tr *obs.Tracer) pass {
	var p pass
	var st stages
	probe := newRuntimeProbe()
	r0 := probe.read()
	start := time.Now()
	var h *history.History
	var err error
	if tr == nil {
		h, err = histio.Decode(bytes.NewReader(input))
	} else {
		h, err = tracedDecode(tr, input, &st)
	}
	if err != nil {
		p.err = fmt.Errorf("decoding history: %w", err)
		return p
	}
	r1 := probe.read()
	reg := tr.Start("core.check")
	t0 := time.Now()
	rep := core.CheckHistoryContext(ctx, h, core.Options{Tracer: tr})
	st.audit = time.Since(t0)
	reg.End()
	p.verdict = time.Since(start)
	r2 := probe.read()

	p.txns = h.Len()
	p.audits = []time.Duration{st.audit}
	p.attempted = 1
	if rep.Outcome != w.want {
		p.failed = 1
	}
	st.add(rep, nil)
	p.fp = st.fingerprint(rep)
	if tr != nil {
		st.decodeAlloc = r1.allocs - r0.allocs
		st.checkAlloc = r2.allocs - r1.allocs
		p.layers = st.layers(rep, r2.since(r0))
	}
	return p
}

// tracedDecode is histio.Decode split into its two public halves, each
// under its own span: the streaming decoder building the history, then
// validation.
func tracedDecode(tr *obs.Tracer, input []byte, st *stages) (*history.History, error) {
	reg := tr.Start("histio.decode")
	t0 := time.Now()
	d := histio.NewDecoder(bytes.NewReader(input))
	h := history.New()
	for {
		t, err := d.Next()
		st.nextCalls++
		if err == io.EOF {
			break
		}
		if err != nil {
			reg.End()
			return nil, err
		}
		h.Append(t)
	}
	st.decode = time.Since(t0)
	reg.End()
	reg = tr.Start("history.validate")
	t0 = time.Now()
	err := h.Validate()
	st.validate = time.Since(t0)
	reg.End()
	return h, err
}

// streamPass streams the log line by line into a checkpointing
// viper.Checker, auditing every auditEvery transactions and once more at
// the end, as `viper -follow` and viperd sessions do. A traced pass times
// every Decoder.Next and Checker.Append call; the span of each stretch
// between audits carries their totals as children.
func (w benchWorkload) streamPass(ctx context.Context, input []byte, tr *obs.Tracer) pass {
	var p pass
	var st stages
	probe := newRuntimeProbe()
	r0 := probe.read()
	start := time.Now()
	c := viper.NewChecker(viper.Options{Tracer: tr})
	c.SetCheckpointPolicy(viper.CheckpointPolicy{EveryTxns: checkpointEvery})
	d := histio.NewDecoder(bytes.NewReader(input))
	var final *core.Report
	ingest := tr.Start("ingest")
	var next, appended time.Duration // since the last audit
	endIngest := func() {
		ingest.Child("histio.next", next)
		ingest.Child("checker.append", appended)
		ingest.End()
		st.decode += next
		st.append += appended
		next, appended = 0, 0
	}
	audit := func() {
		endIngest()
		var a0 runtimeCounters
		if tr != nil {
			a0 = probe.read()
		}
		reg := tr.Start("checker.audit")
		t0 := time.Now()
		res := c.AuditContext(ctx)
		elapsed := time.Since(t0)
		reg.End()
		if tr != nil {
			st.checkAlloc += probe.read().allocs - a0.allocs
		}
		ingest = tr.Start("ingest")
		p.audits = append(p.audits, elapsed)
		p.attempted++
		if res.Outcome != w.want || res.CheckpointErr != nil {
			p.failed++
		}
		if res.Report == nil {
			return // rejected at validation: no graph report
		}
		st.audit += elapsed
		st.validate += res.ParseTime
		st.add(res.Report, final)
		final = res.Report
	}
	for {
		var t0 time.Time
		var a0 runtimeCounters
		if tr != nil {
			a0, t0 = probe.read(), time.Now()
		}
		t, err := d.Next()
		st.nextCalls++
		if tr != nil {
			next += time.Since(t0)
			st.decodeAlloc += probe.read().allocs - a0.allocs
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			p.err = fmt.Errorf("decoding history: %w", err)
			return p
		}
		if tr != nil {
			t0 = time.Now()
		}
		c.Append(t)
		if tr != nil {
			appended += time.Since(t0)
		}
		if d.Decoded()%auditEvery == 0 {
			audit()
		}
	}
	if d.Decoded()%auditEvery != 0 {
		audit()
	}
	endIngest()
	p.verdict = time.Since(start)
	p.txns = d.Decoded()
	if final == nil {
		p.err = fmt.Errorf("no audit produced a graph report")
		return p
	}
	p.fp = st.fingerprint(final)
	if tr != nil {
		p.layers = st.layers(final, probe.read().since(r0))
	}
	return p
}

// stages accumulates one pass's per-layer work: times the benchmark
// measured around its calls, and the stage timings and counters of the
// reports the checker returned.
type stages struct {
	nextCalls int
	decode    time.Duration // in histio: Decoder.Next (batch: and History.Append)
	validate  time.Duration // History.Validate (stream: inside each audit)
	append    time.Duration // Checker.Append
	audit     time.Duration // core.CheckHistoryContext or Checker.AuditContext

	construct, constructCPU, tsorder, resolve, encode, solve time.Duration

	conflicts, decisions, propagations, reorders, reorderedNodes int64

	decodeAlloc, checkAlloc uint64 // bytes allocated by decode and by checks
}

// add folds one report into the totals. The solver and acyclicity
// counters are cumulative across the audits of a warm session, so only
// their growth since prev counts; a counter below prev's was reset by a
// cold audit and counts in full.
func (st *stages) add(rep, prev *core.Report) {
	ph := rep.Phases
	st.construct += ph.Construct
	st.constructCPU += ph.ConstructCPU
	st.tsorder += ph.TSOrder
	st.resolve += ph.Resolve
	st.encode += ph.Encode
	st.solve += ph.Solve
	var was core.Report
	if prev != nil {
		was = *prev
	}
	growth := func(now, before int64) int64 {
		if now < before {
			return now
		}
		return now - before
	}
	st.conflicts += growth(rep.Solver.Conflicts, was.Solver.Conflicts)
	st.decisions += growth(rep.Solver.Decisions, was.Solver.Decisions)
	st.propagations += growth(rep.Solver.Propagations, was.Solver.Propagations)
	st.reorders += growth(rep.Reorders, was.Reorders)
	st.reorderedNodes += growth(rep.ReorderedNodes, was.ReorderedNodes)
}

func (st *stages) fingerprint(final *core.Report) fingerprint {
	return fingerprint{
		Constraints: final.Constraints,
		KnownEdges:  final.KnownEdges,
		EdgeVars:    final.EdgeVars,
		Conflicts:   st.conflicts,
		Checkpoints: final.Checkpoints,
	}
}

// layers renders the per-layer metrics of a traced pass; final is the
// last report and rt the runtime's counters over the whole pass.
func (st *stages) layers(final *core.Report, rt runtimeCounters) map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	kb := func(b int64) float64 { return float64(b) / (1 << 10) }
	share := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return float64(n) / float64(of)
	}
	staged := st.construct + st.tsorder + st.resolve + st.encode + st.solve
	return map[string]float64{
		"histio.decode_s":    sec(st.decode),
		"histio.next_s":      sec(st.decode) / float64(st.nextCalls),
		"histio.alloc_mb":    mb(st.decodeAlloc),
		"history.validate_s": sec(st.validate),

		"core.construct_s":     sec(st.construct),
		"core.construct_cpu_s": sec(st.constructCPU),
		"core.nodes":           float64(final.Nodes),
		"core.known_edges":     float64(final.KnownEdges),
		"core.constraints":     float64(final.Constraints),
		"core.alloc_mb":        mb(st.checkAlloc),
		"go.gc_cpu_s":          rt.gcCPU,
		"go.gc_cycles":         float64(rt.gcCycles),

		"core.tsorder_s":       sec(st.tsorder),
		"core.ts_decided_frac": share(final.TSDecided, final.TSDecided+final.TSResidual),

		"core.resolve_s":          sec(st.resolve),
		"core.resolved_frac":      share(final.ResolvedConstraints, final.Constraints),
		"core.forced_edges":       float64(final.ForcedEdges),
		"core.encode_s":           sec(st.encode),
		"core.edge_vars":          float64(final.EdgeVars),
		"core.pruned_constraints": float64(final.PrunedConstraints),
		"core.retries":            float64(final.Retries),
		"sat.solve_s":             sec(st.solve),
		"sat.conflicts":           float64(st.conflicts),
		"sat.decisions":           float64(st.decisions),
		"sat.propagations":        float64(st.propagations),
		"acyclic.reorders":        float64(st.reorders),
		"acyclic.reordered_nodes": float64(st.reorderedNodes),
		"core.unattributed_s":     sec(st.audit - staged),
		"checker.append_s":        sec(st.append),
		"checker.audit_s":         sec(st.audit),
		"checker.checkpoints":     float64(final.Checkpoints),
		"checker.live_txns":       float64(final.LiveTxns),
		"checker.history_kb":      kb(final.HistoryBytes),
		"checker.closure_kb":      kb(final.ClosureBytes),
		"checker.cert_kb":         kb(final.CertBytes),
	}
}

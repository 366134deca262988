// Command perfbench measures viper's time to verdict: from the bytes of a
// history log to accept or reject, through the same public calls users
// make. Batch workloads run histio.Decode then core.CheckHistoryContext
// (what viper.Check and the viper CLI run); the stream workload feeds a
// histio.Decoder into a viper.Checker with periodic audits (what
// `viper -follow` and viperd sessions run). Checks use the default
// core.Options.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload accept-ts --seed 1 --seconds 20 --trace 0
//
// The seed alone determines the history, so one seed always gives the
// same input bytes. A run generates its input histories several times
// (set-up, and a determinism check), then repeats rounds of passes over
// them until --seconds have passed. Every pass must return the workload's known verdict and do the
// same amount of work (its fingerprint). With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 it alternates untraced passes
// with traced ones and reports per-layer metrics from the traced passes,
// including the tracing overhead. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"viper/internal/obs"
)

// A metric is reported by name with its unit; BENCHMARK.json lists the
// same names and units.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"verdict_s", "s"},
	{"audit_p50_s", "s"},
	{"audit_p90_s", "s"},
	{"stream_txns_per_s", "1/s"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"histio.decode_s", "s"},
	{"histio.next_s", "s"},
	{"histio.alloc_mb", "MiB"},
	{"history.validate_s", "s"},
	{"core.construct_s", "s"},
	{"core.construct_cpu_s", "s"},
	{"core.nodes", "count"},
	{"core.known_edges", "count"},
	{"core.constraints", "count"},
	{"core.alloc_mb", "MiB"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_cycles", "count"},
	{"core.tsorder_s", "s"},
	{"core.ts_decided_frac", "ratio"},
	{"core.resolve_s", "s"},
	{"core.resolved_frac", "ratio"},
	{"core.forced_edges", "count"},
	{"core.encode_s", "s"},
	{"core.edge_vars", "count"},
	{"core.pruned_constraints", "count"},
	{"core.retries", "count"},
	{"sat.solve_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"acyclic.reorders", "count"},
	{"acyclic.reordered_nodes", "count"},
	{"core.unattributed_s", "s"},
	{"checker.append_s", "s"},
	{"checker.audit_s", "s"},
	{"checker.checkpoints", "count"},
	{"checker.live_txns", "count"},
	{"checker.history_kb", "KiB"},
	{"checker.closure_kb", "KiB"},
	{"checker.cert_kb", "KiB"},
	{"obs.trace_overhead_s", "s"},
}

const (
	// A run generates its input at least setupMinReps times and until
	// setupMinTime has passed, at most setupMaxReps times. Set-up time is
	// the median, and every repetition must give the same bytes.
	setupMinReps = 3
	setupMaxReps = 20
	setupMinTime = 1500 * time.Millisecond
	// runBudget bounds a run's checking, so a stuck check ends the run as
	// a timeout well within the time a run may take.
	runBudget = 150 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: accept-ts, reject-lostupdate, contended-noclock or stream-audit")
	seed := fs.Int64("seed", 1, "seed the input history is generated from")
	seconds := fs.Float64("seconds", 10, "how long to repeat passes for")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need a known --workload, --trace 0|1 and --seconds > 0 (%v)\n", err)
		return 2
	}
	res, tr, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if tr != nil && *traceDir != "" {
		if err := writeTrace(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed), tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	summary   string
}

// measure makes one run: set-up, then rounds of passes for d, then the
// metrics. A round is one pass over each of the run's histories. A traced
// run also returns its tracer.
func measure(w benchWorkload, seed int64, d time.Duration, traced bool) (*result, *obs.Tracer, error) {
	var inputs [][]byte
	var setups []float64
	identical := true
	for start := time.Now(); len(setups) < setupMinReps ||
		len(setups) < setupMaxReps && time.Since(start) < setupMinTime; {
		t0 := time.Now()
		in, err := w.inputs(seed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for i := range inputs {
			identical = identical && bytes.Equal(in[i], inputs[i])
		}
		inputs = in
	}

	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	// Passes over history i sit at indexes i, i+len(inputs), ... of plain
	// and withTrace.
	var plain, withTrace []pass
	for end := time.Now().Add(d); len(plain) == 0 || time.Now().Before(end) && ctx.Err() == nil; {
		for _, input := range inputs {
			runtime.GC()
			plain = append(plain, w.runPass(ctx, input, nil))
			if traced {
				runtime.GC()
				withTrace = append(withTrace, w.runPass(ctx, input, tr))
			}
		}
	}

	res := &result{Correct: identical, Metrics: map[string]value{}}
	fps := make([]fingerprint, len(inputs))
	for i := range fps {
		fps[i] = plain[i].fp
	}
	for _, ps := range [][]pass{plain, withTrace} {
		for i, p := range ps {
			res.Attempted += p.attempted
			res.Failed += p.failed
			res.Correct = res.Correct && p.err == nil && p.fp == fps[i%len(inputs)]
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	// A run checks one history or several. Each timing is summarised per
	// history first, over that history's passes, and then averaged over
	// the run's histories: a mean over many histories varies far less from
	// seed to seed than a quantile of their pooled samples, whose tail is
	// set by the costliest few.
	perHistory := func(ps []pass, f func(pass) []float64) [][]float64 {
		out := make([][]float64, len(inputs))
		for i, p := range ps {
			out[i%len(inputs)] = append(out[i%len(inputs)], f(p)...)
		}
		return out
	}
	meanOf := func(samples [][]float64, q float64) float64 {
		var sum float64
		for _, xs := range samples {
			sum += quantile(xs, q)
		}
		return sum / float64(len(samples))
	}
	verdictOf := func(p pass) []float64 { return []float64{p.verdict.Seconds()} }
	verdicts := perHistory(plain, verdictOf)
	audits := perHistory(plain, func(p pass) []float64 {
		var xs []float64
		for _, a := range p.audits {
			xs = append(xs, a.Seconds())
		}
		return xs
	})
	heaps := perHistory(plain, func(p pass) []float64 { return []float64{float64(p.peakHeap) / (1 << 20)} })
	var txns, wall float64
	var auditSamples int
	for _, p := range plain {
		auditSamples += len(p.audits)
		txns += float64(p.txns)
		wall += p.verdict.Seconds()
	}
	fp, _ := json.Marshal(fps)
	res.summary = fmt.Sprintf("perfbench: workload=%s seed=%d cpus=%d histories=%d input_bytes=%d setups=%d "+
		"passes=%d audit_samples=%d traced_passes=%d attempted=%d failed_frac=%.4f fingerprints=%s",
		w.name, seed, runtime.GOMAXPROCS(0), len(inputs), len(bytes.Join(inputs, nil)), len(setups),
		len(plain), auditSamples, len(withTrace), res.Attempted,
		float64(res.Failed)/float64(res.Attempted), fp)

	if !traced {
		res.put(endToEnd, map[string]float64{
			"verdict_s":         meanOf(verdicts, 0.5),
			"audit_p50_s":       meanOf(audits, 0.5),
			"audit_p90_s":       meanOf(audits, 0.9),
			"stream_txns_per_s": txns / max(wall, 1e-9),
			"peak_heap_mb":      meanOf(heaps, 0.5),
			"setup_s":           quantile(setups, 0.5),
		})
		return res, nil, nil
	}
	layers := map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, p := range withTrace {
			if v, ok := p.layers[m.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			layers[m.name] = quantile(vs, 0.5)
		}
	}
	layers["obs.trace_overhead_s"] = meanOf(perHistory(withTrace, verdictOf), 0.5) - meanOf(verdicts, 0.5)
	res.put(perLayer, layers)
	return res, tr, nil
}

// put records every metric of defs; one without a value makes the run
// incorrect, since it means a pass failed before measuring it.
func (r *result) put(defs []metric, vals map[string]float64) {
	for _, m := range defs {
		v, ok := vals[m.name]
		r.Correct = r.Correct && ok
		r.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func writeTrace(dir, name string, tr *obs.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	b, err := json.Marshal(tr.Trace())
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

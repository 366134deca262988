package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"viper/internal/obs"
)

// tiny shrinks a workload so a test can run every pass kind quickly; the
// stream workload still spans two audits.
func tiny(w benchWorkload) benchWorkload {
	w.txns = 3*auditEvery/2 + 1
	return w
}

func TestWorkloadVerdicts(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			inputs, err := w.inputs(7)
			if err != nil {
				t.Fatal(err)
			}
			for _, input := range inputs {
				plain := w.runPass(context.Background(), input, nil)
				traced := w.runPass(context.Background(), input, obs.NewTracer())
				for _, p := range []pass{plain, traced} {
					if p.err != nil || p.failed != 0 || p.attempted == 0 {
						t.Fatalf("pass: err %v, %d of %d checks failed; want %v every time",
							p.err, p.failed, p.attempted, w.want)
					}
				}
				if plain.fp != traced.fp {
					t.Errorf("fingerprint differs under tracing: %+v vs %+v", plain.fp, traced.fp)
				}
				if w.stream && plain.attempted != 2 {
					t.Errorf("stream pass made %d audits, want 2", plain.attempted)
				}
				for _, m := range perLayer {
					if _, ok := traced.layers[m.name]; !ok && m.name != "obs.trace_overhead_s" {
						t.Errorf("traced pass lacks per-layer metric %s", m.name)
					}
				}
			}
		})
	}
}

func TestInputDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		a, errA := w.inputs(3)
		b, errB := w.inputs(3)
		c, errC := w.inputs(4)
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("%s: %v %v %v", w.name, errA, errB, errC)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: seed 3 gave different bytes for history %d on two generations", w.name, i)
			}
		}
		distinct := append(a, c...)
		for i := range distinct {
			for j := i + 1; j < len(distinct); j++ {
				if bytes.Equal(distinct[i], distinct[j]) {
					t.Errorf("%s: seeds 3 and 4 share a history (%d and %d)", w.name, i, j)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the same workloads,
// and the same metrics with the same units, as the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metric) {
		var got, want []string
		for _, m := range listed {
			got = append(got, m.Name+"/"+m.Unit)
		}
		for _, m := range defs {
			want = append(want, m.name+"/"+m.unit)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("BENCHMARK.json %s metrics %v, benchmark reports %v", kind, got, want)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
}

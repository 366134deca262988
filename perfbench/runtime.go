package main

import (
	"runtime/metrics"
	"time"
)

// runtimeCounters are the Go runtime's cumulative allocation and garbage
// collector counters at one instant.
type runtimeCounters struct {
	allocs   uint64  // bytes allocated on the heap
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // estimated CPU seconds spent in GC
}

// runtimeProbe reads runtimeCounters into one reused buffer, so that a
// probe around a call adds no allocation of its own to what it measures.
type runtimeProbe struct{ s []metrics.Sample }

func newRuntimeProbe() *runtimeProbe {
	return &runtimeProbe{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}}
}

func (p *runtimeProbe) read() runtimeCounters {
	metrics.Read(p.s)
	return runtimeCounters{
		allocs:   p.s[0].Value.Uint64(),
		gcCycles: p.s[1].Value.Uint64(),
		gcCPU:    p.s[2].Value.Float64(),
	}
}

// since returns the counters' growth from then to c.
func (c runtimeCounters) since(then runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:   c.allocs - then.allocs,
		gcCycles: c.gcCycles - then.gcCycles,
		gcCPU:    c.gcCPU - then.gcCPU,
	}
}

// heapSampler polls the heap in use (live objects plus garbage not yet
// swept) from its own goroutine and keeps the highest value seen.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-s.done:
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the goroutine to exit, and returns the
// peak in bytes.
func (s *heapSampler) stop() uint64 {
	close(s.done)
	return <-s.peak
}

package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"viper/internal/history"
)

// randomTimedHistory builds committed transactions with random (possibly
// colliding) begin/commit timestamps.
func randomTimedHistory(rng *rand.Rand, n int) *history.History {
	h := history.New()
	for i := 0; i < n; i++ {
		b := rng.Int63n(1000)
		c := b + 1 + rng.Int63n(1000)
		h.Append(&history.Txn{
			Session: int32(i),
			BeginAt: b, CommitAt: c,
			Ops: []history.Op{{Kind: history.OpWrite, Key: "k", WriteID: history.WriteID(i + 1)}},
		})
	}
	if err := h.Validate(); err != nil {
		panic(err)
	}
	return h
}

// rtReach computes reachability over the polygraph's real-time edges only.
func rtReach(pg *Polygraph) func(a, b int32) bool {
	out := make([][]int32, pg.NumNodes)
	for _, ke := range pg.Known {
		if ke.Kind == EdgeRealTime {
			out[ke.From] = append(out[ke.From], ke.To)
		}
	}
	return func(a, b int32) bool {
		if a == b {
			return false
		}
		seen := make([]bool, pg.NumNodes)
		queue := []int32{a}
		seen[a] = true
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, w := range out[n] {
				if w == b {
					return true
				}
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		return false
	}
}

// TestRealTimeCompressionExact checks that the O(n)-edge suffix-chain
// compression encodes exactly the bounded-drift happens-before relation:
// for every allowed event pair, hb(e,f) iff f is reachable from e over
// real-time edges; and reachability never runs backward in time.
func TestRealTimeCompressionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(10)
		h := randomTimedHistory(rng, n)
		drift := time.Duration(rng.Int63n(500))
		for _, level := range []Level{GSI, StrongSI} {
			pg := Build(h, Options{Level: level, ClockDrift: drift})
			reach := rtReach(pg)
			type ev struct {
				node   int32
				ts     int64
				commit bool
			}
			var events []ev
			for _, tx := range h.Txns[1:] {
				events = append(events,
					ev{pg.Begin(tx.ID), tx.BeginAt, false},
					ev{pg.Commit(tx.ID), tx.CommitAt, true})
			}
			for _, e := range events {
				for _, f := range events {
					if e.node == f.node {
						continue
					}
					hb := f.ts-e.ts > drift.Nanoseconds()
					allowed := f.commit // all levels order */→commit
					if level == StrongSI && e.commit {
						allowed = true // commits also order before begins
					}
					got := reach(e.node, f.node)
					if hb && allowed && !got {
						t.Fatalf("iter %d level %v drift %v: hb pair %d(ts%d)→%d(ts%d) not reachable",
							iter, level, drift, e.node, e.ts, f.node, f.ts)
					}
					if got && f.ts <= e.ts {
						t.Fatalf("iter %d level %v: spurious backward real-time path %d(ts%d)→%d(ts%d)",
							iter, level, e.node, e.ts, f.node, f.ts)
					}
				}
			}
		}
	}
}

// TestRealTimeEdgesLinear checks the compression stays O(n): the number
// of real-time edges must grow linearly, not quadratically.
func TestRealTimeEdgesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	count := func(n int) int {
		h := randomTimedHistory(rng, n)
		pg := Build(h, Options{Level: StrongSI})
		c := 0
		for _, ke := range pg.Known {
			if ke.Kind == EdgeRealTime {
				c++
			}
		}
		return c
	}
	c100, c400 := count(100), count(400)
	if c400 > c100*8 { // linear would be ~4×; quadratic ~16×
		t.Fatalf("real-time edges scale superlinearly: %d @100 vs %d @400", c100, c400)
	}
}

// TestRealTimeDriftBoundary pins the clock-drift boundary of the
// suffix-chain compression: the documented relation is strict —
// ts(j) − ts(i) > ClockDrift — so a pair exactly drift apart must NOT be
// ordered, one nanosecond past it must, and equal timestamps must never
// relate in either direction. Pinned separately for the commit chain
// (every event → later commit; GSI and up) and the begin suffix chain
// (commit → later begin; StrongSI only), so tsorder.go and realtime.go
// can never drift apart on boundary semantics.
func TestRealTimeDriftBoundary(t *testing.T) {
	two := func(b1, c1, b2, c2 int64) *history.History {
		h := history.New()
		h.Append(&history.Txn{Session: 0, BeginAt: b1, CommitAt: c1,
			Ops: []history.Op{{Kind: history.OpWrite, Key: "a", WriteID: 1}}})
		h.Append(&history.Txn{Session: 1, BeginAt: b2, CommitAt: c2,
			Ops: []history.Op{{Kind: history.OpWrite, Key: "b", WriteID: 2}}})
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	const drift = 10 * time.Nanosecond

	// Commit chain (GSI): c(T1)=20 → c(T2). Delta == drift excluded,
	// delta == drift+1 included.
	h := two(1, 20, 2, 30) // c2 − c1 = 10 == drift
	pg := Build(h, Options{Level: GSI, ClockDrift: drift})
	if rtReach(pg)(pg.Commit(1), pg.Commit(2)) {
		t.Fatal("commit chain: delta == drift created an edge (relation must be strict)")
	}
	h = two(1, 20, 2, 31) // c2 − c1 = 11 > drift
	pg = Build(h, Options{Level: GSI, ClockDrift: drift})
	if !rtReach(pg)(pg.Commit(1), pg.Commit(2)) {
		t.Fatal("commit chain: delta == drift+1 missing its edge")
	}

	// Equal commit timestamps: no order in either direction, any drift.
	h = two(1, 20, 2, 20)
	for _, d := range []time.Duration{0, drift} {
		pg = Build(h, Options{Level: GSI, ClockDrift: d})
		reach := rtReach(pg)
		if reach(pg.Commit(1), pg.Commit(2)) || reach(pg.Commit(2), pg.Commit(1)) {
			t.Fatalf("equal commit timestamps ordered under drift %v", d)
		}
	}

	// Begin suffix chain (StrongSI): c(T1)=20 → b(T2). Same strictness.
	h = two(1, 20, 30, 40) // b2 − c1 = 10 == drift
	pg = Build(h, Options{Level: StrongSI, ClockDrift: drift})
	if rtReach(pg)(pg.Commit(1), pg.Begin(2)) {
		t.Fatal("begin chain: delta == drift created an edge (relation must be strict)")
	}
	h = two(1, 20, 31, 40) // b2 − c1 = 11 > drift
	pg = Build(h, Options{Level: StrongSI, ClockDrift: drift})
	if !rtReach(pg)(pg.Commit(1), pg.Begin(2)) {
		t.Fatal("begin chain: delta == drift+1 missing its edge")
	}

	// Equal commit/begin timestamps on the begin chain: unordered.
	h = two(1, 20, 20, 40)
	pg = Build(h, Options{Level: StrongSI, ClockDrift: 0})
	if rtReach(pg)(pg.Commit(1), pg.Begin(2)) {
		t.Fatal("begin chain: equal timestamps ordered")
	}
}

// TestAdyaSIIgnoresTimestamps: with wildly drifting clocks, Adya SI (a
// logical-time level) must not care.
func TestAdyaSIIgnoresTimestamps(t *testing.T) {
	b := history.NewBuilder()
	s1, s2 := b.Session(), b.Session()
	widX := b.NextWriteID()
	t2 := s2.Txn().At(1_000_000) // "begins" far in the future
	s1.Txn().At(1).Write("x").CommitAt(2)
	t2.ReadObserved("x", widX).CommitAt(1_000_001)
	h := b.MustHistory()
	pg := Build(h, Options{Level: AdyaSI})
	for _, ke := range pg.Known {
		if ke.Kind == EdgeRealTime {
			t.Fatal("AdyaSI polygraph contains real-time edges")
		}
	}
}

// TestNodeNameAuxInRealTimeCycle pins the cycle namer on Strong SI, whose
// known cycles pass through the real-time chain's auxiliary nodes: a read
// of x's initial version after x's overwrite committed (in real time, in
// another session) closes such a cycle. Three transactions make six event
// nodes, so the auxiliary nodes start at id 6, and the rendered cycle must
// name them from the history and level alone.
func TestNodeNameAuxInRealTimeCycle(t *testing.T) {
	b := history.NewBuilder()
	b.Session().Txn().Write("x").Commit()
	b.Session().Txn().ReadGenesis("x").Commit()
	h := b.MustHistory()
	opts := Options{Level: StrongSI}
	rep := CheckHistory(h, opts)
	if rep.Outcome != Reject || rep.KnownCycle == nil {
		t.Fatalf("outcome %v, cycle %v; want a known-cycle rejection", rep.Outcome, rep.KnownCycle)
	}
	var got []string
	for _, e := range renderCycle(h, rep.KnownCycle, opts) {
		got = append(got, e.From+"-"+e.Kind+"->"+e.To)
	}
	want := []string{"C1-real-time->aux3", "aux3-real-time->B2", "B2-rw->C1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("rendered cycle %v, want %v", got, want)
	}
	if n := Build(h, opts).NumNodes; n != 10 {
		t.Fatalf("polygraph has %d nodes, want 6 event + 4 auxiliary", n)
	}
}

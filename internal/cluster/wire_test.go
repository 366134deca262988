package cluster

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/histgen"
	"viper/internal/history"
)

// wireHistory builds a deterministic fuzz-shaped history from three
// integers, clamped so every mutation of the fuzz corpus stays cheap.
func wireHistory(txns, keys int, seed int64) *history.History {
	if txns < 2 {
		txns = 2
	}
	if txns > 300 {
		txns = txns%300 + 2
	}
	if keys < 1 {
		keys = 1
	}
	if keys > 24 {
		keys = keys%24 + 1
	}
	return histgen.SI(histgen.Spec{Txns: txns, Keys: keys, MaxConcurrency: 6, AbortEvery: 7, Seed: seed})
}

// roundTripShards cuts h into shards, pushes every shard through the
// binary job and digest codecs, and merges the decoded records. The
// returned records must be byte-identical to a single-node recording
// pass, and the merged polygraph verdict must match CheckHistory.
func roundTripShards(t testing.TB, h *history.History, opts core.Options, shards int) {
	ranges := partitionKeys(h, shards, 0)
	full := core.BuildShardRecords(h, opts, h.Keys())
	merger := core.NewShardMerger(h, opts)
	for ri, kr := range ranges {
		var jobBuf bytes.Buffer
		if err := encodeShardJob(&jobBuf, h, kr, opts); err != nil {
			t.Fatalf("range %d: encoding job: %v", ri, err)
		}
		dopts, dh, dkeys, err := decodeShardJob(bufio.NewReader(&jobBuf))
		if err != nil {
			t.Fatalf("range %d: decoding job: %v", ri, err)
		}
		if !reflect.DeepEqual(dkeys, h.Keys()[kr.lo:kr.hi]) {
			t.Fatalf("range %d: key table diverged", ri)
		}
		recs := core.BuildShardRecords(dh, dopts, dh.Keys())
		if !reflect.DeepEqual(recs, full[kr.lo:kr.hi]) {
			t.Fatalf("range %d: records recorded from the decoded job differ from single-node records", ri)
		}

		var digBuf bytes.Buffer
		enc := newDigestEncoder(&digBuf, "w")
		for i := range recs {
			if err := enc.record(recs[i]); err != nil {
				t.Fatalf("range %d: encoding digest: %v", ri, err)
			}
		}
		if err := enc.close(); err != nil {
			t.Fatalf("range %d: closing digest: %v", ri, err)
		}
		_, err = decodeDigest(bufio.NewReader(&digBuf), dkeys, func(j int, rec *core.KeyRecord) error {
			if !reflect.DeepEqual(rec, full[kr.lo+j]) {
				t.Fatalf("range %d: record %d mutated by the digest round trip", ri, j)
			}
			return merger.Add(kr.lo+j, rec)
		})
		if err != nil {
			t.Fatalf("range %d: decoding digest: %v", ri, err)
		}
	}
	if n := merger.Missing(); n != 0 {
		t.Fatalf("merger still missing %d records", n)
	}
	merged, err := core.CheckMergedContext(t.Context(), merger)
	if err != nil {
		t.Fatalf("checking merged polygraph: %v", err)
	}
	single := core.CheckHistory(h, opts)
	if merged.Outcome != single.Outcome ||
		merged.Nodes != single.Nodes ||
		merged.KnownEdges != single.KnownEdges ||
		merged.Constraints != single.Constraints {
		t.Fatalf("merged verdict (%v n=%d e=%d c=%d) differs from single-node (%v n=%d e=%d c=%d)",
			merged.Outcome, merged.Nodes, merged.KnownEdges, merged.Constraints,
			single.Outcome, single.Nodes, single.KnownEdges, single.Constraints)
	}
}

// encodeDigest frames recs as a worker's digest.
func encodeDigest(tb testing.TB, recs []*core.KeyRecord) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := newDigestEncoder(&buf, "w")
	for _, rec := range recs {
		if err := enc.record(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileDigests are digests for recs' keys whose first record is
// malformed in a way an honest worker never sends. Each maps to the
// error text that must stop it: the merger refuses node ids outside the
// polygraph, the decoder refuses edge runs that are not [from, to]
// pairs and edge kinds no polygraph holds.
func hostileDigests(tb testing.TB, recs []*core.KeyRecord) map[string]struct {
	digest []byte
	want   string
} {
	tb.Helper()
	far := *recs[0]
	far.WR = append([]core.Edge{{From: 1, To: 1 << 20}}, far.WR...)
	farChosen := *recs[0]
	farChosen.Decided++
	farChosen.Chosen = append([]core.Edge{{From: 1, To: 1 << 20}}, farChosen.Chosen...)
	raw := func(first func(e *wireEnc)) []byte {
		var buf bytes.Buffer
		enc := newDigestEncoder(&buf, "w")
		enc.e.byte1(digestFrameRecord)
		first(enc.e)
		enc.n++
		for _, rec := range recs[1:] {
			if err := enc.record(rec); err != nil {
				tb.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	knownEdge := func(ids ...int64) func(e *wireEnc) {
		return func(e *wireEnc) {
			e.uvarint(0) // no wr edges
			e.uvarint(1) // one op: a known edge
			e.byte1(0)
			e.byte1(byte(core.EdgeWW))
			e.uvarint(uint64(len(ids)))
			for _, id := range ids {
				e.svarint(id)
			}
		}
	}
	return map[string]struct {
		digest []byte
		want   string
	}{
		"node-out-of-range":   {encodeDigest(tb, append([]*core.KeyRecord{&far}, recs[1:]...)), "outside the polygraph"},
		"chosen-out-of-range": {encodeDigest(tb, append([]*core.KeyRecord{&farChosen}, recs[1:]...)), "outside the polygraph"},
		"known-edge-3-ids":    {raw(knownEdge(2, 1, 1)), "known edge has 3 node ids"},
		"known-edge-0-ids":    {raw(knownEdge()), "known edge has 0 node ids"},
		"odd-side": {raw(func(e *wireEnc) {
			e.uvarint(0)
			e.uvarint(1)
			e.byte1(1) // constraint
			e.byte1(byte(core.EdgeWW))
			e.byte1(byte(core.EdgeWW))
			e.uvarint(3) // first side: three node ids
			e.svarint(2)
			e.svarint(1)
			e.svarint(2)
			e.uvarint(2)
			e.svarint(-3)
			e.svarint(3)
		}), "odd node-id count"},
		"bad-edge-kind": {raw(func(e *wireEnc) {
			e.uvarint(0)
			e.uvarint(1)
			e.byte1(0) // a known edge
			e.byte1(byte(core.EdgeHeuristic) + 1)
			e.uvarint(2)
			e.svarint(2)
			e.svarint(1)
		}), "unknown edge kind 7"},
		"bad-second-kind": {raw(func(e *wireEnc) {
			e.uvarint(0)
			e.uvarint(1)
			e.byte1(1 | 2) // a constraint whose first side is bad
			e.byte1(byte(core.EdgeWW))
			e.byte1(255)
			e.uvarint(0)
			e.uvarint(2)
			e.svarint(2)
			e.svarint(1)
		}), "unknown edge kind 255"},
		"unknown-op-flag": {raw(func(e *wireEnc) {
			e.uvarint(0)
			e.uvarint(1)
			e.byte1(8) // a flag bit no encoder sets
			e.byte1(byte(core.EdgeWW))
			e.uvarint(2)
			e.svarint(2)
			e.svarint(1)
		}), "unknown flags 0x08"},
	}
}

// TestHostileDigestRejected: a digest naming a node outside the
// polygraph, carrying edge runs that are not [from, to] pairs, or setting
// an op flag or edge kind the format does not define, is an error before it reaches
// the solver, so the dispatch retries or falls
// back instead of the solver indexing past its nodes or replaying a
// dropped or 0→0 edge.
func TestHostileDigestRejected(t *testing.T) {
	h := wireHistory(40, 5, 1)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	recs := core.BuildShardRecords(h, opts, h.Keys())
	for name, tc := range hostileDigests(t, recs) {
		m := core.NewShardMerger(h, opts)
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(tc.digest)), h.Keys(),
			func(i int, rec *core.KeyRecord) error { return m.Add(i, rec) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: merge error %v, want one containing %q", name, err, tc.want)
		}
		if _, err := core.CheckMergedContext(context.Background(), m); err == nil {
			t.Fatalf("%s: merged check succeeded without the refused record", name)
		}
	}
}

// FuzzWireRoundTrip: for arbitrary generated histories, encode→decode→
// record→digest→merge must reproduce the single-node records and
// verdict exactly — with timestamp pre-decision (the generated clocks
// are conformant, so records carry pre-decided constraints), under a
// drift bound, and with it off. This is the codec's soundness property
// — a wire bug must never be able to flip a verdict.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(40, 5, int64(1), 2)
	f.Add(120, 9, int64(7), 3)
	f.Add(200, 3, int64(11), 5)
	f.Add(2, 1, int64(0), 1)
	f.Fuzz(func(t *testing.T, txns, keys int, seed int64, shards int) {
		if shards < 1 {
			shards = 1
		}
		if shards > 8 {
			shards = shards%8 + 1
		}
		h := wireHistory(txns, keys, seed)
		for _, level := range []core.Level{core.AdyaSI, core.StrongSessionSI} {
			roundTripShards(t, h, core.Options{Level: level, Parallelism: 1}, shards)
		}
		roundTripShards(t, h, core.Options{Level: core.AdyaSI, Parallelism: 1, ClockDrift: time.Duration(seed&63) * time.Nanosecond}, shards)
		roundTripShards(t, h, core.Options{Level: core.AdyaSI, Parallelism: 1, DisableTSFastPath: true}, shards)
	})
}

// FuzzDigestDecode throws arbitrary bytes at the digest decoder and
// feeds whatever decodes into a ShardMerger and the merged check, as the
// coordinator does with network input: every stage must error or
// succeed — never panic or spin. The seed digests carry pre-decided
// constraints, so mutations reach the chosen-edge block and the merged
// check's fallback rebuild.
func FuzzDigestDecode(f *testing.F) {
	h := wireHistory(40, 5, 1)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	recs := core.BuildShardRecords(h, opts, h.Keys())
	if decided(recs) == 0 {
		f.Fatal("seed digest carries no pre-decided constraint")
	}
	f.Add(encodeDigest(f, recs))
	f.Add(encodeDigest(f, core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1, DisableTSFastPath: true}, h.Keys())))
	f.Add([]byte("VWD1"))
	f.Add([]byte{})
	hostile := hostileDigests(f, recs)
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name].digest)
	}
	keys := h.Keys()
	f.Fuzz(func(t *testing.T, data []byte) {
		m := core.NewShardMerger(h, opts)
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(data)), keys,
			func(i int, rec *core.KeyRecord) error { return m.Add(i, rec) })
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if rep, err := core.CheckMergedContext(ctx, m); err == nil && rep == nil {
			t.Fatal("merged check returned neither a report nor an error")
		}
	})
}

// FuzzShardJobDecode: same robustness property for the job decoder,
// which workers run on coordinator-supplied input.
func FuzzShardJobDecode(f *testing.F) {
	h := wireHistory(40, 5, 1)
	ranges := partitionKeys(h, 2, 0)
	for _, kr := range ranges {
		var buf bytes.Buffer
		if err := encodeShardJob(&buf, h, kr, core.Options{Level: core.AdyaSI}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("VWS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = decodeShardJob(bufio.NewReader(bytes.NewReader(data)))
	})
}

// TestWireDecodeTruncation: every strict prefix of a valid digest is an
// error, never a silently short record set.
func TestWireDecodeTruncation(t *testing.T) {
	h := wireHistory(60, 4, 3)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	recs := core.BuildShardRecords(h, opts, h.Keys())
	var buf bytes.Buffer
	enc := newDigestEncoder(&buf, "w")
	for i := range recs {
		if err := enc.record(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{0, 1, 4, len(whole) / 2, len(whole) - 1} {
		n := 0
		_, err := decodeDigest(bufio.NewReader(bytes.NewReader(whole[:cut])), h.Keys(),
			func(int, *core.KeyRecord) error { n++; return nil })
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly (%d records)", cut, len(whole), n)
		}
	}

	var jobBuf bytes.Buffer
	kr := keyRange{lo: 0, hi: len(h.Keys())}
	if err := encodeShardJob(&jobBuf, h, kr, opts); err != nil {
		t.Fatal(err)
	}
	job := jobBuf.Bytes()
	for _, cut := range []int{0, 3, len(job) / 3, len(job) - 1} {
		if _, _, _, err := decodeShardJob(bufio.NewReader(bytes.NewReader(job[:cut]))); err == nil {
			t.Fatalf("job truncation at %d/%d bytes decoded cleanly", cut, len(job))
		}
	}
}

// BenchmarkShardDigestEncode is the codec hot loop: allocations here
// multiply by every key of every shard of every check. The sync.Pool
// scratch buffers should hold steady-state allocs/op near zero.
func BenchmarkShardDigestEncode(b *testing.B) {
	h := wireHistory(300, 12, 9)
	recs := core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1}, h.Keys())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := newDigestEncoder(io.Discard, "w")
		for j := range recs {
			if err := enc.record(recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDigestEncodeAllocs guards the pool: encoding a whole digest must
// cost a handful of allocations total (encoder struct + pooled-buffer
// warmup), not per-record garbage.
func TestDigestEncodeAllocs(t *testing.T) {
	h := wireHistory(300, 12, 9)
	recs := core.BuildShardRecords(h, core.Options{Level: core.AdyaSI, Parallelism: 1}, h.Keys())
	avg := testing.AllocsPerRun(20, func() {
		enc := newDigestEncoder(io.Discard, "w")
		for j := range recs {
			if err := enc.record(recs[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.close(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("digest encode costs %.1f allocs per shard (want ≤ 8: pooled buffers defeated?)", avg)
	}
}

// decided counts the pre-decided constraints of recs.
func decided(recs []*core.KeyRecord) int {
	n := 0
	for _, rec := range recs {
		n += rec.Decided
	}
	return n
}

// TestWireRoundTripPreDecided: on a history with conformant clocks the
// shard job carries the coordinator's pre-decision gate, workers record
// pre-decided constraints, the digest round-trips them, and it is
// smaller than the digest of the same shard with every constraint built.
func TestWireRoundTripPreDecided(t *testing.T) {
	h := wireHistory(200, 6, 3)
	opts := core.Options{Level: core.AdyaSI, Parallelism: 1}
	off := opts
	off.DisableTSFastPath = true
	on, full := core.BuildShardRecords(h, opts, h.Keys()), core.BuildShardRecords(h, off, h.Keys())
	if decided(on) == 0 || decided(full) != 0 {
		t.Fatalf("pre-decided %d with the gate open, %d with the fast path off", decided(on), decided(full))
	}
	if a, b := len(encodeDigest(t, on)), len(encodeDigest(t, full)); a >= b {
		t.Fatalf("pre-decided digest is %d bytes, the full one %d", a, b)
	}
	for _, o := range []core.Options{opts, off} {
		roundTripShards(t, h, o, 3)
	}
}

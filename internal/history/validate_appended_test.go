package history

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// streamGen generates a history transaction by transaction, the way a
// session receives one, with seeded mutations that break validation in
// every way ValidateAppended must agree with Validate on.
type streamGen struct {
	rng      *rand.Rand
	keys     []Key
	sessions []int32 // next sequence number per session
	nextID   WriteID
	written  map[Key][]WriteID // committed write ids per key
	fenced   map[Key]bool      // keys written before the fence
	aborted  []WriteID
	all      []WriteID
	// mut enables the mutations: duplicate write ids, reads of writes a
	// later transaction makes, aborted reads, sparse or reordered session
	// sequence numbers, and stray malformations.
	mut uint8
}

const (
	mutDup uint8 = 1 << iota
	mutFuture
	mutAborted
	mutSparse
	mutStray
)

func newStreamGen(seed int64, mut uint8) *streamGen {
	rng := rand.New(rand.NewSource(seed))
	g := &streamGen{rng: rng, nextID: 1, written: make(map[Key][]WriteID), fenced: make(map[Key]bool), mut: mut}
	for i := 0; i < 1+rng.Intn(4); i++ {
		g.keys = append(g.keys, Key(fmt.Sprintf("k%d", i)))
	}
	g.sessions = make([]int32, 1+rng.Intn(4))
	return g
}

// on reports whether to apply mutation m this time: rarely, so a stream
// validates for a while before its first violation.
func (g *streamGen) on(m uint8) bool { return g.mut&m != 0 && g.rng.Intn(40) == 0 }

// observe picks the write id a read of key sees.
func (g *streamGen) observe(key Key) WriteID {
	switch {
	case g.on(mutFuture):
		return g.nextID + WriteID(g.rng.Intn(6)) // written later, maybe
	case g.on(mutAborted) && len(g.aborted) > 0:
		return g.aborted[g.rng.Intn(len(g.aborted))]
	case g.on(mutStray) && len(g.all) > 0:
		return g.all[g.rng.Intn(len(g.all))] // maybe another key's
	}
	ws := g.written[key]
	if len(ws) == 0 || !g.fenced[key] && g.rng.Intn(4) == 0 {
		return GenesisWriteID
	}
	return ws[len(ws)-1-g.rng.Intn(min(len(ws), 3))]
}

func (g *streamGen) txn() *Txn {
	sess := int32(g.rng.Intn(len(g.sessions)))
	t := &Txn{Session: sess, SeqInSession: g.sessions[sess], Status: StatusCommitted}
	g.sessions[sess]++
	if g.on(mutSparse) {
		g.sessions[sess] += int32(g.rng.Intn(5)) - 2 // skip, keep, repeat or rewind
	}
	if g.on(mutStray) {
		t.Session = -1
	}
	if g.rng.Intn(6) == 0 {
		t.Status = StatusAborted
	}
	var mine []Op
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		key := g.keys[g.rng.Intn(len(g.keys))]
		switch g.rng.Intn(5) {
		case 0, 1:
			op := Op{Kind: OpRead, Key: key, Observed: g.observe(key)}
			if len(mine) > 0 && g.rng.Intn(5) == 0 {
				// A read of an earlier own write; a stray one may be of
				// another key.
				w := mine[g.rng.Intn(len(mine))]
				if !g.on(mutStray) {
					op.Key = w.Key
				}
				op.Observed = w.WriteID
			}
			t.Ops = append(t.Ops, op)
		case 2, 3:
			id := g.nextID
			g.nextID++
			if g.on(mutDup) && len(g.all) > 0 {
				id = g.all[g.rng.Intn(len(g.all))]
			} else if g.on(mutStray) {
				id = GenesisWriteID
			}
			t.Ops = append(t.Ops, Op{Kind: OpWrite, Key: key, WriteID: id})
			mine = append(mine, t.Ops[len(t.Ops)-1])
		default:
			lo, hi := g.keys[0], g.keys[len(g.keys)-1]
			if g.on(mutStray) {
				lo, hi = hi, lo
			}
			op := Op{Kind: OpRange, Lo: lo, Hi: hi}
			for _, k := range g.keys {
				if len(g.written[k]) > 0 || g.rng.Intn(3) == 0 {
					op.Result = append(op.Result, Version{Key: k, WriteID: g.observe(k)})
				}
			}
			if g.on(mutStray) && len(op.Result) > 0 {
				op.Result = append(op.Result, op.Result[0]) // a key twice
			}
			t.Ops = append(t.Ops, op)
		}
	}
	for _, op := range t.Ops {
		if op.Kind != OpWrite {
			continue
		}
		g.all = append(g.all, op.WriteID)
		if t.Committed() {
			g.written[op.Key] = append(g.written[op.Key], op.WriteID)
		} else {
			g.aborted = append(g.aborted, op.WriteID)
		}
	}
	return t
}

// genFence returns a certificate over the generator's keys: write ids
// 1..n, one latest per key, some stale and some aborted. It sets the
// generator up to continue after it, as a checkpointed session does.
func (g *streamGen) genFence(n int) *Fence {
	f := &Fence{Base: int64(n), Checkpoints: 1, Txns: n, Writes: make(map[WriteID]FencedWrite), Latest: make(map[Key]WriteID)}
	for i := 0; i < n; i++ {
		id, key := g.nextID, g.keys[g.rng.Intn(len(g.keys))]
		g.nextID++
		fw := FencedWrite{Key: key, State: FencedStale}
		if g.rng.Intn(5) == 0 {
			fw.State = FencedAborted
			g.aborted = append(g.aborted, id)
		} else {
			if prev, ok := f.Latest[key]; ok && g.rng.Intn(3) > 0 {
				f.Writes[prev] = FencedWrite{Key: key, State: FencedStale}
			}
			fw.State = FencedLatest
			f.Latest[key] = id
		}
		f.Writes[id] = fw
		g.all = append(g.all, id)
	}
	for id, fw := range f.Writes {
		if fw.State == FencedLatest && f.Latest[fw.Key] != id {
			f.Writes[id] = FencedWrite{Key: fw.Key, State: FencedStale}
		}
	}
	for k, id := range f.Latest {
		g.written[k] = append(g.written[k], id)
		g.fenced[k] = true
	}
	f.SessBase = make([]int32, len(g.sessions))
	for s := range g.sessions {
		f.SessBase[s] = int32(g.rng.Intn(3))
		g.sessions[s] = f.SessBase[s]
	}
	f.Freeze()
	return f
}

// staler returns a copy of f in which one key's latest pre-fence version
// is superseded, as if a later checkpoint had fenced a newer write of
// it: reads validated under f may now be stale, so the fence change must
// force a full validation.
func (g *streamGen) staler(f *Fence) *Fence {
	nf := &Fence{Base: f.Base, Checkpoints: f.Checkpoints + 1, Txns: f.Txns, SessBase: f.SessBase,
		Writes: maps.Clone(f.Writes), Latest: maps.Clone(f.Latest)}
	for _, k := range g.keys {
		if w, ok := nf.Latest[k]; ok {
			id := g.nextID
			g.nextID++
			nf.Writes[w] = FencedWrite{Key: k, State: FencedStale}
			nf.Writes[id] = FencedWrite{Key: k, State: FencedLatest}
			nf.Latest[k] = id
			g.written[k] = append(g.written[k], id)
			break
		}
	}
	nf.Freeze()
	return nf
}

// sameValidation fails unless the streamed history h and a full
// validation of a copy agree: the same error, or on success the same
// indexes.
func sameValidation(t *testing.T, h *History, got error) {
	t.Helper()
	c := &History{Txns: slices.Clone(h.Txns)}
	c.SetFence(h.Fence())
	want := c.Validate()
	var g, w *ValidationError
	if (got == nil) != (want == nil) ||
		got != nil && (!errors.As(got, &g) || !errors.As(want, &w) || *g != *w) {
		t.Fatalf("after %d txns: ValidateAppended = %v, Validate = %v", h.Len(), got, want)
	}
	if got != nil {
		return
	}
	if !slices.Equal(h.Keys(), c.Keys()) || h.KeyBytes() != c.KeyBytes() {
		t.Fatalf("after %d txns: keys %v (%d bytes), want %v (%d bytes)", h.Len(), h.Keys(), h.KeyBytes(), c.Keys(), c.KeyBytes())
	}
	if !reflect.DeepEqual(h.Sessions, c.Sessions) {
		t.Fatalf("after %d txns: sessions %v, want %v", h.Len(), h.Sessions, c.Sessions)
	}
	if !maps.Equal(h.writerOf, c.writerOf) || !maps.Equal(h.aborted, c.aborted) {
		t.Fatalf("after %d txns: writer indexes differ from a full validation", h.Len())
	}
}

// FuzzValidateAppended streams generated, mutated histories into a
// History in random batches and checks, after every batch, that
// ValidateAppended returns the error a full Validate of a copy returns
// (kind, transaction, op and message) and builds the same key, session
// and writer indexes. Reads of writes a later batch brings are rejected
// and then heal; the fence variants start from a certificate and swap
// in a later one midway, which must force a full validation.
func FuzzValidateAppended(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(40), uint8(0), false)
		f.Add(seed, uint8(40), uint8(0), true)
		f.Add(seed, uint8(60), uint8(0x1f), seed%2 == 0)
	}
	f.Add(int64(99), uint8(120), uint8(mutFuture|mutSparse), true)
	f.Fuzz(func(t *testing.T, seed int64, n, mut uint8, fenced bool) {
		g := newStreamGen(seed, mut)
		h := New()
		if fenced {
			h.SetFence(g.genFence(1 + g.rng.Intn(8)))
		}
		swapAt := g.rng.Intn(int(n) + 1)
		var pending []*Txn
		for i := 0; i < int(n); {
			for b := 1 + g.rng.Intn(8); b > 0 && i < int(n); b-- {
				pending = append(pending, g.txn())
				i++
			}
			if g.mut&mutSparse != 0 && len(pending) > 1 && g.rng.Intn(3) == 0 {
				// Deliver a session's transactions out of order.
				a, b := g.rng.Intn(len(pending)), g.rng.Intn(len(pending))
				pending[a], pending[b] = pending[b], pending[a]
			}
			for _, tx := range pending {
				h.Append(tx)
			}
			pending = pending[:0]
			if fenced && i >= swapAt {
				h.SetFence(g.staler(h.Fence()))
				fenced = false
			}
			sameValidation(t, h, h.ValidateAppended())
		}
	})
}

func TestValidateAppendedHealsAFutureRead(t *testing.T) {
	h := New()
	h.Append(&Txn{Session: 0, SeqInSession: 0, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 1}}})
	if err := h.ValidateAppended(); err != nil {
		t.Fatal(err)
	}
	h.Append(&Txn{Session: 1, SeqInSession: 0, Ops: []Op{{Kind: OpRead, Key: "x", Observed: 2}}})
	err := h.ValidateAppended()
	wantKind(t, err, ErrUnknownWrite)
	sameValidation(t, h, err)
	h.Append(&Txn{Session: 0, SeqInSession: 1, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 2}}})
	err = h.ValidateAppended()
	if err != nil {
		t.Fatalf("the write arrived, yet: %v", err)
	}
	sameValidation(t, h, err)
	if ref, ok := h.WriterOf(2); !ok || ref.Txn != 3 {
		t.Fatalf("WriterOf(2) = %v, %v", ref, ok)
	}
}

func TestValidateAppendedSessionOrder(t *testing.T) {
	h := New()
	add := func(sess, seq int32, wid WriteID) {
		h.Append(&Txn{Session: sess, SeqInSession: seq, Ops: []Op{{Kind: OpWrite, Key: "k", WriteID: wid}}})
	}
	add(0, 0, 1)
	add(0, 1, 2)
	add(0, 2, 3)
	if err := h.ValidateAppended(); err != nil {
		t.Fatal(err)
	}
	// A batch that sequences inside the validated prefix re-sorts the
	// session; a duplicate names the later transaction, at its sorted
	// position.
	add(0, 1, 4)
	err := h.ValidateAppended()
	if v := wantKind(t, err, ErrMalformed); v.Txn != 4 || !strings.Contains(v.Msg, "position 2") {
		t.Fatalf("duplicate sequence number: %v, want txn 4 at position 2", err)
	}
	sameValidation(t, h, err)

	h = New()
	add(0, 0, 1)
	if err := h.ValidateAppended(); err != nil {
		t.Fatal(err)
	}
	add(0, 2, 2) // out of order within and across batches, then dense
	add(1, 0, 3)
	if err := h.ValidateAppended(); err == nil {
		t.Fatal("a gap in session 0 validated")
	}
	add(0, 1, 4)
	err = h.ValidateAppended()
	if err != nil {
		t.Fatal(err)
	}
	sameValidation(t, h, err)
	if want := []TxnID{1, 4, 2}; !slices.Equal(h.Sessions[0], want) {
		t.Fatalf("session 0 = %v, want %v", h.Sessions[0], want)
	}
}

func TestValidateAppendedAbortedWrites(t *testing.T) {
	h := New()
	h.Append(&Txn{Session: 0, Status: StatusAborted, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 7}}})
	if err := h.ValidateAppended(); err != nil {
		t.Fatal(err)
	}
	// A later batch reading the aborted write is G1a; one reusing its id
	// is a duplicate, though only committed writes enter WriterOf.
	h.Append(&Txn{Session: 1, Ops: []Op{{Kind: OpRead, Key: "x", Observed: 7}}})
	err := h.ValidateAppended()
	wantKind(t, err, ErrAbortedRead)
	sameValidation(t, h, err)

	h = New()
	h.Append(&Txn{Session: 0, Status: StatusAborted, Ops: []Op{{Kind: OpWrite, Key: "x", WriteID: 7}}})
	if err := h.ValidateAppended(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.WriterOf(7); ok {
		t.Fatal("an aborted write resolves through WriterOf")
	}
	h.Append(&Txn{Session: 1, Ops: []Op{{Kind: OpWrite, Key: "y", WriteID: 7}}})
	err = h.ValidateAppended()
	if v := wantKind(t, err, ErrMalformed); !strings.Contains(v.Msg, "first written by txn 1") {
		t.Fatalf("duplicate of an aborted write: %v", err)
	}
	sameValidation(t, h, err)
}

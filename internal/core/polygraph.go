package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"viper/internal/history"
)

// Edge is a directed edge between polygraph nodes. Under SI levels, nodes
// are begin/commit events (node 2t is txn t's begin, 2t+1 its commit);
// under Serializability each transaction is a single node (id t).
type Edge struct {
	From, To int32
}

// EdgeKind classifies known edges, for diagnostics and cycle reporting.
type EdgeKind uint8

const (
	// EdgeIntra orders a transaction's begin before its commit.
	EdgeIntra EdgeKind = iota
	// EdgeWR is a read dependency (commit of writer → begin of reader).
	EdgeWR
	// EdgeWW is a known write dependency (from combining writes, or a
	// constraint side forced during construction or pruning).
	EdgeWW
	// EdgeRW is a known anti-dependency.
	EdgeRW
	// EdgeSession orders consecutive transactions of a session
	// (Strong Session SI).
	EdgeSession
	// EdgeRealTime is a bounded-clock-drift happens-before edge
	// (GSI / Strong SI), possibly through an auxiliary chain node.
	EdgeRealTime
	// EdgeHeuristic is a pruning assumption (§3.5), present only in retry
	// attempts, never in the polygraph itself.
	EdgeHeuristic
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeIntra:
		return "intra"
	case EdgeWR:
		return "wr"
	case EdgeWW:
		return "ww"
	case EdgeRW:
		return "rw"
	case EdgeSession:
		return "session"
	case EdgeRealTime:
		return "real-time"
	case EdgeHeuristic:
		return "heuristic"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// KnownEdge is an edge of the known graph with its provenance.
type KnownEdge struct {
	Edge
	Kind EdgeKind
	Key  history.Key // for wr/ww/rw edges
}

// Constraint is one "exactly one side holds" alternative (Definition 3,
// generalized to edge sets by constraint coalescing). Uncoalesced
// constraints have singleton sides and are encoded as the paper's XOR;
// coalesced constraints get a selector boolean implying each side.
// Kind1/Kind2 carry each side's edge kind so a side forced later — by
// construction-time contradiction of the other side, or by the sound
// pre-solve resolution pass (resolve.go) — enters the known graph with
// the same provenance construction-time forcing would have given it.
type Constraint struct {
	First, Second []Edge
	Kind1, Kind2  EdgeKind
	Key           history.Key
}

// Polygraph is a BC-polygraph (Definition 3): the known graph (nodes +
// Known edges) and the constraint set. For Serializability it degenerates
// to the transaction-level polygraph of §3.4's parallel.
type Polygraph struct {
	H     *history.History
	Level Level

	// NumNodes includes the per-transaction nodes and any auxiliary
	// real-time chain nodes.
	NumNodes int32

	Known []KnownEdge
	Cons  []Constraint

	// Contradiction marks a constraint whose both sides were impossible at
	// construction time; the history is trivially non-SI.
	Contradiction bool

	// nodeTS is a wall-clock hint per node, used as the tie-break in the
	// heuristic-pruning topological sort (it mimics the database's real
	// schedule; §6).
	nodeTS []int64

	ser      bool
	knownSet edgeSet

	// Timestamp pre-decision (tsorder.go). On the recording polygraph
	// (recorder), preDecide and drift switch it on. On an assembled one,
	// preDecided counts the constraints its records pre-decided, chosen
	// references the records' chosen-edge arenas, and full rebuilds the
	// polygraph with every constraint materialised, for the checks
	// timestamps cannot finish.
	preDecide  bool
	drift      int64
	preDecided int
	chosen     [][]Edge
	full       func() (pg *Polygraph, wall, cpu time.Duration)

	// knownByKind counts Known by edge kind, maintained by addKnown.
	knownByKind [EdgeHeuristic + 1]int
}

// Begin returns the node id of t's begin event.
func (pg *Polygraph) Begin(t history.TxnID) int32 {
	if pg.ser {
		return int32(t)
	}
	return int32(t) * 2
}

// Commit returns the node id of t's commit event.
func (pg *Polygraph) Commit(t history.TxnID) int32 {
	if pg.ser {
		return int32(t)
	}
	return int32(t)*2 + 1
}

// NodeName renders a node id for diagnostics ("B12", "C12", "T12", "aux3").
func (pg *Polygraph) NodeName(n int32) string { return NodeName(pg.H, pg.Level, n) }

// NodeName renders node n of a counterexample cycle checked at level over
// h, without building the polygraph: the node mapping depends only on the
// transaction count and the level. Polynomial levels' nodes are
// transaction ids of the forced commit order ("T12"); the solver levels'
// are begin/commit event nodes ("B12", "C12"; "T12" under the
// Serializability mapping) followed by the real-time levels' auxiliary
// nodes ("aux3").
func NodeName(h *history.History, level Level, n int32) string {
	// Transaction ids in diagnostics are external: behind a checkpoint
	// fence, live internal ids are offset by the fenced count so cycles
	// keep naming the transactions the client actually streamed (genesis
	// stays 0, matching validation errors).
	ext := func(t int32) history.TxnID { return h.Fence().ExternalID(history.TxnID(t)) }
	if level.Polynomial() {
		return fmt.Sprintf("T%d", ext(n))
	}
	auxBase := int32(len(h.Txns))
	if level != Serializability {
		auxBase *= 2
	}
	switch {
	case n >= auxBase:
		return fmt.Sprintf("aux%d", n-auxBase)
	case level == Serializability:
		return fmt.Sprintf("T%d", ext(n))
	case n%2 == 0:
		return fmt.Sprintf("B%d", ext(n/2))
	}
	return fmt.Sprintf("C%d", ext(n/2))
}

// edgeClass classifies a candidate edge between events of possibly the
// same transaction.
type edgeClass int8

const (
	edgeNormal edgeClass = 0
	edgeTrue   edgeClass = 1  // holds trivially (a txn begins before it commits)
	edgeFalse  edgeClass = -1 // impossible (a txn cannot commit before it begins)
)

// classify resolves an event-level edge to node ids and a class. Same-
// transaction begin→commit edges are trivially true; commit→begin edges
// are impossible. This matters under the Serializability mapping, where
// both would collapse to a self-loop.
func (pg *Polygraph) classify(fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool) (Edge, edgeClass) {
	if fromT == toT {
		if !fromCommit && toCommit {
			return Edge{}, edgeTrue
		}
		if fromCommit && !toCommit {
			return Edge{}, edgeFalse
		}
		// begin→begin / commit→commit of the same txn: degenerate, treat
		// as trivially true (no ordering content).
		return Edge{}, edgeTrue
	}
	var e Edge
	if fromCommit {
		e.From = pg.Commit(fromT)
	} else {
		e.From = pg.Begin(fromT)
	}
	if toCommit {
		e.To = pg.Commit(toT)
	} else {
		e.To = pg.Begin(toT)
	}
	return e, edgeNormal
}

func (pg *Polygraph) addKnown(e Edge, kind EdgeKind, key history.Key) {
	if e.From == e.To || !pg.knownSet.add(e) {
		return
	}
	pg.knownByKind[kind]++
	pg.Known = append(pg.Known, KnownEdge{Edge: e, Kind: kind, Key: key})
}

// chain is a maximal run of writers of one key whose mutual write order is
// known (read-modify-write chains; Cobra's combining writes adapted to
// BC-polygraphs). The genesis chain, if present, is the version order's
// prefix.
type chain struct {
	members []history.TxnID
	genesis bool
}

func (c *chain) head() history.TxnID { return c.members[0] }
func (c *chain) tail() history.TxnID { return c.members[len(c.members)-1] }

// Build constructs the BC-polygraph of a validated history (Figure 4's
// CreateBCPolygraph, plus range-query derivation, combining writes,
// constraint coalescing, and the variant edges of §5) along the one
// construction path (parallel.go): index the history, record every key on
// the worker pool, and replay the records in key order. The polygraph is
// identical for every opts.Parallelism. When the pre-decision gate is
// open (tsorder.go), constraints the timestamps decide are counted rather
// than built; Build with DisableTSFastPath set gives the polygraph of
// Definition 3 with every constraint materialised.
func Build(h *history.History, opts Options) *Polygraph {
	ix := indexHistory(h)
	recs, _, _ := ix.collect(recorder(h, opts), opts, h.Keys())
	return assemble(h, opts, func() *readIndex { return ix }, func(i int) *KeyRecord { return recs[i] })
}

// assemble lays out the skeleton, replays the records of h.Keys() (rec(i)
// is key i's record, or nil when the key contributes nothing), and adds
// the level's variant edges. When the records pre-decided constraints,
// the polygraph can rebuild itself in full from the index ix returns.
func assemble(h *history.History, opts Options, ix func() *readIndex, rec func(i int) *KeyRecord) *Polygraph {
	n := len(h.Keys())
	known := 0
	for i := 0; i < n; i++ {
		if r := rec(i); r != nil {
			known += r.knownEdges()
		}
	}
	pg := newPolygraph(h, opts.Level, known)
	pg.replay(n, rec)
	pg.addVariantEdges(opts)
	pg.setFull(opts, ix, rec)
	return pg
}

// setFull arms pg's fallback rebuild when its records pre-decided
// constraints (see fullPolygraph).
func (pg *Polygraph) setFull(opts Options, ix func() *readIndex, rec func(i int) *KeyRecord) {
	if pg.preDecided > 0 {
		pg.full = func() (*Polygraph, time.Duration, time.Duration) {
			return fullPolygraph(ix(), opts, rec)
		}
	}
}

// newPolygraph lays out the skeleton every construction path starts
// from: the level's node mapping, per-node wall-clock hints, and the
// intra-transaction edges (begin → commit; none under the
// Serializability mapping). The known graph is sized for those plus
// known more edges — the records' count, when the caller has them.
func newPolygraph(h *history.History, level Level, known int) *Polygraph {
	pg := &Polygraph{
		H:     h,
		Level: level,
		ser:   level == Serializability,
	}
	pg.NumNodes = int32(len(h.Txns))
	if !pg.ser {
		pg.NumNodes *= 2
		known += len(h.Txns)
	}
	pg.Known = make([]KnownEdge, 0, known)
	pg.knownSet = newEdgeSet(known)
	pg.initNodeTS()
	if !pg.ser {
		for _, t := range h.Txns {
			if t.Committed() {
				pg.addKnown(Edge{pg.Begin(t.ID), pg.Commit(t.ID)}, EdgeIntra, "")
			}
		}
	}
	return pg
}

// addVariantEdges adds the level's session and real-time edges (§5),
// after every key's emissions.
func (pg *Polygraph) addVariantEdges(opts Options) {
	if opts.Level == StrongSessionSI {
		pg.addSessionEdges()
	}
	if opts.Level.needsRealTime() {
		pg.addRealTimeEdges(opts)
	}
}

// initNodeTS fills the per-node wall-clock hints.
func (pg *Polygraph) initNodeTS() {
	pg.nodeTS = make([]int64, pg.NumNodes)
	pg.stampNodes(pg.H.Txns)
}

// stampNodes sets the wall-clock hints of txns' nodes; an aborted
// transaction's stay zero.
func (pg *Polygraph) stampNodes(txns []*history.Txn) {
	for _, t := range txns {
		if !t.Committed() {
			continue
		}
		pg.nodeTS[pg.Begin(t.ID)] = t.BeginAt
		pg.nodeTS[pg.Commit(t.ID)] = t.CommitAt
	}
}

// rangeObs remembers a committed range query so that keys first written
// after the query was indexed can retroactively contribute the genesis
// observations it implies.
type rangeObs struct {
	reader   history.TxnID
	lo, hi   history.Key
	returned map[history.Key]bool
}

// readIndex is the read/writer index every construction path records
// from: key → writer → readers of that version, and key → committed
// writers, each list deduplicated and in transaction order. Range queries
// contribute their returned versions as reads, and — thanks to the
// tombstone discipline (§4) — genesis reads for every written key inside
// the range that was absent from the result: a correct collector setup
// never truly deletes keys, so absence can only mean "never inserted",
// i.e. the range query read the key's initial version.
//
// The index grows with its history: update folds in the transactions
// appended since the last update, so a one-shot build fills it in one call
// and a session extends it at every audit.
type readIndex struct {
	h       *history.History
	indexed int // h.Txns high-water mark already folded in
	readers map[history.Key]map[history.TxnID][]history.TxnID
	writers map[history.Key][]history.TxnID
	ranges  []rangeObs
}

func newReadIndex(h *history.History) *readIndex {
	return &readIndex{
		h:       h,
		indexed: 1,
		readers: make(map[history.Key]map[history.TxnID][]history.TxnID),
		writers: make(map[history.Key][]history.TxnID),
	}
}

// indexHistory returns the index of every transaction of h.
func indexHistory(h *history.History) *readIndex {
	ix := newReadIndex(h)
	ix.update()
	return ix
}

// update folds transactions [indexed, len(h.Txns)) into the index and
// returns the written keys whose writers or readers changed, ascending:
// the keys whose records must be recorded again. h must be validated.
func (ix *readIndex) update() []history.Key {
	h := ix.h
	if ix.indexed >= len(h.Txns) {
		return nil
	}
	newTxns := h.Txns[ix.indexed:]
	ix.indexed = len(h.Txns)
	dirty := make(map[history.Key]bool)
	add := func(key history.Key, w, r history.TxnID) {
		if ix.addReader(key, w, r) {
			dirty[key] = true
		}
	}

	// New committed writers first: they define which keys are new, which
	// older range queries must retroactively observe. Write ops are
	// scanned directly rather than through a per-transaction
	// LastWritePerKey map; a transaction's repeated writes of a key
	// deduplicate against the list's tail, since no later transaction can
	// have appended in between.
	var newKeys []history.Key
	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		for i := range t.Ops {
			switch t.Ops[i].Kind {
			case history.OpWrite, history.OpInsert, history.OpDelete:
				key := t.Ops[i].Key
				ws := ix.writers[key]
				if len(ws) > 0 && ws[len(ws)-1] == t.ID {
					continue
				}
				if len(ws) == 0 {
					newKeys = append(newKeys, key)
				}
				ix.writers[key] = append(ws, t.ID)
				dirty[key] = true
			}
		}
	}
	if len(newKeys) > 0 && len(ix.ranges) > 0 {
		slices.Sort(newKeys)
		for _, ro := range ix.ranges {
			from, _ := slices.BinarySearch(newKeys, ro.lo)
			for _, k := range newKeys[from:] {
				if k > ro.hi {
					break
				}
				if !ro.returned[k] {
					add(k, history.GenesisID, ro.reader)
				}
			}
		}
	}

	for _, t := range newTxns {
		if !t.Committed() {
			continue
		}
		t.ExternalReads(func(key history.Key, obs history.WriteID) {
			ref, ok := h.WriterOf(obs)
			if !ok {
				return // unreachable on validated histories
			}
			add(key, ref.Txn, t.ID)
		})
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Kind != history.OpRange {
				continue
			}
			returned := make(map[history.Key]bool, len(op.Result))
			for _, v := range op.Result {
				returned[v.Key] = true
			}
			for _, k := range h.KeysInRange(op.Lo, op.Hi) {
				if !returned[k] {
					add(k, history.GenesisID, t.ID)
				}
			}
			ix.ranges = append(ix.ranges, rangeObs{reader: t.ID, lo: op.Lo, hi: op.Hi, returned: returned})
		}
	}

	keys := make([]history.Key, 0, len(dirty))
	for k := range dirty {
		if len(ix.writers[k]) > 0 {
			keys = append(keys, k) // never-written keys have nothing to record
		}
	}
	slices.Sort(keys)
	return keys
}

// addReader records that r observed w's version of key and reports
// whether the observation is new. The reader is inserted at its sorted
// position: a range query's retroactive genesis observation can arrive
// after newer readers of the same version.
func (ix *readIndex) addReader(key history.Key, w, r history.TxnID) bool {
	if w == r {
		return false
	}
	m := ix.readers[key]
	if m == nil {
		m = make(map[history.TxnID][]history.TxnID, 4)
		ix.readers[key] = m
	}
	rs := m[w]
	i, found := slices.BinarySearch(rs, r)
	if found {
		return false
	}
	m[w] = slices.Insert(rs, i, r)
	return true
}

// buildKeyConstraints emits the known edges and constraints for one key
// (Figure 4 lines 37–50, at writer-chain granularity) into rec.
func (pg *Polygraph) buildKeyConstraints(rec *KeyRecord, writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine, coalesce bool) {
	chains := pg.writerChains(writers, byWriter, combine)
	if len(chains) == 0 {
		return
	}

	// In-chain known edges.
	var gchain *chain
	for _, ch := range chains {
		if ch.genesis {
			gchain = ch
		}
		for i := 0; i+1 < len(ch.members); i++ {
			cur, next := ch.members[i], ch.members[i+1]
			pg.recordKnown(rec, cur, true, next, false, EdgeWW)
			// Readers of a non-tail version anti-depend on the next
			// in-chain writer.
			for _, r := range byWriter[cur] {
				if r == next {
					continue
				}
				pg.recordKnown(rec, r, false, next, true, EdgeRW)
			}
		}
	}

	// The genesis chain precedes every other chain: its tail commits
	// before other heads begin, and readers of its tail begin before
	// other heads commit.
	if gchain != nil {
		for _, ch := range chains {
			if ch == gchain {
				continue
			}
			if gchain.tail() != history.GenesisID {
				pg.recordKnown(rec, gchain.tail(), true, ch.head(), false, EdgeWW)
			}
			for _, r := range byWriter[gchain.tail()] {
				pg.recordKnown(rec, r, false, ch.head(), true, EdgeRW)
			}
		}
	}

	// Pairwise constraints between non-genesis chains.
	var real []*chain
	for _, ch := range chains {
		if !ch.genesis {
			real = append(real, ch)
		}
	}
	var buf [2][]Edge
	for i := 0; i < len(real); i++ {
		for j := i + 1; j < len(real); j++ {
			pg.chainPairConstraints(rec, real[i], real[j], byWriter, coalesce, &buf)
		}
	}
}

// chainPairConstraints emits the constraints between two chains: either
// ch1 is entirely before ch2 in the key's version order or vice versa.
// "first before second" means tail(first) commits before head(second)
// begins, and every reader of tail(first)'s version begins before
// head(second) commits. Sides resolve through classify straight into the
// scratch buffers buf, so a pair the recording pass pre-decides
// allocates nothing.
func (pg *Polygraph) chainPairConstraints(rec *KeyRecord, ch1, ch2 *chain, byWriter map[history.TxnID][]history.TxnID, coalesce bool, buf *[2][]Edge) {
	// add appends one event-level edge to side, reporting false for an
	// impossible edge; trivially true edges are elided.
	add := func(side *[]Edge, fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool) bool {
		e, cls := pg.classify(fromT, fromCommit, toT, toCommit)
		if cls == edgeNormal {
			*side = append(*side, e)
		}
		return cls != edgeFalse
	}
	if coalesce {
		side := func(dst []Edge, first, second *chain) ([]Edge, bool) {
			dst = dst[:0]
			if !add(&dst, first.tail(), true, second.head(), false) {
				return dst[:0], true
			}
			for _, r := range byWriter[first.tail()] {
				if !add(&dst, r, false, second.head(), true) {
					return dst[:0], true
				}
			}
			return dst, false
		}
		f, fBad := side(buf[0], ch1, ch2)
		s, sBad := side(buf[1], ch2, ch1)
		buf[0], buf[1] = f, s // keep the grown capacity
		pg.recordConstraint(rec, f, s, fBad, sBad, EdgeWW, EdgeWW)
		return
	}
	// Uncoalesced: the paper's per-edge XOR constraints (Figure 4 lines 46
	// and 50), all sharing the "other order" ww edge.
	one := func(dst []Edge, fromT history.TxnID, fromCommit bool, toT history.TxnID, toCommit bool) ([]Edge, bool) {
		dst = dst[:0]
		ok := add(&dst, fromT, fromCommit, toT, toCommit)
		return dst, !ok
	}
	fw, fwBad := one(buf[0], ch1.tail(), true, ch2.head(), false)
	rv, rvBad := one(buf[1], ch2.tail(), true, ch1.head(), false)
	pg.recordConstraint(rec, fw, rv, fwBad, rvBad, EdgeWW, EdgeWW)
	var tmp [1]Edge
	for _, r := range byWriter[ch1.tail()] {
		e, eBad := one(tmp[:0], r, false, ch2.head(), true)
		pg.recordConstraint(rec, e, rv, eBad, rvBad, EdgeRW, EdgeWW)
	}
	for _, r := range byWriter[ch2.tail()] {
		e, eBad := one(tmp[:0], r, false, ch1.head(), true)
		pg.recordConstraint(rec, e, fw, eBad, fwBad, EdgeRW, EdgeWW)
	}
}

// writerChains partitions a key's writers into chains. With combining
// disabled every writer is a singleton; the genesis chain is always
// present (genesis implicitly installs every key's initial version).
func (pg *Polygraph) writerChains(writers []history.TxnID, byWriter map[history.TxnID][]history.TxnID, combine bool) []*chain {
	singletons := func() []*chain {
		out := make([]*chain, 0, len(writers)+1)
		out = append(out, &chain{members: []history.TxnID{history.GenesisID}, genesis: true})
		for _, w := range writers {
			out = append(out, &chain{members: []history.TxnID{w}})
		}
		return out
	}
	if !combine || len(writers) == 0 {
		return singletons()
	}

	isWriter := make(map[history.TxnID]bool, len(writers))
	for _, w := range writers {
		isWriter[w] = true
	}
	// pred[w] = the writer (or genesis) whose version w externally read;
	// derived from the readers index: w is chained after p iff w read
	// (key, p) and w writes the key. A writer observing two distinct
	// versions has no consistent position — fall back to singletons.
	pred := make(map[history.TxnID]history.TxnID, len(writers))
	for _, p := range sortedTxns(byWriter) {
		if p != history.GenesisID && !isWriter[p] {
			continue
		}
		for _, r := range byWriter[p] {
			if !isWriter[r] {
				continue
			}
			if prev, dup := pred[r]; dup && prev != p {
				return singletons()
			}
			pred[r] = p
		}
	}
	// succ inverts pred; branching (two writers reading the same version
	// and writing the key) breaks the chain property — fall back to
	// singletons and let the constraints expose the (non-SI) situation.
	succ := make(map[history.TxnID]history.TxnID, len(pred))
	for _, w := range writers {
		p, ok := pred[w]
		if !ok {
			continue
		}
		if _, dup := succ[p]; dup {
			return singletons()
		}
		succ[p] = w
	}

	chained := make(map[history.TxnID]bool, len(writers))
	follow := func(start history.TxnID, c *chain) bool {
		for cur := start; ; {
			next, ok := succ[cur]
			if !ok {
				return true
			}
			if chained[next] || next == start {
				return false // cycle in claimed write order
			}
			c.members = append(c.members, next)
			chained[next] = true
			cur = next
		}
	}
	var chains []*chain
	g := &chain{members: []history.TxnID{history.GenesisID}, genesis: true}
	if !follow(history.GenesisID, g) {
		return singletons()
	}
	chains = append(chains, g)
	for _, w := range writers {
		if chained[w] {
			continue
		}
		if _, hasPred := pred[w]; hasPred {
			continue // belongs to some chain's interior; visit via its head
		}
		c := &chain{members: []history.TxnID{w}}
		chained[w] = true
		if !follow(w, c) {
			return singletons()
		}
		chains = append(chains, c)
	}
	// Any writer still unchained has a pred forming a cycle or pointing
	// into a branch; fall back.
	for _, w := range writers {
		if !chained[w] {
			return singletons()
		}
	}
	return chains
}

// addSessionEdges adds commit→begin edges between consecutive committed
// transactions of each session (Strong Session SI, §5).
func (pg *Polygraph) addSessionEdges() {
	for _, txns := range pg.H.Sessions {
		var prev history.TxnID = -1
		for _, id := range txns {
			if !pg.H.Txns[id].Committed() {
				continue
			}
			if prev >= 0 {
				if e, cls := pg.classify(prev, true, id, false); cls == edgeNormal {
					pg.addKnown(e, EdgeSession, "")
				}
			}
			prev = id
		}
	}
}

func sortedTxns[V any](m map[history.TxnID]V) []history.TxnID {
	ids := make([]history.TxnID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// GraphStats breaks the known graph down by edge kind and sizes the
// constraint set, for diagnostics (cmd/viper -v) and tests.
type GraphStats struct {
	Nodes           int
	EdgesByKind     map[EdgeKind]int
	Constraints     int
	ConstraintEdges int
	Coalesced       int // constraints with a multi-edge side
}

// Stats summarizes the polygraph.
func (pg *Polygraph) Stats() GraphStats {
	st := GraphStats{
		Nodes:       int(pg.NumNodes),
		EdgesByKind: make(map[EdgeKind]int),
		Constraints: len(pg.Cons),
	}
	for kind, n := range pg.knownByKind {
		if n > 0 {
			st.EdgesByKind[EdgeKind(kind)] = n
		}
	}
	for _, c := range pg.Cons {
		st.ConstraintEdges += len(c.First) + len(c.Second)
		if len(c.First) > 1 || len(c.Second) > 1 {
			st.Coalesced++
		}
	}
	return st
}

// String implements fmt.Stringer with a one-line summary.
func (pg *Polygraph) String() string {
	st := pg.Stats()
	return fmt.Sprintf("BC-polygraph{level=%s nodes=%d known=%d constraints=%d (%d coalesced)}",
		pg.Level, st.Nodes, len(pg.Known), st.Constraints, st.Coalesced)
}

package acyclic

import "viper/internal/sat"

// EdgeTheory plugs incremental acyclicity into the SAT solver: each
// registered edge is bound to a boolean variable, and the theory forbids
// any assignment whose true edges contain a directed cycle. This is the
// acyclic(G) predicate of MonoSAT that the paper's encoding relies on
// (Figure 4 line 23).
type EdgeTheory struct {
	g        *Graph
	edgeOf   []Edge // dense, indexed by sat.Var; From == -1 marks non-edge vars
	varOf    map[Edge]sat.Var
	constSet map[Edge]bool // unconditionally present edges
	trail    []sat.Var     // vars whose edges are currently inserted
	// Conflicts counts theory conflicts (cycles found), for stats.
	Conflicts int64
}

// noEdge marks variables that carry no edge (e.g. constraint selectors).
var noEdge = Edge{From: -1, To: -1}

// NewEdgeTheory returns a theory over a graph with n nodes.
func NewEdgeTheory(n int) *EdgeTheory {
	return &EdgeTheory{
		g:        NewGraph(n),
		varOf:    make(map[Edge]sat.Var),
		constSet: make(map[Edge]bool),
	}
}

// lookupVar returns the edge bound to v, if any.
func (t *EdgeTheory) edgeForVar(v sat.Var) (Edge, bool) {
	if int(v) >= len(t.edgeOf) {
		return noEdge, false
	}
	e := t.edgeOf[v]
	return e, e.From >= 0
}

// InsertConstant inserts an edge that is unconditionally present (a known
// edge of the polygraph): it participates in cycle detection but needs no
// SAT variable, keeping the solver's search space to the genuinely unknown
// edges. It returns false if the constants alone already contain a cycle
// (the instance is trivially unsatisfiable).
func (t *EdgeTheory) InsertConstant(u, v int32) bool {
	e := Edge{u, v}
	if t.constSet[e] {
		return true
	}
	if t.g.AddEdge(u, v) != nil {
		return false
	}
	t.constSet[e] = true
	return true
}

// SeedOrder warm-starts the maintained topological order (see
// Graph.SetOrder); call before solving.
func (t *EdgeTheory) SeedOrder(pos []int32) { t.g.SetOrder(pos) }

// EdgeVar returns the boolean variable bound to edge u→v, allocating one
// from s if needed. All occurrences of the same directed edge share a
// variable, so the theory never sees duplicate insertions.
func (t *EdgeTheory) EdgeVar(s *sat.Solver, u, v int32) sat.Var {
	e := Edge{u, v}
	if w, ok := t.varOf[e]; ok {
		return w
	}
	w := s.NewVar()
	t.varOf[e] = w
	for int(w) >= len(t.edgeOf) {
		t.edgeOf = append(t.edgeOf, noEdge)
	}
	t.edgeOf[w] = e
	return w
}

// NumEdgeVars returns the number of distinct symbolic edges.
func (t *EdgeTheory) NumEdgeVars() int { return len(t.varOf) }

// Reorders reports the underlying graph's order-maintenance work (see
// Graph.Reorders).
func (t *EdgeTheory) Reorders() (count, movedNodes int64) { return t.g.Reorders() }

// Assign implements sat.Theory. A positive assignment of an edge variable
// inserts the edge; if that closes a cycle the conflict clause "some edge
// on the cycle must be false" is returned.
func (t *EdgeTheory) Assign(l sat.Lit) []sat.Lit {
	if l.Sign() {
		return nil // edge set to false: nothing to do
	}
	e, ok := t.edgeForVar(l.Var())
	if !ok {
		return nil // not an edge variable
	}
	cyclePath := t.g.AddEdge(e.From, e.To)
	if cyclePath == nil {
		t.trail = append(t.trail, l.Var())
		return nil
	}
	t.Conflicts++
	// cyclePath is v..u node path; the cycle's edges are the path edges
	// plus e itself. Variable-backed edges on the cycle are currently
	// true, and the clause demands at least one be false; constant edges
	// (no variable) are immutably present and contribute no literal.
	confl := make([]sat.Lit, 0, len(cyclePath))
	confl = append(confl, sat.NegLit(l.Var()))
	for i := 0; i+1 < len(cyclePath); i++ {
		e := Edge{cyclePath[i], cyclePath[i+1]}
		if t.constSet[e] {
			continue // a constant justifies this step regardless of any var
		}
		ev, ok := t.varOf[e]
		if !ok {
			// Every non-constant inserted edge came through EdgeVar.
			panic("acyclic: cycle through unregistered edge")
		}
		confl = append(confl, sat.NegLit(ev))
	}
	return confl
}

// Undo implements sat.Theory.
func (t *EdgeTheory) Undo(l sat.Lit) {
	if l.Sign() {
		return
	}
	if len(t.trail) > 0 && t.trail[len(t.trail)-1] == l.Var() {
		t.trail = t.trail[:len(t.trail)-1]
		t.g.RemoveLastEdge()
	}
}

// Check implements sat.Theory. Acyclicity is enforced eagerly in Assign,
// so the final check always passes.
func (t *EdgeTheory) Check() []sat.Lit { return nil }

// Order exposes the current topological index of a node, used by the model
// extraction to produce a witness schedule.
func (t *EdgeTheory) Order(n int32) int32 { return t.g.Order(n) }

// LazyEdgeTheory wraps EdgeTheory but only verifies acyclicity at full
// assignments (the "lazy SMT" style), as an ablation of eager theory
// propagation. Assign records edges without cycle checking; Check walks the
// selected subgraph and returns a cycle conflict if one exists.
type LazyEdgeTheory struct {
	inner     *EdgeTheory
	active    []sat.Var
	constants []Edge
}

// InsertConstant records an unconditionally present edge (cycle checking
// happens at Check time in the lazy theory). It always returns true.
func (t *LazyEdgeTheory) InsertConstant(u, v int32) bool {
	e := Edge{u, v}
	if !t.inner.constSet[e] {
		t.inner.constSet[e] = true
		t.constants = append(t.constants, e)
	}
	return true
}

// NewLazyEdgeTheory returns a lazy acyclicity theory over n nodes.
func NewLazyEdgeTheory(n int) *LazyEdgeTheory {
	return &LazyEdgeTheory{inner: NewEdgeTheory(n)}
}

// EdgeVar allocates/returns the edge variable (see EdgeTheory.EdgeVar).
func (t *LazyEdgeTheory) EdgeVar(s *sat.Solver, u, v int32) sat.Var {
	return t.inner.EdgeVar(s, u, v)
}

// Assign implements sat.Theory; it only records the edge.
func (t *LazyEdgeTheory) Assign(l sat.Lit) []sat.Lit {
	if l.Sign() {
		return nil
	}
	if _, ok := t.inner.edgeForVar(l.Var()); ok {
		t.active = append(t.active, l.Var())
	}
	return nil
}

// Undo implements sat.Theory.
func (t *LazyEdgeTheory) Undo(l sat.Lit) {
	if l.Sign() {
		return
	}
	if n := len(t.active); n > 0 && t.active[n-1] == l.Var() {
		t.active = t.active[:n-1]
	}
}

// ActiveEdges returns the currently selected (true) edges plus the
// constant edges, for witness extraction after a satisfying assignment.
func (t *LazyEdgeTheory) ActiveEdges() []Edge {
	out := make([]Edge, 0, len(t.active)+len(t.constants))
	out = append(out, t.constants...)
	for _, v := range t.active {
		out = append(out, t.inner.edgeOf[v])
	}
	return out
}

// NumNodes returns the underlying graph's node count.
func (t *LazyEdgeTheory) NumNodes() int { return t.inner.g.NumNodes() }

// Check implements sat.Theory: it searches the full selected edge set for
// a cycle.
func (t *LazyEdgeTheory) Check() []sat.Lit {
	n := t.inner.g.NumNodes()
	out := make([][]int32, n)
	for _, e := range t.constants {
		out[e.From] = append(out[e.From], e.To)
	}
	for _, v := range t.active {
		e := t.inner.edgeOf[v]
		out[e.From] = append(out[e.From], e.To)
	}
	cycle := FindCycle(n, out)
	if cycle == nil {
		return nil
	}
	t.inner.Conflicts++
	// Constant edges contribute no literal; a constants-only cycle yields
	// the empty clause, i.e. immediate unsatisfiability.
	confl := make([]sat.Lit, 0, len(cycle))
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		e := Edge{from, to}
		if t.inner.constSet[e] {
			continue
		}
		ev, ok := t.inner.varOf[e]
		if !ok {
			panic("acyclic: cycle through unregistered edge")
		}
		confl = append(confl, sat.NegLit(ev))
	}
	return confl
}

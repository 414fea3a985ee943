// Package spanner generalizes the paper's single-pivot extraction
// expression E1⟨p⟩E2 to k pivots
//
//	E0⟨p1⟩E1⟨p2⟩E2 … ⟨pk⟩Ek
//
// compiled into one multi-split automaton pass: a restricted document
// spanner (Fagin et al., "Document Spanners") that enumerates every
// extraction vector of a word, not just the unique one. A compiled Program
// answers "all vectors, in lexicographic order, with O(k) delay between
// consecutive tuples after a single O(n·states) pass" — the record workload
// of production wrappers (many repeated (name, price, …) rows per page) —
// and, through Unique, "the vector, if unambiguous".
//
// The construction is a layered product DAG. A node (i, j, q) means: the
// first i symbols are consumed, pivots p1…pj are already placed, and the
// minimal DFA D_j of segment E_j sits in state q on the gap read since
// pivot j. Two edge kinds leave a node, both consuming word[i]:
//
//	advance: (i, j, q) → (i+1, j, D_j(q, word[i]))       gap grows
//	split:   (i, j, q) → (i+1, j+1, start(D_{j+1}))      word[i] is pivot j+1
//	         (enabled iff D_j accepts q and word[i] = p_{j+1})
//
// Both successors are unique, so the DAG is a binary-decision diagram over
// "is position i the next pivot": source-to-sink paths and extraction
// vectors are in bijection, with the vector read off a path's split
// positions. A backward co-accessibility pass keeps only useful nodes, and
// a jump pointer per useful node (the first split-useful node on its
// advance chain) makes enumeration constant-delay in the sense of
// Florenzano et al. ("Constant Delay Algorithms for Regular Document
// Spanners"): O(k) pointer hops per emitted tuple, independent of the
// document length. THEORY.md ("k-ary spanner extraction in one pass")
// carries the invariant argument and the per-pivot unambiguity lift.
package spanner

import (
	"context"
	"fmt"
	"math"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// Program is a compiled k-pivot spanner: the k+1 minimal segment DFAs of an
// extract.Tuple plus the pivot symbols, ready to run over documents. A
// Program is immutable and safe for concurrent Run calls.
type Program struct {
	marks []symtab.Symbol
	dfas  []*machine.DFA // k+1 segment automata, all complete over sigma
	sigma symtab.Alphabet
	opt   machine.Options

	layerOff   []int // layerOff[j] = Σ_{j'<j} |D_{j'}| — dense local state ids
	stateCount int   // layerOff[k] + |D_k|
	layerOf    []int // local state id → layer index
}

// Compile builds the multi-split program from a tuple expression. The
// segment DFAs are already minimal and complete over the tuple's alphabet
// (extract.NewTuple promotes them), so compilation is a linear repack — the
// budget/deadline work happened when the tuple was built.
func Compile(t *extract.Tuple, opt machine.Options) (*Program, error) {
	if t == nil {
		return nil, fmt.Errorf("spanner: nil tuple")
	}
	k := t.Arity()
	p := &Program{
		marks: t.Marks(),
		sigma: t.Sigma(),
		opt:   opt,
	}
	p.layerOff = make([]int, k+1)
	for j := 0; j <= k; j++ {
		d := t.Segment(j).DFA()
		p.layerOff[j] = p.stateCount
		p.dfas = append(p.dfas, d)
		p.stateCount += d.NumStates()
	}
	p.layerOf = make([]int, p.stateCount)
	for j := 0; j <= k; j++ {
		end := p.stateCount
		if j < k {
			end = p.layerOff[j+1]
		}
		for s := p.layerOff[j]; s < end; s++ {
			p.layerOf[s] = j
		}
	}
	if opt.Ctx != nil {
		obs.FromContext(opt.Ctx).Counter("spanner_compile_total").Inc()
	}
	return p, nil
}

// Arity returns the number of pivots k.
func (p *Program) Arity() int { return len(p.marks) }

// Marks returns the pivot symbols in order.
func (p *Program) Marks() []symtab.Symbol { return append([]symtab.Symbol(nil), p.marks...) }

// Sigma returns the program's alphabet.
func (p *Program) Sigma() symtab.Alphabet { return p.sigma }

// budgetLimit mirrors machine.Options' MaxStates semantics (0 → default,
// negative → unlimited) for the DAG node budget.
func budgetLimit(opt machine.Options) int {
	switch {
	case opt.MaxStates == 0:
		return machine.DefaultMaxStates
	case opt.MaxStates < 0:
		return int(^uint(0) >> 1)
	default:
		return opt.MaxStates
	}
}

// Matches is the result of one Run: the pruned useful-node DAG plus an
// enumeration cursor. Tuples come out in lexicographic vector order with
// O(k) work per call. A Matches is single-use and not safe for concurrent
// access; rerun the program for a fresh cursor.
type Matches struct {
	p    *Program
	word []symtab.Symbol

	useful []bool
	jump   []int32 // node id of first split-useful node on the advance chain, -1 none
	nodes  int     // reached nodes, for introspection

	stack   []int32 // one split node per placed pivot
	started bool
	done    bool
}

// Run executes the one forward pass plus the backward prune over word and
// returns an enumeration cursor. The node budget is opt.MaxStates with the
// usual machine.Options semantics (a node here is one reached (position,
// layer, state) triple); exceeding it returns an error wrapping
// machine.ErrBudget, and an expired Options context returns one wrapping
// machine.ErrDeadline.
func (p *Program) Run(word []symtab.Symbol) (*Matches, error) {
	return p.run(word)
}

// RunContext is Run with the compile-time options additionally bound by ctx
// — the request-path entry point, where the program was compiled without a
// deadline but each request carries one. The returned cursor's Next also
// honors ctx.
func (p *Program) RunContext(ctx context.Context, word []symtab.Symbol) (*Matches, error) {
	if ctx == nil {
		return p.run(word)
	}
	q := *p
	q.opt = q.opt.WithContext(ctx)
	return q.run(word)
}

// Unique is the single-record entry point: the first extraction vector of
// word, ok=false when there is none, and an error wrapping
// extract.ErrAmbiguous when a second one exists. Two distinct vectors exist
// exactly when some pivot has two participating positions, so this is the
// strict "the vector, if unambiguous" answer of a tuple wrapper. Run's
// budget and deadline errors pass through, with ctx bound as in RunContext.
func (p *Program) Unique(ctx context.Context, word []symtab.Symbol) (vector []int, ok bool, err error) {
	m, err := p.RunContext(ctx, word)
	if err != nil {
		return nil, false, err
	}
	first, ok, err := m.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	second, more, err := m.Next()
	if err != nil {
		return nil, false, err
	}
	if more {
		return nil, false, fmt.Errorf("%w: tuple fits this word as %v and as %v", extract.ErrAmbiguous, first, second)
	}
	return first, true, nil
}

func (p *Program) run(word []symtab.Symbol) (*Matches, error) {
	k := len(p.marks)
	n := len(word)
	sc := p.stateCount
	cells := (n + 1) * sc
	if n > (math.MaxInt32-sc)/sc {
		return nil, fmt.Errorf("spanner: %d positions × %d states overflows the node space: %w",
			n, sc, machine.ErrBudget)
	}
	limit := budgetLimit(p.opt)

	ctx := p.opt.Ctx
	var phase *obs.Phase
	if ctx != nil {
		_, phase = obs.StartPhase(ctx, "spanner.run")
		defer func() { phase.End() }()
	}

	reached := make([]bool, cells)
	rows := make([][]int32, n+1)
	m := &Matches{p: p, word: word}
	nodes := 0
	push := func(i int, local int32) error {
		id := int32(i*sc) + local
		if reached[id] {
			return nil
		}
		reached[id] = true
		nodes++
		if nodes > limit {
			return fmt.Errorf("spanner: DAG exceeds %d nodes: %w", limit, machine.ErrBudget)
		}
		rows[i] = append(rows[i], local)
		return nil
	}
	if err := push(0, int32(p.dfas[0].Start)); err != nil {
		return nil, err
	}
	// Forward: seed layer 0 and expand both edge kinds position by position.
	for i := 0; i < n; i++ {
		if err := p.opt.Err(); err != nil {
			if phase != nil {
				phase.Fail(err)
			}
			return nil, fmt.Errorf("spanner: forward pass at position %d: %w", i, err)
		}
		sym := word[i]
		for _, local := range rows[i] {
			j := p.layerOf[local]
			q := int(local) - p.layerOff[j]
			d := p.dfas[j]
			if nq := d.Step(q, sym); nq >= 0 {
				if err := push(i+1, int32(p.layerOff[j]+nq)); err != nil {
					return nil, err
				}
			}
			if j < k && d.Accept[q] && sym == p.marks[j] {
				if err := push(i+1, int32(p.layerOff[j+1]+p.dfas[j+1].Start)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Backward: usefulness (co-accessibility from an accepting sink) and the
	// jump pointer, both computable in one sweep because advance and split
	// edges strictly increase the position.
	useful := make([]bool, cells)
	jump := make([]int32, cells)
	for i := n; i >= 0; i-- {
		for _, local := range rows[i] {
			id := int32(i*sc) + local
			j := p.layerOf[local]
			q := int(local) - p.layerOff[j]
			d := p.dfas[j]
			advID := int32(-1)
			splitUseful := false
			if i < n {
				if nq := d.Step(q, word[i]); nq >= 0 {
					if a := int32((i+1)*sc + p.layerOff[j] + nq); useful[a] {
						advID = a
					}
				}
				if j < k && d.Accept[q] && word[i] == p.marks[j] {
					t := int32((i+1)*sc + p.layerOff[j+1] + p.dfas[j+1].Start)
					splitUseful = useful[t]
				}
			}
			switch {
			case i == n && j == k && d.Accept[q]:
				useful[id] = true
			case advID >= 0 || splitUseful:
				useful[id] = true
			}
			switch {
			case splitUseful:
				jump[id] = id
			case advID >= 0:
				jump[id] = jump[advID]
			default:
				jump[id] = -1
			}
		}
	}
	m.useful = useful
	m.jump = jump
	m.nodes = nodes
	if phase != nil {
		phase.Attr("nodes", int64(nodes))
		phase.Attr("positions", int64(n))
	}
	if ctx != nil {
		obs.FromContext(ctx).Counter("spanner_run_nodes_total").Add(int64(nodes))
	}
	return m, nil
}

// Nodes reports how many (position, layer, state) triples the forward pass
// materialized — the quantity the MaxStates budget bounds.
func (m *Matches) Nodes() int { return m.nodes }

func (m *Matches) splitTarget(id int32) int32 {
	sc := m.p.stateCount
	i := int(id) / sc
	j := m.p.layerOf[int(id)%sc]
	return int32((i+1)*sc + m.p.layerOff[j+1] + m.p.dfas[j+1].Start)
}

// advTarget returns the advance successor of a useful node, or -1 when the
// chain ends (end of word or a dead DFA step).
func (m *Matches) advTarget(id int32) int32 {
	sc := m.p.stateCount
	i := int(id) / sc
	if i >= len(m.word) {
		return -1
	}
	local := int(id) % sc
	j := m.p.layerOf[local]
	q := local - m.p.layerOff[j]
	nq := m.p.dfas[j].Step(q, m.word[i])
	if nq < 0 {
		return -1
	}
	return int32((i+1)*sc + m.p.layerOff[j] + nq)
}

// descend extends the stack from layer len(stack) to layer k by repeatedly
// jumping to the next split-useful node and taking its split edge — the
// lexicographically least completion of the current prefix. u is the useful
// node enumeration stands on at layer len(stack).
func (m *Matches) descend(u int32) {
	k := len(m.p.marks)
	for j := len(m.stack); j < k; j++ {
		u = m.jump[u] // total on useful nodes below layer k: an accepting path needs ≥1 more split
		m.stack = append(m.stack, u)
		u = m.splitTarget(u)
	}
}

func (m *Matches) vector() []int {
	out := make([]int, len(m.stack))
	for j, id := range m.stack {
		out[j] = int(id) / m.p.stateCount
	}
	return out
}

// Next returns the next extraction vector in lexicographic order, or
// ok=false when the enumeration is exhausted. Each call does O(k) pointer
// hops — the constant-delay contract — and polls the Options deadline.
func (m *Matches) Next() (vector []int, ok bool, err error) {
	if m.done {
		return nil, false, nil
	}
	if err := m.p.opt.Err(); err != nil {
		return nil, false, fmt.Errorf("spanner: enumeration: %w", err)
	}
	if !m.started {
		m.started = true
		start := int32(m.p.dfas[0].Start) // node (0, 0, start) has id = local id
		if int(start) >= len(m.useful) || !m.useful[start] {
			m.done = true
			return nil, false, nil
		}
		m.descend(start)
		return m.vector(), true, nil
	}
	// Successor: pop split choices deepest-first until one has a later
	// alternative (a split-useful node further along its advance chain),
	// then complete minimally again.
	for len(m.stack) > 0 {
		u := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		v := m.advTarget(u)
		if v < 0 || !m.useful[v] {
			continue
		}
		if w := m.jump[v]; w >= 0 {
			m.stack = append(m.stack, w)
			m.descend(m.splitTarget(w))
			return m.vector(), true, nil
		}
	}
	m.done = true
	return nil, false, nil
}

// All drains the cursor, returning every extraction vector in lexicographic
// order. Convenience for tests and batch callers; streaming callers should
// prefer Next.
func (m *Matches) All() ([][]int, error) {
	var out [][]int
	for {
		v, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}

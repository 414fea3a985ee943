package extract

import (
	"fmt"

	"resilex/internal/lang"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// Tuple is a multi-slot extraction expression
//
//	E0⟨p1⟩E1⟨p2⟩E2 … ⟨pk⟩Ek
//
// extracting k positions i1 < i2 < … < ik from a word w with w[ij] = pj and
// every gap w(i_{j-1}, i_j) in L(E_{j-1}). This generalizes the paper's
// single-mark model to the tuples real wrappers extract (the paper's §2
// notes competing systems are tuple-oriented); the single-mark theory lifts:
// unambiguity is decidable in polynomial time by a squared-automaton
// construction, and segment-wise maximization preserves unambiguity by
// iterated composition (Proposition 6.6).
type Tuple struct {
	segs  []lang.Language
	marks []symtab.Symbol
	sigma symtab.Alphabet
	opt   machine.Options

	segASTs []*rx.Node // optional syntax, parallel to segs (nil entries allowed)
}

// NewTuple builds a tuple expression; len(segments) must equal len(marks)+1.
func NewTuple(segments []lang.Language, marks []symtab.Symbol) (*Tuple, error) {
	if len(segments) != len(marks)+1 {
		return nil, fmt.Errorf("extract: tuple needs len(segments) = len(marks)+1, got %d and %d",
			len(segments), len(marks))
	}
	if len(marks) == 0 {
		return nil, fmt.Errorf("extract: tuple needs at least one mark")
	}
	sigma := symtab.NewAlphabet(marks...)
	for _, s := range segments {
		sigma = sigma.Union(s.Sigma())
	}
	t := &Tuple{marks: marks, sigma: sigma, opt: segments[0].Options()}
	for _, s := range segments {
		t.segs = append(t.segs, promote(s, sigma))
	}
	return t, nil
}

// NewTupleFromASTs builds a tuple from segment syntax trees, retaining the
// ASTs so that MaximizeTuple can use the pivot framework on segments.
func NewTupleFromASTs(segments []*rx.Node, marks []symtab.Symbol, sigma symtab.Alphabet, opt machine.Options) (*Tuple, error) {
	if len(segments) != len(marks)+1 {
		return nil, fmt.Errorf("extract: tuple needs len(segments) = len(marks)+1, got %d and %d",
			len(segments), len(marks))
	}
	full := sigma.Union(symtab.NewAlphabet(marks...))
	for _, s := range segments {
		full = full.Union(s.Symbols())
	}
	segs := make([]lang.Language, len(segments))
	var err error
	for i, ast := range segments {
		segs[i], err = lang.FromRegex(ast, full, opt)
		if err != nil {
			return nil, fmt.Errorf("extract: tuple segment %d: %w", i, err)
		}
	}
	t, err := NewTuple(segs, marks)
	if err != nil {
		return nil, err
	}
	t.opt = opt
	t.segASTs = segments
	return t, nil
}

// ParseTuple parses the concrete syntax "E0 <p1> E1 <p2> E2 …".
func ParseTuple(src string, tab *symtab.Table, sigma symtab.Alphabet, opt machine.Options) (*Tuple, error) {
	m, err := rx.ParseMultiMarked(src, tab, sigma)
	if err != nil {
		return nil, err
	}
	segs := make([]lang.Language, len(m.Segments))
	for i, ast := range m.Segments {
		segs[i], err = lang.FromRegex(ast, m.Sigma, opt)
		if err != nil {
			return nil, fmt.Errorf("extract: tuple segment %d: %w", i, err)
		}
	}
	t, err := NewTuple(segs, m.Marks)
	if err != nil {
		return nil, err
	}
	t.opt = opt
	t.segASTs = m.Segments
	return t, nil
}

// Arity returns the number of marks k.
func (t *Tuple) Arity() int { return len(t.marks) }

// Marks returns the marked symbols in order.
func (t *Tuple) Marks() []symtab.Symbol { return append([]symtab.Symbol(nil), t.marks...) }

// Segment returns the j-th segment language (0 ≤ j ≤ Arity()).
func (t *Tuple) Segment(j int) lang.Language { return t.segs[j] }

// Sigma returns the alphabet.
func (t *Tuple) Sigma() symtab.Alphabet { return t.sigma }

// Options returns the state-budget options the tuple carries.
func (t *Tuple) Options() machine.Options { return t.opt }

// String renders the tuple in concrete syntax.
func (t *Tuple) String(tab *symtab.Table) string {
	out := ""
	for j := range t.segs {
		ast := t.segAST(j)
		txt := rx.PrintSigma(ast, tab, t.sigma)
		if txt != "#eps" {
			if out != "" {
				out += " "
			}
			out += txt
		}
		if j < len(t.marks) {
			if out != "" {
				out += " "
			}
			out += "<" + rx.QuoteName(tab.Name(t.marks[j])) + ">"
		}
	}
	return out
}

func (t *Tuple) segAST(j int) *rx.Node {
	if t.segASTs != nil && t.segASTs[j] != nil {
		return t.segASTs[j]
	}
	return rx.Simplify(t.segs[j].Regex())
}

// chain builds the concatenated NFA E0·p1·E1·…·pk·Ek with each mark edge
// recorded: markOf[(from,to)] = j+1 (0 = not a mark edge). States of the
// returned NFA are segment-local structures glued by the mark transitions.
type chainNFA struct {
	nfa *machine.NFA
	// markEdge[from] = list of (to, markIndex) mark transitions.
	markEdge map[int][]markHop
}

type markHop struct {
	to   int
	mark int // 1-based mark index
}

func (t *Tuple) chain() (*chainNFA, error) {
	out := &machine.NFA{Sigma: t.sigma}
	marks := map[int][]markHop{}
	addStates := func(n *machine.NFA) int {
		base := len(out.Accept)
		for s := 0; s < n.NumStates(); s++ {
			out.Accept = append(out.Accept, false)
			out.Eps = append(out.Eps, nil)
			out.Edges = append(out.Edges, nil)
		}
		for s := 0; s < n.NumStates(); s++ {
			for _, e := range n.Eps[s] {
				out.Eps[base+s] = append(out.Eps[base+s], base+e)
			}
			for _, e := range n.Edges[s] {
				out.Edges[base+s] = append(out.Edges[base+s], machine.Edge{On: e.On, To: base + e.To})
			}
		}
		return base
	}
	var prevAccepts []int
	for j, seg := range t.segs {
		n := machine.FromDFA(seg.DFA())
		base := addStates(n)
		if j == 0 {
			for _, s := range n.Start {
				out.Start = append(out.Start, base+s)
			}
		} else {
			// Glue: previous segment accepts --p_j--> this segment's starts.
			on := symtab.NewAlphabet(t.marks[j-1])
			for _, from := range prevAccepts {
				for _, s := range n.Start {
					out.Edges[from] = append(out.Edges[from], machine.Edge{On: on, To: base + s})
					marks[from] = append(marks[from], markHop{to: base + s, mark: j})
				}
			}
		}
		prevAccepts = prevAccepts[:0]
		for s := 0; s < n.NumStates(); s++ {
			if n.Accept[s] {
				prevAccepts = append(prevAccepts, base+s)
			}
		}
	}
	for _, s := range prevAccepts {
		out.Accept[s] = true
	}
	return &chainNFA{nfa: out, markEdge: marks}, nil
}

// Unambiguous decides whether every word admits at most one extraction
// vector, via the squared chain automaton: a reachable accepting state pair
// whose paths crossed differently-labeled mark edges at some shared input
// position witnesses two distinct vectors. Polynomial in the chain size —
// the tuple analogue of Theorem 5.6.
func (t *Tuple) Unambiguous() (bool, error) {
	c, err := t.chain()
	if err != nil {
		return false, err
	}
	n := c.nfa
	markOf := func(from, to int, sym symtab.Symbol) int {
		for _, h := range c.markEdge[from] {
			if h.to == to && sym == t.marks[h.mark-1] {
				return h.mark
			}
		}
		return 0
	}
	type pair struct {
		x, y     int
		diverged bool
	}
	seen := map[pair]bool{}
	var queue []pair
	push := func(p pair) {
		// (x,y) and (y,x) are symmetric; canonicalize to halve the space.
		if p.x > p.y {
			p.x, p.y = p.y, p.x
		}
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for _, a := range n.Start {
		for _, b := range n.Start {
			push(pair{a, b, false})
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		p := queue[qi]
		if p.diverged && n.Accept[p.x] && n.Accept[p.y] {
			return false, nil
		}
		for _, e := range n.Eps[p.x] {
			push(pair{e, p.y, p.diverged})
		}
		for _, e := range n.Eps[p.y] {
			push(pair{p.x, e, p.diverged})
		}
		for _, ex := range n.Edges[p.x] {
			for _, ey := range n.Edges[p.y] {
				common := ex.On.Intersect(ey.On)
				for _, sym := range common.Symbols() {
					mx := markOf(p.x, ex.To, sym)
					my := markOf(p.y, ey.To, sym)
					push(pair{ex.To, ey.To, p.diverged || mx != my})
				}
			}
		}
	}
	return true, nil
}

// MaximizeTuple maximizes each segment against its following mark with
// Algorithm 6.2 (the last segment is widened to Σ*) and recomposes. The
// result is unambiguous (iterated Proposition 6.6), generalizes the input
// segment-wise, and every single-mark projection (prefix up to mark j,
// Σ* after) is maximal by iterated Proposition 6.7. Full tuple-maximality
// theory is beyond the paper; this is the conservative lift.
func MaximizeTuple(t *Tuple) (*Tuple, error) {
	if unamb, err := t.Unambiguous(); err != nil {
		return nil, err
	} else if !unamb {
		return nil, ErrAmbiguous
	}
	univ := lang.Universal(t.sigma, t.opt)
	outSegs := make([]lang.Language, len(t.segs))
	for j, seg := range t.segs {
		if j == len(t.segs)-1 {
			// Trailing context widens to Σ* (requires the usual gap condition
			// relative to the *previous* mark, ensured by tuple unambiguity).
			outSegs[j] = univ
			continue
		}
		var x Expr
		if ast := t.segASTs; ast != nil && ast[j] != nil {
			// Syntax available: the pivot framework can handle segments with
			// unboundedly many marks.
			var err error
			x, err = FromAST(ast[j], t.marks[j], rx.Star(rx.Class(t.sigma)), t.sigma, t.opt)
			if err != nil {
				return nil, fmt.Errorf("extract: tuple segment %d: %w", j, err)
			}
		} else {
			x = New(seg, t.marks[j], univ)
			x.opt = t.opt
		}
		maxed, err := Pivot(x)
		if err != nil {
			maxed, err = LeftFilter(x)
		}
		if err != nil {
			return nil, fmt.Errorf("extract: tuple segment %d: %w", j, err)
		}
		outSegs[j] = maxed.Left()
	}
	out, err := NewTuple(outSegs, t.marks)
	if err != nil {
		return nil, err
	}
	out.opt = t.opt
	// Invariant check: each seg'_j⟨mark_j⟩Σ* is unambiguous (LeftFilter
	// guarantees it), and segment unambiguity implies tuple unambiguity by
	// the inductive argument of Proposition 6.8 — a failure here would be a
	// bug, not a property of the input.
	unamb, err := out.Unambiguous()
	if err != nil {
		return nil, err
	}
	if !unamb {
		return nil, fmt.Errorf("extract: internal: segment-wise maximization broke tuple unambiguity")
	}
	return out, nil
}

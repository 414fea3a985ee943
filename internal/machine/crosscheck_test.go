package machine

import (
	"math/rand"
	"testing"

	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// genExtended draws random expressions including the extended operators, to
// exercise the derivative engine and the product constructions together.
func genExtended(rng *rand.Rand, syms []symtab.Symbol, depth int) *rx.Node {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return rx.Epsilon()
		case 1:
			return rx.Empty()
		default:
			return rx.Sym(syms[rng.Intn(len(syms))])
		}
	}
	switch rng.Intn(12) {
	case 0, 1, 2:
		return rx.Concat(genExtended(rng, syms, depth-1), genExtended(rng, syms, depth-1))
	case 3, 4:
		return rx.Union(genExtended(rng, syms, depth-1), genExtended(rng, syms, depth-1))
	case 5:
		return rx.Star(genExtended(rng, syms, depth-1))
	case 6:
		return rx.Plus(genExtended(rng, syms, depth-1))
	case 7:
		return rx.Opt(genExtended(rng, syms, depth-1))
	case 8:
		return rx.Intersect(genExtended(rng, syms, depth-1), genExtended(rng, syms, depth-1))
	case 9:
		return rx.Diff(genExtended(rng, syms, depth-1), genExtended(rng, syms, depth-1))
	case 10:
		return rx.Complement(genExtended(rng, syms, depth-1))
	default:
		return rx.Sym(syms[rng.Intn(len(syms))])
	}
}

// TestThreeEngineAgreement pits the three independent semantics — Brzozowski
// derivatives (pure syntax), NFA subset simulation (Thompson + products),
// and the minimal DFA — against each other on random extended expressions
// over all short words. Any divergence is a real bug in one of them.
func TestThreeEngineAgreement(t *testing.T) {
	e := env3()
	two := symtab.NewAlphabet(e.p, e.q)
	words := allWords(two, 5)
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 150; i++ {
		n := genExtended(rng, []symtab.Symbol{e.p, e.q}, 3)
		nfa, err := Compile(n, two, Options{MaxStates: 1 << 14})
		if err != nil {
			continue // budget blowups are acceptable for adversarial nests
		}
		d, err := Determinize(nfa, Options{MaxStates: 1 << 14})
		if err != nil {
			continue
		}
		m := Minimize(d)
		for _, w := range words {
			byDeriv := rx.Matches(n, w, two)
			byNFA := nfa.Accepts(w)
			byDFA := m.Accepts(w)
			if byDeriv != byNFA || byNFA != byDFA {
				t.Fatalf("engines disagree on %s over %q: deriv=%v nfa=%v dfa=%v",
					rx.Print(n, e.tab), e.tab.String(w), byDeriv, byNFA, byDFA)
			}
		}
	}
}

// The derivative engine also validates Simplify on extended expressions,
// where the automata path is the only other semantics.
func TestSimplifyAgainstDerivatives(t *testing.T) {
	e := env3()
	two := symtab.NewAlphabet(e.p, e.q)
	words := allWords(two, 5)
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < 200; i++ {
		n := genExtended(rng, []symtab.Symbol{e.p, e.q}, 3)
		s := rx.Simplify(n)
		for _, w := range words {
			if rx.Matches(n, w, two) != rx.Matches(s, w, two) {
				t.Fatalf("Simplify changed %s on %q", rx.Print(n, e.tab), e.tab.String(w))
			}
		}
	}
}

// The derivative-built DFA must minimize to the same canonical automaton as
// the subset-construction path, on plain and extended expressions alike.
func TestDerivativeDFAAgrees(t *testing.T) {
	e := env3()
	exprs := []string{
		"p", "p*", "#eps", "#empty", ".*", "p | q r", "(p q)* r?",
		"(p | q)* p (p | q)", "[^ p]* p .*",
		"(p | q)* & (q | r)*", ".* - p*", "!(p* q)", "(p - q) r*",
	}
	for _, src := range exprs {
		n := e.parse(t, src)
		viaDeriv, err := DeterminizeDerivatives(n, e.sigma, Options{})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		nfa, err := Compile(n, e.sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		viaSubset, err := Determinize(nfa, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !StructurallyEqual(Minimize(viaDeriv), Minimize(viaSubset)) {
			t.Errorf("%q: derivative and subset DFAs minimize differently", src)
		}
	}
}

func TestDerivativeDFARandom(t *testing.T) {
	e := env3()
	rng := rand.New(rand.NewSource(606))
	for i := 0; i < 120; i++ {
		n := genExtended(rng, []symtab.Symbol{e.p, e.q}, 3)
		viaDeriv, err := DeterminizeDerivatives(n, e.sigma, Options{MaxStates: 1 << 12})
		if err != nil {
			continue // budget; acceptable for adversarial nests
		}
		nfa, err := Compile(n, e.sigma, Options{MaxStates: 1 << 12})
		if err != nil {
			continue
		}
		viaSubset, err := Determinize(nfa, Options{MaxStates: 1 << 12})
		if err != nil {
			continue
		}
		if !StructurallyEqual(Minimize(viaDeriv), Minimize(viaSubset)) {
			t.Fatalf("divergence on %s", rx.Print(n, e.tab))
		}
	}
}

func TestDerivativeDFABudgetAndForeign(t *testing.T) {
	e := env3()
	out := rx.Sym(e.tab.Intern("zzz"))
	if _, err := DeterminizeDerivatives(out, e.sigma, Options{}); err == nil {
		t.Error("foreign symbol accepted")
	}
	src := "(p | q)* p"
	for i := 0; i < 10; i++ {
		src += " (p | q)"
	}
	n := e.parse(t, src)
	if _, err := DeterminizeDerivatives(n, symtab.NewAlphabet(e.p, e.q), Options{MaxStates: 16}); err == nil {
		t.Error("budget not enforced")
	}
}

// lazyEquivCases cover every operator the compiler emits, including the
// extended ones, over Σ = {p, q, r}.
var lazyEquivCases = []string{
	"#empty",
	"#eps",
	"p",
	"p q r",
	"p | q",
	"(p | q)* p",
	"[^ p]* p [^ p]*",
	"(p q)+ r?",
	"(p | q)* p (p | q) (p | q)", // PSPACE witness shape, n=2
	"(p q | q p)* r",
	"(p | q)* - (q p*)",
	"(p | q)* & (q | p q)*",
	"!(p q)*",
}

// TestLazyEagerEquivalence checks that on-the-fly subset simulation of the
// NFA (NFA.Accepts, which never builds a DFA) accepts exactly the words the
// eager Determinize+Minimize pipeline accepts, over every word up to length
// 5 plus a random batch of longer ones.
func TestLazyEagerEquivalence(t *testing.T) {
	for _, src := range lazyEquivCases {
		src := src
		t.Run(src, func(t *testing.T) {
			e := env3()
			ast, err := rx.Parse(src, e.tab, e.sigma)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			nfa, err := Compile(ast, e.sigma, Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			d, err := Determinize(nfa, Options{})
			if err != nil {
				t.Fatalf("determinize: %v", err)
			}
			eager := Minimize(d)
			syms := e.sigma.Symbols()
			words := allWords(e.sigma, 5)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				w := make([]symtab.Symbol, 6+rng.Intn(20))
				for j := range w {
					w[j] = syms[rng.Intn(len(syms))]
				}
				words = append(words, w)
			}
			for _, w := range words {
				if lazy, want := nfa.Accepts(w), eager.Accepts(w); lazy != want {
					t.Fatalf("lazy=%v eager=%v on %q", lazy, want, e.tab.String(w))
				}
			}
		})
	}
}

package extract_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
)

// Tuple extraction runs on the one-pass spanner; these tests pin its
// answers for extract.Tuple expressions to the naive k-nested oracle.

func compileTuple(t *testing.T, tp *extract.Tuple) *spanner.Program {
	t.Helper()
	prog, err := spanner.Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func spannerVectors(t *testing.T, prog *spanner.Program, w []symtab.Symbol) [][]int {
	t.Helper()
	m, err := prog.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTuplePositionsAgainstOracle(t *testing.T) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
	tuples := []string{
		"q* <p> q* <r> .*",
		"<p> .* <r>",
		"q <p> [^ p]* <p> q*",
		"(q | q q) <p> <r> .*",
		".* <p> .* <r> .*",
	}
	words := extract.AllWords(sigma, 5)
	for _, src := range tuples {
		tp, err := extract.ParseTuple(src, tab, sigma, machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog := compileTuple(t, tp)
		for _, w := range words {
			got, want := spannerVectors(t, prog, w), spanner.NaiveTuples(tp, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q on %q: spanner %v, oracle %v", src, tab.String(w), got, want)
			}
		}
	}
}

// Property: the spanner's vectors equal the oracle's on random tuples.
func TestQuickTuplePositions(t *testing.T) {
	tab := symtab.NewTable()
	p, q := tab.Intern("p"), tab.Intern("q")
	sigma := symtab.NewAlphabet(p, q)
	words := extract.AllWords(sigma, 5)
	prop := func(v extract.RandomTuple) bool {
		tp, err := extract.NewTupleFromASTs(v.Segments(), []symtab.Symbol{p, q}, sigma, machine.Options{MaxStates: 4096})
		if err != nil {
			return true // budget exhaustion is acceptable, not a bug
		}
		prog := compileTuple(t, tp)
		for _, w := range words {
			if got, want := spannerVectors(t, prog, w), spanner.NaiveTuples(tp, w); !reflect.DeepEqual(got, want) {
				t.Logf("on %q: spanner %v, oracle %v (tuple %s)", tab.String(w), got, want, tp.String(tab))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTupleExtract pins the three single-record outcomes of a tuple on the
// spanner's Unique: the one vector, no parse, and an ambiguity error.
func TestTupleExtract(t *testing.T) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
	word := func(s string) []symtab.Symbol { return tab.InternAll(strings.Fields(s)...) }
	parse := func(src string) *extract.Tuple {
		tp, err := extract.ParseTuple(src, tab, sigma, machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	ctx := context.Background()
	prog := compileTuple(t, parse("[^ p]* <p> [^ r]* <r> .*"))
	v, ok, err := prog.Unique(ctx, word("q q p q r r"))
	if err != nil || !ok {
		t.Fatalf("Unique: %v %v", ok, err)
	}
	if !reflect.DeepEqual(v, []int{2, 4}) {
		t.Errorf("vector = %v, want [2 4]", v)
	}
	// Non-parsing word.
	if _, ok, err := prog.Unique(ctx, word("q q")); ok || err != nil {
		t.Errorf("non-parse: %v %v", ok, err)
	}
	// An ambiguous tuple exposes itself on extraction.
	amb := compileTuple(t, parse(".* <p> .* <r> .*"))
	if _, _, err := amb.Unique(ctx, word("p p r r")); !errors.Is(err, extract.ErrAmbiguous) {
		t.Errorf("ambiguous extraction: err = %v, want ErrAmbiguous", err)
	}
}

package learn

import (
	"context"
	"errors"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
)

// unique is the tuple's single-record extraction, on the one-pass spanner.
func unique(t *testing.T, tp *extract.Tuple, word []symtab.Symbol) ([]int, bool, error) {
	t.Helper()
	prog, err := spanner.Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Unique(context.Background(), word)
}

func (e env) tupleExample(t *testing.T, s string, targets ...int) TupleExample {
	t.Helper()
	return TupleExample{Doc: e.word(t, s), Targets: targets}
}

func TestTupleExampleValidate(t *testing.T) {
	e := newEnv()
	cases := []struct {
		ex TupleExample
		ok bool
	}{
		{e.tupleExample(t, "P FORM INPUT INPUT", 2, 3), true},
		{e.tupleExample(t, "P FORM INPUT INPUT", 3, 2), false}, // not ascending
		{e.tupleExample(t, "P FORM INPUT INPUT", 2, 2), false}, // duplicate
		{e.tupleExample(t, "P"), false},                        // no targets
		{e.tupleExample(t, "P", 4), false},                     // out of range
	}
	for i, c := range cases {
		if err := c.ex.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestInduceTupleEndToEnd(t *testing.T) {
	e := newEnv()
	// Extract (first INPUT, second INPUT) as a unit across two layouts.
	ex1 := e.tupleExample(t, "P H1 /H1 FORM INPUT INPUT /FORM", 4, 5)
	ex2 := e.tupleExample(t, "TABLE TR TD H1 /H1 FORM INPUT INPUT /FORM /TD /TR /TABLE", 6, 7)
	tp, err := InduceTuple([]TupleExample{ex1, ex2}, e.sigma, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unamb, err := tp.Unambiguous(); err != nil || !unamb {
		t.Fatalf("induced tuple ambiguous: %v %v", unamb, err)
	}
	for i, ex := range []TupleExample{ex1, ex2} {
		v, ok, err := unique(t, tp, ex.Doc)
		if err != nil || !ok {
			t.Fatalf("example %d: extract %v %v", i, ok, err)
		}
		for j := range v {
			if v[j] != ex.Targets[j] {
				t.Errorf("example %d: vector %v, want %v", i, v, ex.Targets)
			}
		}
	}
	// Maximize and extract from a novel layout.
	maxed, err := extract.MaximizeTuple(tp)
	if err != nil {
		t.Fatal(err)
	}
	novel := e.word(t, "TABLE TR TD A /A /TD /TR TR TD H1 /H1 FORM INPUT INPUT /FORM /TD /TR /TABLE")
	v, ok, err := unique(t, maxed, novel)
	if err != nil || !ok {
		t.Fatalf("novel extract: %v %v", ok, err)
	}
	if v[0] != 12 || v[1] != 13 {
		t.Errorf("novel vector = %v, want [12 13]", v)
	}
}

func TestInduceTupleErrors(t *testing.T) {
	e := newEnv()
	if _, err := InduceTuple(nil, e.sigma, machine.Options{}); !errors.Is(err, ErrNoExamples) {
		t.Errorf("empty: %v", err)
	}
	// Mismatched arity.
	ex1 := e.tupleExample(t, "FORM INPUT INPUT", 1, 2)
	ex2 := e.tupleExample(t, "FORM INPUT INPUT", 1)
	if _, err := InduceTuple([]TupleExample{ex1, ex2}, e.sigma, machine.Options{}); !errors.Is(err, ErrMixedTargets) {
		t.Errorf("arity: %v", err)
	}
	// Mismatched mark symbols.
	ex3 := e.tupleExample(t, "FORM INPUT /FORM", 0, 1) // marks FORM, INPUT
	ex4 := e.tupleExample(t, "FORM INPUT /FORM", 1, 2) // marks INPUT, /FORM
	if _, err := InduceTuple([]TupleExample{ex3, ex4}, e.sigma, machine.Options{}); !errors.Is(err, ErrMixedTargets) {
		t.Errorf("marks: %v", err)
	}
	// Contradictory examples.
	ex5 := e.tupleExample(t, "INPUT INPUT INPUT", 0, 1)
	ex6 := e.tupleExample(t, "INPUT INPUT INPUT", 1, 2)
	if _, err := InduceTuple([]TupleExample{ex5, ex6}, e.sigma, machine.Options{}); !errors.Is(err, ErrAmbiguousExamples) {
		t.Errorf("contradictory: %v", err)
	}
}

func TestInduceTupleSingleExample(t *testing.T) {
	e := newEnv()
	ex := e.tupleExample(t, "P FORM INPUT INPUT /FORM", 2, 3)
	tp, err := InduceTuple([]TupleExample{ex}, e.sigma, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := unique(t, tp, ex.Doc)
	if err != nil || !ok || v[0] != 2 || v[1] != 3 {
		t.Errorf("vector = %v (%v, %v)", v, ok, err)
	}
}

package spanner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

type senv struct {
	tab     *symtab.Table
	p, q, r symtab.Symbol
	sigma   symtab.Alphabet
}

func newSenv() senv {
	tab := symtab.NewTable()
	p, q, r := tab.Intern("p"), tab.Intern("q"), tab.Intern("r")
	return senv{tab, p, q, r, symtab.NewAlphabet(p, q, r)}
}

func (e senv) tuple(t *testing.T, src string, opt machine.Options) *extract.Tuple {
	t.Helper()
	tp, err := extract.ParseTuple(src, e.tab, e.sigma, opt)
	if err != nil {
		t.Fatalf("ParseTuple(%q): %v", src, err)
	}
	return tp
}

func (e senv) word(t *testing.T, src string) []symtab.Symbol {
	t.Helper()
	w, err := rx.ParseWord(src, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// allWords enumerates every word over sigma of length at most maxLen.
func allWords(sigma symtab.Alphabet, maxLen int) [][]symtab.Symbol {
	out := [][]symtab.Symbol{nil}
	for frontier := out; maxLen > 0; maxLen-- {
		var next [][]symtab.Symbol
		for _, w := range frontier {
			for _, sym := range sigma.Symbols() {
				next = append(next, append(w[:len(w):len(w)], sym))
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

// TestProgramMatchesOracle is the fixture differential: the one-pass
// multi-split DAG must enumerate exactly the vectors the naive k-nested
// oracle finds, in the same lexicographic order.
func TestProgramMatchesOracle(t *testing.T) {
	e := newSenv()
	cases := []struct {
		expr  string
		words []string
	}{
		{".* <p> .*", []string{"p", "q p q", "p p p", "q q", ""}},
		{"q* <p> q* <r> .*", []string{"q p q r", "p r", "q q", "p q r p r", ""}},
		{".* <p> .* <r> .*", []string{"q p q r p r q", "p r", "r p", "p p r r"}},
		{".* <p> .* <p> .*", []string{"p p p p", "q p q p q", "p"}},
		{".* <p> .* <r> .* <p> .*", []string{"p r p", "p q r q p r p", "p r"}},
		{"q <p> q", []string{"q p q", "q p", "p q", "q p q q"}},
	}
	for _, tc := range cases {
		tp := e.tuple(t, tc.expr, machine.Options{})
		prog, err := Compile(tp, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.expr, err)
		}
		if prog.Arity() != tp.Arity() {
			t.Fatalf("%q: arity = %d, want %d", tc.expr, prog.Arity(), tp.Arity())
		}
		for _, ws := range tc.words {
			w := e.word(t, ws)
			m, err := prog.Run(w)
			if err != nil {
				t.Fatalf("%q on %q: Run: %v", tc.expr, ws, err)
			}
			got, err := m.All()
			if err != nil {
				t.Fatalf("%q on %q: All: %v", tc.expr, ws, err)
			}
			want := NaiveTuples(tp, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q on %q:\n spanner = %v\n oracle  = %v", tc.expr, ws, got, want)
			}
		}
	}
}

// TestUnambiguousTupleInvariant checks the per-pivot lift of the paper's
// unambiguity theory: on an unambiguous tuple the spanner finds at most one
// vector per word, and exactly the one Unique returns.
func TestUnambiguousTupleInvariant(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, "q* <p> q* <r> q*", machine.Options{})
	unamb, err := tp.Unambiguous()
	if err != nil || !unamb {
		t.Fatalf("Unambiguous() = %v, %v; fixture must be unambiguous", unamb, err)
	}
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range []string{"q p q r q", "p r", "q q p r", "q p q", "r p", ""} {
		w := e.word(t, ws)
		m, err := prog.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 1 {
			t.Fatalf("unambiguous tuple yielded %d vectors on %q: %v", len(got), ws, got)
		}
		vec, ok, err := prog.Unique(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(got) == 1) {
			t.Fatalf("on %q: Unique ok=%v but spanner found %d vectors", ws, ok, len(got))
		}
		if ok && !reflect.DeepEqual(got[0], vec) {
			t.Fatalf("on %q: spanner = %v, Unique = %v", ws, got[0], vec)
		}
	}
}

// checkUnique asserts Program.Unique's contract against the oracle's
// vectors: none → ok=false, one → that vector, two or more → ErrAmbiguous.
// It returns the oracle's vector count.
func checkUnique(t *testing.T, prog *Program, tp *extract.Tuple, w []symtab.Symbol) int {
	t.Helper()
	want := NaiveTuples(tp, w)
	vec, ok, err := prog.Unique(context.Background(), w)
	switch {
	case len(want) == 0 && (ok || err != nil):
		t.Fatalf("on %v: Unique = %v, %v, %v; oracle has no vector", w, vec, ok, err)
	case len(want) == 1 && (!ok || err != nil || !reflect.DeepEqual(vec, want[0])):
		t.Fatalf("on %v: Unique = %v, %v, %v; oracle has only %v", w, vec, ok, err, want[0])
	case len(want) >= 2 && !errors.Is(err, extract.ErrAmbiguous):
		t.Fatalf("on %v: Unique = %v, %v, %v; oracle has %d vectors, want ErrAmbiguous", w, vec, ok, err, len(want))
	}
	return len(want)
}

// TestUniqueMatchesOracle is the single-record differential: over every
// word up to length 5, on ambiguous and unambiguous tuples alike, Unique
// agrees with the naive oracle's vector count — and the sweep reaches all
// three outcomes.
func TestUniqueMatchesOracle(t *testing.T) {
	e := newSenv()
	words := allWords(e.sigma, 5)
	counts := map[int]int{} // oracle vector count (capped at 2) → words
	for _, src := range []string{
		"q* <p> q* <r> .*",
		"<p> .* <r>",
		".* <p> .* <r> .*",
		"q <p> [^ p]* <p> q*",
		"(q | q q) <p> <r> .*",
		"[^ p]* <p> [^ r]* <r> .*",
		".* <p> q* <r> .*",
		"p? <p> p*",
		"q? <p> p*",
		".* <p> .* <r> .* <p> .*",
	} {
		tp := e.tuple(t, src, machine.Options{})
		prog, err := Compile(tp, machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			counts[min(checkUnique(t, prog, tp, w), 2)]++
		}
	}
	for n := 0; n <= 2; n++ {
		if counts[n] == 0 {
			t.Errorf("no word with %d oracle vectors: the sweep misses an outcome", n)
		}
	}
}

// TestRecordEnumeration drives the record workload the subsystem exists
// for: many (p, r) rows in one page, enumerated in order.
func TestRecordEnumeration(t *testing.T) {
	e := newSenv()
	// Each record is "q p q r"; the tuple anchors one (p, r) pair per record
	// and is satisfied once per record occurrence.
	tp := e.tuple(t, "(q p q r)* q <p> q <r> (q p q r)*", machine.Options{})
	var src string
	for i := 0; i < 5; i++ {
		if i > 0 {
			src += " "
		}
		src += "q p q r"
	}
	w := e.word(t, src)
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d records, want 5: %v", len(got), got)
	}
	for i, vec := range got {
		if want := []int{4*i + 1, 4*i + 3}; !reflect.DeepEqual(vec, want) {
			t.Errorf("record %d = %v, want %v", i, vec, want)
		}
	}
	if !reflect.DeepEqual(got, NaiveTuples(tp, w)) {
		t.Error("spanner disagrees with oracle on the record workload")
	}
	if m2, _ := prog.Run(w); m2 != nil {
		if n := m2.Nodes(); n <= 0 {
			t.Errorf("Nodes() = %d, want > 0", n)
		}
	}
}

// TestNextAfterExhaustion: the cursor stays drained.
func TestNextAfterExhaustion(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, "q* <p> .*", machine.Options{})
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.Run(e.word(t, "q p"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m.Next(); !ok || v[0] != 1 {
		t.Fatalf("first Next = %v, %v", v, ok)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := m.Next(); ok || err != nil {
			t.Fatalf("Next after exhaustion: ok=%v err=%v", ok, err)
		}
	}
}

// TestRunBudget: the DAG node count is charged against MaxStates.
func TestRunBudget(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, ".* <p> .*", machine.Options{MaxStates: 4})
	prog, err := Compile(tp, machine.Options{MaxStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Run(e.word(t, "q q q q p q q q q"))
	if !errors.Is(err, machine.ErrBudget) {
		t.Fatalf("Run under a 4-node budget: err = %v, want ErrBudget", err)
	}
}

// TestRunDeadline: a cancelled Options context aborts both the pass and a
// live cursor with ErrDeadline.
func TestRunDeadline(t *testing.T) {
	e := newSenv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := machine.Options{}.WithContext(ctx)
	tp := e.tuple(t, ".* <p> .*", machine.Options{})
	prog, err := Compile(tp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(e.word(t, "q p q")); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("Run under a cancelled context: err = %v, want ErrDeadline", err)
	}

	// Cancel between Run and Next: enumeration must notice too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	prog2, err := Compile(tp, machine.Options{}.WithContext(ctx2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog2.Run(e.word(t, "q p q"))
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	if _, _, err := m.Next(); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("Next under a cancelled context: err = %v, want ErrDeadline", err)
	}
}

func TestCompileNil(t *testing.T) {
	if _, err := Compile(nil, machine.Options{}); err == nil {
		t.Fatal("Compile(nil) succeeded")
	}
}

package extract

import (
	"errors"
	"reflect"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/symtab"
)

func (e tenv) tuple(t *testing.T, src string, sigma symtab.Alphabet) *Tuple {
	t.Helper()
	tp, err := ParseTuple(src, e.tab, sigma, machine.Options{})
	if err != nil {
		t.Fatalf("ParseTuple(%q): %v", src, err)
	}
	return tp
}

// oracleVectors enumerates all valid extraction vectors by brute force.
func oracleVectors(tp *Tuple, w []symtab.Symbol) [][]int {
	k := tp.Arity()
	var out [][]int
	var rec func(j, from int, acc []int)
	rec = func(j, from int, acc []int) {
		if j == k {
			if tp.Segment(k).Contains(w[from:]) {
				out = append(out, append([]int(nil), acc...))
			}
			return
		}
		for i := from; i < len(w); i++ {
			if w[i] != tp.Marks()[j] {
				continue
			}
			if tp.Segment(j).Contains(w[from:i]) {
				rec(j+1, i+1, append(acc, i))
			}
		}
	}
	rec(0, 0, nil)
	return out
}

func TestTupleParseAndAccessors(t *testing.T) {
	e := newTenv()
	tp := e.tuple(t, "q* <p> q* <r> .*", e.sigma3)
	if tp.Arity() != 2 {
		t.Fatalf("arity = %d", tp.Arity())
	}
	if m := tp.Marks(); m[0] != e.p || m[1] != e.r {
		t.Fatalf("marks = %v", m)
	}
	if !tp.Segment(0).Contains(nil) || tp.Segment(0).Contains([]symtab.Symbol{e.p}) {
		t.Error("segment 0 wrong")
	}
	if !tp.Sigma().Equal(e.sigma3) {
		t.Errorf("sigma = %v", tp.Sigma().Symbols())
	}
	s := tp.String(e.tab)
	if s != "q* <p> q* <r> .*" {
		t.Errorf("String = %q", s)
	}
}

func TestTupleErrors(t *testing.T) {
	e := newTenv()
	if _, err := ParseTuple("p q", e.tab, e.sigma2, machine.Options{}); err == nil {
		t.Error("tuple without marks accepted")
	}
	if _, err := ParseTuple("(q <p>) r", e.tab, e.sigma3, machine.Options{}); err == nil {
		t.Error("nested mark accepted")
	}
	if _, err := NewTuple(nil, nil); err == nil {
		t.Error("empty NewTuple accepted")
	}
}

func TestTupleUnambiguousAgainstOracle(t *testing.T) {
	e := newTenv()
	cases := []struct {
		src       string
		ambiguous bool
	}{
		{"q* <p> q* <r> .*", false},
		// Marks pinned at both ends: seg0 = ε forces p to position 0 and
		// seg2 = ε forces r to the last position.
		{"<p> .* <r>", false},
		{".* <p> .* <r> .*", true},
		// The [^ p]* bridge plus the q* tail pin both p's.
		{"q <p> [^ p]* <p> q*", false},
		{"(q | q q) <p> <r> .*", false},
		{"[^ p]* <p> [^ r]* <r> .*", false},
		// Genuinely ambiguous: on p·q·r·p·q·r both (0,2) and (3,5) work.
		{".* <p> q* <r> .*", true},
		// Single-mark degenerate case agrees with the Expr theory.
		{"p? <p> p*", true},
		{"q? <p> p*", false},
	}
	words := allWords(e.sigma3, 6)
	for _, c := range cases {
		tp := e.tuple(t, c.src, e.sigma3)
		got, err := tp.Unambiguous()
		if err != nil {
			t.Fatal(err)
		}
		// Oracle over short words.
		oracleAmbiguous := false
		for _, w := range words {
			if len(oracleVectors(tp, w)) >= 2 {
				oracleAmbiguous = true
				break
			}
		}
		if oracleAmbiguous && got {
			t.Errorf("%q: oracle found two vectors but Unambiguous = true", c.src)
		}
		if got == c.ambiguous {
			t.Errorf("Unambiguous(%q) = %v, want %v", c.src, got, !c.ambiguous)
		}
	}
}

func TestMaximizeTuple(t *testing.T) {
	e := newTenv()
	in := e.tuple(t, "q <p> q q <r> q*", e.sigma3)
	if unamb, err := in.Unambiguous(); err != nil || !unamb {
		t.Fatalf("input should be unambiguous: %v %v", unamb, err)
	}
	out, err := MaximizeTuple(in)
	if err != nil {
		t.Fatal(err)
	}
	unamb, err := out.Unambiguous()
	if err != nil || !unamb {
		t.Fatalf("output not unambiguous: %v %v", unamb, err)
	}
	// Segment-wise generalization.
	for j := 0; j <= in.Arity(); j++ {
		sub, err := in.Segment(j).SubsetOf(out.Segment(j))
		if err != nil || !sub {
			t.Errorf("segment %d did not generalize (%v, %v)", j, sub, err)
		}
	}
	// Extraction preserved on the training-shaped word and gained on a
	// perturbed one.
	w := e.word(t, "q p q q r q")
	if vi, vo := oracleVectors(in, w), oracleVectors(out, w); len(vi) != 1 || !reflect.DeepEqual(vi, vo) {
		t.Fatalf("vectors drifted: input %v, output %v", vi, vo)
	}
	novel := e.word(t, "q q q p q q q r q q")
	if vs := oracleVectors(out, novel); len(vs) != 1 {
		t.Errorf("maximized tuple has vectors %v on the novel word, want exactly one", vs)
	}
	if vs := oracleVectors(in, novel); len(vs) != 0 {
		t.Error("input unexpectedly parsed the novel word — test is vacuous")
	}
	// Ambiguous input rejected.
	amb := e.tuple(t, ".* <p> .* <r> .*", e.sigma3)
	if _, err := MaximizeTuple(amb); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("err = %v", err)
	}
}

// A realistic tuple: the search form's first and second INPUT as one unit.
func TestTupleHTMLScenario(t *testing.T) {
	h := newHTMLEnv()
	tp, err := ParseTuple("[^ FORM]* FORM [^ INPUT]* <INPUT> [^ INPUT]* <INPUT> .*",
		h.tab, h.sigma, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unamb, err := tp.Unambiguous()
	if err != nil || !unamb {
		t.Fatalf("tuple should be unambiguous: %v %v", unamb, err)
	}
	got := oracleVectors(tp, h.doc(t, fig1Doc2))
	if want := [][]int{{21, 22}}; !reflect.DeepEqual(got, want) {
		t.Errorf("vectors = %v, want %v", got, want)
	}
}

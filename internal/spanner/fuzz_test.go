package spanner

import (
	"reflect"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// fuzzExprs is the expression family the fuzzer draws from — k ranges over
// 1..3, with repeated marks, anchored gaps, and star-closed record shapes
// all represented.
var fuzzExprs = []string{
	".* <p> .*",
	"q* <p> q* <r> .*",
	".* <p> .* <r> .*",
	".* <p> .* <p> .*",
	"q <p> q",
	".* <p> .* <r> .* <p> .*",
	"(q p q r)* q <p> q <r> (q p q r)*",
	"[^ p]* <p> [^ p]*",
}

// FuzzSpannerOracleEquiv differentials the compiled one-pass multi-split
// program against the naive k-nested oracle on arbitrary short words: same
// vectors, same lexicographic order, and the single-record Unique answer
// the oracle's vector count implies. The first byte picks the expression;
// the rest spell the word over {p, q, r}.
func FuzzSpannerOracleEquiv(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{1, 1, 0, 1, 2})
	f.Add([]byte{2, 0, 1, 2, 0, 2})
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 2, 0, 1, 2, 0})
	f.Add([]byte{6, 1, 0, 1, 2, 1, 0, 1, 2})
	f.Add([]byte{7, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tab := symtab.NewTable()
		syms := []symtab.Symbol{tab.Intern("p"), tab.Intern("q"), tab.Intern("r")}
		sigma := symtab.NewAlphabet(syms...)
		src := fuzzExprs[int(data[0])%len(fuzzExprs)]
		tp, err := extract.ParseTuple(src, tab, sigma, machine.Options{})
		if err != nil {
			t.Fatalf("ParseTuple(%q): %v", src, err)
		}
		body := data[1:]
		if len(body) > 24 { // keep the O(n^k) oracle cheap
			body = body[:24]
		}
		word := make([]symtab.Symbol, len(body))
		for i, b := range body {
			word[i] = syms[int(b)%len(syms)]
		}
		prog, err := Compile(tp, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		m, err := prog.Run(word)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		got, err := m.All()
		if err != nil {
			t.Fatalf("All: %v", err)
		}
		want := NaiveTuples(tp, word)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q on %v:\n spanner = %v\n oracle  = %v", src, word, got, want)
		}
		checkUnique(t, prog, tp, word)
	})
}

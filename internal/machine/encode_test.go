package machine

import (
	"errors"
	"testing"

	"resilex/internal/codec"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// codecCases are the regexes the codec tests sweep; they cover every
// operator the compiler emits, including the extended ones.
var codecCases = []string{
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

func enumWords(sigma []symtab.Symbol, maxLen int) [][]symtab.Symbol {
	out := [][]symtab.Symbol{nil}
	frontier := [][]symtab.Symbol{nil}
	for l := 0; l < maxLen; l++ {
		var next [][]symtab.Symbol
		for _, w := range frontier {
			for _, s := range sigma {
				ext := append(append([]symtab.Symbol(nil), w...), s)
				next = append(next, ext)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

// codecEnv compiles src over {p,q,r} into its minimal DFA.
func codecEnv(t *testing.T, src string) (*DFA, []symtab.Symbol) {
	t.Helper()
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
	ast, err := rx.Parse(src, tab, sigma)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n, err := Compile(ast, sigma, Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	d, err := Determinize(n, Options{})
	if err != nil {
		t.Fatalf("determinize %q: %v", src, err)
	}
	return Minimize(d), sigma.Symbols()
}

func TestDFACodecRoundTrip(t *testing.T) {
	for _, src := range codecCases {
		src := src
		t.Run(src, func(t *testing.T) {
			d, syms := codecEnv(t, src)
			got, err := DecodeDFA(d.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !StructurallyEqual(d, got) {
				t.Fatal("decoded DFA differs structurally")
			}
			for _, w := range enumWords(syms, 5) {
				if d.Accepts(w) != got.Accepts(w) {
					t.Fatalf("decoded DFA disagrees on %v", w)
				}
			}
		})
	}
}

func TestAutomatonDecodeRejectsCorruption(t *testing.T) {
	d, _ := codecEnv(t, "(p q | q p)* r")
	t.Run("dfa", func(t *testing.T) {
		blob := d.Encode()
		decode := func(b []byte) error { _, err := DecodeDFA(b); return err }
		if err := decode(nil); !errors.Is(err, codec.ErrMalformedInput) {
			t.Errorf("nil blob: err = %v", err)
		}
		if err := decode(blob[:len(blob)/2]); !errors.Is(err, codec.ErrMalformedInput) {
			t.Errorf("truncated blob: err = %v", err)
		}
		for i := range blob {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x10
			if err := decode(mut); !errors.Is(err, codec.ErrMalformedInput) {
				t.Fatalf("bit flip at %d: err = %v, want ErrMalformedInput", i, err)
			}
		}
	})
}

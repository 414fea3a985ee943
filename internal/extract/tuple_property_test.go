package extract

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// randomTupleValue generates small random 2-mark tuples for property tests.
type randomTupleValue struct {
	segs [3]*rx.Node
}

func (randomTupleValue) Generate(rng *rand.Rand, size int) reflect.Value {
	tab := symtab.NewTable()
	syms := tab.InternAll("p", "q")
	var v randomTupleValue
	for i := range v.segs {
		v.segs[i] = genNode(rng, syms, 1+rng.Intn(2))
	}
	return reflect.ValueOf(v)
}

// Property: tuple unambiguity agrees with the brute-force vector-counting
// oracle on all short words.
func TestQuickTupleUnambiguity(t *testing.T) {
	e, cfg := quickEnv()
	words := allWords(e.sigma2, 6)
	prop := func(v randomTupleValue) bool {
		tp, err := NewTupleFromASTs(v.segs[:], []symtab.Symbol{e.p, e.p}, e.sigma2, machineOpts())
		if err != nil {
			return true
		}
		unamb, err := tp.Unambiguous()
		if err != nil {
			return true
		}
		for _, w := range words {
			n := len(oracleVectors(tp, w))
			if n >= 2 && unamb {
				t.Logf("Unambiguous=true but %q has %d vectors (tuple %s)",
					e.tab.String(w), n, tp.String(e.tab))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

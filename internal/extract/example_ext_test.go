package extract_test

import (
	"fmt"

	"resilex/internal/extract"
	"resilex/internal/machine"
)

// A content-addressed cache compiles each distinct expression once; later
// loads of the same source — whatever the Σ-name order — are hits sharing
// one compiled artifact.
func ExampleCache() {
	cache := extract.NewCache(64, nil)
	for _, sigma := range [][]string{{"p", "q"}, {"q", "p"}, {"q", "p", "p"}} {
		if _, err := cache.Load("q* <p> .*", sigma, machine.Options{}); err != nil {
			panic(err)
		}
	}
	st := cache.Stats()
	fmt.Printf("misses=%d hits=%d entries=%d\n", st.Misses, st.Hits, st.Entries)
	// Output: misses=1 hits=2 entries=1
}

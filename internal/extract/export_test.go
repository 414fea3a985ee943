package extract

import "resilex/internal/rx"

// Hooks for the external extract_test package. Its tuple tests run the
// spanner engine, which imports this package, so they cannot live in it.
var AllWords = allWords

// RandomTuple generates small random 2-mark tuple segments for
// testing/quick.
type RandomTuple = randomTupleValue

// Segments returns the generated segment syntax trees.
func (v randomTupleValue) Segments() []*rx.Node { return v.segs[:] }

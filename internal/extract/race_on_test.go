//go:build race

package extract

// raceEnabled relaxes the assertions the race detector breaks by design:
// AllocsPerRun on paths that are allocation-free in normal builds, and
// sync.Pool hits, since the detector drops pooled items at random.
const raceEnabled = true

//go:build race

package check

// raceEnabled mirrors the -race build tag for tests. The race runtime
// instruments memory accesses with shadow allocations that
// testing.AllocsPerRun cannot tell from real ones, so zero-alloc assertions
// only hold in non-race runs; the race job still executes everything else.
const raceEnabled = true

//go:build !race

package cluster

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-count tests skip under it.
const raceEnabled = false

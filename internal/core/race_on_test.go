//go:build race

package core

// raceEnabled reports whether the race detector instruments this build; the
// allocation gates skip under it (instrumentation skews counts).
const raceEnabled = true

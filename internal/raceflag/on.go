//go:build race

// Package raceflag tells tests whether the race detector is compiled
// in, so the few that count allocations or buffer very large bodies can
// skip themselves under -race.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = true

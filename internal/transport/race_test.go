//go:build race

package transport

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation budgets that rely on pooled buffers skip.
const raceEnabled = true

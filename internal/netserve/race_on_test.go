//go:build race

package netserve

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// at random: pooled scratch is rebuilt, and allocation counts stop being
// the program's own.
const raceEnabled = true

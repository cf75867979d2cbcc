//go:build race

package fleet

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// at random: pooled encoders are rebuilt, and allocation counts stop being
// the program's own.
const raceEnabled = true

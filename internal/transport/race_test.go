//go:build race

package transport

// raceEnabled is true when the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts, so heap guards that rely on buffer
// reuse cannot hold.
const raceEnabled = true

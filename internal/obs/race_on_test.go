//go:build race

package obs

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so a pooled trace now and then starts from nothing and exact
// allocation bounds on released traces cannot hold.
const raceEnabled = true

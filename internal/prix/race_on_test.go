//go:build race

package prix

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so a query now and then rebuilds its scratch from nothing and
// exact allocation bounds on the pooled paths cannot hold.
const raceEnabled = true

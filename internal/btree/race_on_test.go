//go:build race

package btree

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so a Scan over packed leaves now and then allocates its decode
// buffer afresh and an exact allocation bound cannot hold.
const raceEnabled = true

//go:build race

package shard

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so a pooled trace or answer buffer now and then starts from
// nothing and exact allocation bounds on the pooled paths cannot hold.
const raceEnabled = true

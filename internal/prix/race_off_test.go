//go:build !race

package prix

const raceEnabled = false

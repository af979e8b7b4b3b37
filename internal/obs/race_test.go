//go:build race

package obs

// raceEnabled reports a -race build, where instrumentation moves values
// to the heap and allocation counts do not hold.
const raceEnabled = true

//go:build !linux

package loadgen

import "time"

// latenessBound is the median wake-up lateness the pacer test accepts on a
// runtime timer.
const latenessBound = 2 * time.Millisecond

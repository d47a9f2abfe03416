//go:build !linux

package loadgen

import "time"

// pause blocks for d on a runtime timer (no nanosleep outside linux).
func pause(d time.Duration) { time.Sleep(d) }

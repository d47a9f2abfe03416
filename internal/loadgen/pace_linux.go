package loadgen

import (
	"syscall"
	"time"
)

// pause blocks the calling thread in nanosleep(2) for d, which on linux
// wakes about 0.1 ms late where a runtime timer (served from epoll's
// millisecond timeouts) wakes 0.3-1 ms late.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if syscall.Nanosleep(&ts, &left) != syscall.EINTR {
			return
		}
		ts = left
	}
}

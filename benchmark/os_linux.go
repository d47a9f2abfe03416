package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepFor blocks the calling thread in nanosleep(2). On this host that
// overshoots by about 0.1 ms (p99 0.3 ms) at any length, where time.Sleep,
// which the Go runtime serves from epoll's millisecond timeouts, overshoots
// by 0.3 to 1 ms. The paced phase needs the first and may not spin.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if syscall.Nanosleep(&ts, &left) != syscall.EINTR {
			return
		}
		ts = left
	}
}

// filesystem names the filesystem holding dir by its statfs magic number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

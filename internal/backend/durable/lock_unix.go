//go:build unix

package durable

import (
	"os"
	"syscall"
)

// flock takes an exclusive advisory lock on f without blocking. The lock
// dies with the process, so a crashed owner never blocks recovery.
func flock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

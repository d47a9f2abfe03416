//go:build !unix

package durable

import "os"

// flock is a no-op on platforms without flock semantics; single-process
// ownership of a store directory is then the operator's responsibility.
func flock(*os.File) error { return nil }

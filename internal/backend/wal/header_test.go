package wal

import "os"

// writeLogHeader creates the bare log file TestWALStaleLogDiscarded appends
// a hand-framed record to; the header bytes are the core's.
func writeLogHeader(path string, seq uint64) error {
	return os.WriteFile(path, format.Header(seq), 0o644)
}

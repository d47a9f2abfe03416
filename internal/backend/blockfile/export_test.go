package blockfile

import (
	"os"
	"testing"
)

// withoutMapping makes every backend opened before t ends read its slots
// with ReadAt, as on a platform or address space without the mapping.
func withoutMapping(t *testing.T) {
	mapData = func(*os.File, uint64) []byte { return nil }
	t.Cleanup(func() { mapData = mapReadOnly })
}

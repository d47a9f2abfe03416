package layers

import (
	"fmt"
	"time"

	"palermo/internal/crypt"
)

// SealOpenNs times n Seal calls and n Open calls of one 64-byte block and
// returns the mean cost of each in nanoseconds, after checking that Open
// returns what Seal was given.
func SealOpenNs(key []byte, n int) (sealNs, openNs float64, err error) {
	s, err := crypt.NewSealer(key)
	if err != nil {
		return 0, 0, err
	}
	plain := make([]byte, crypt.BlockBytes)
	for i := range plain {
		plain[i] = byte(i)
	}
	cts := make([][]byte, n)
	epochs := make([]uint64, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if cts[i], epochs[i], err = s.Seal(uint64(i), plain); err != nil {
			return 0, 0, err
		}
	}
	t1 := time.Now()
	var last []byte
	for i := 0; i < n; i++ {
		if last, err = s.Open(uint64(i), epochs[i], cts[i]); err != nil {
			return 0, 0, err
		}
	}
	t2 := time.Now()
	if string(last) != string(plain) {
		return 0, 0, fmt.Errorf("layers: Open did not invert Seal")
	}
	return float64(t1.Sub(t0)) / float64(n), float64(t2.Sub(t1)) / float64(n), nil
}

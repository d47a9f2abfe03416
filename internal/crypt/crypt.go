// Package crypt provides the block-sealing layer of the trusted ORAM
// controller: every block leaving the secure boundary is encrypted under a
// fresh counter so identical plaintexts never produce identical bus
// contents ("All data is encrypted with different keys", §II-C).
//
// The timing model treats encryption as a pipelined fixed latency (it is
// off the critical DRAM path); this package supplies real AES-CTR sealing
// for the functional examples and for end-to-end correctness tests.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockBytes is the sealed payload granularity (one cache line).
const BlockBytes = 64

// Sealer encrypts/decrypts 64-byte blocks with AES-CTR under per-seal
// unique counters. It is confined to its owner goroutine, like the engine
// it seals for.
type Sealer struct {
	block cipher.Block
	epoch uint64
}

// NewSealer creates a sealer from a 16/24/32-byte key.
func NewSealer(key []byte) (*Sealer, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return &Sealer{block: b}, nil
}

// Seal encrypts plaintext (must be BlockBytes long) in place-safe fashion,
// returning ciphertext and the epoch used. The (addr, epoch) pair forms the
// unique IV; the caller stores epoch alongside the block (real designs keep
// it in the bucket header).
func (s *Sealer) Seal(addr uint64, plaintext []byte) (ciphertext []byte, epoch uint64, err error) {
	if len(plaintext) != BlockBytes {
		return nil, 0, fmt.Errorf("crypt: plaintext must be %d bytes, got %d", BlockBytes, len(plaintext))
	}
	s.epoch++
	return s.xcryptBlock(make([]byte, BlockBytes), addr, s.epoch, plaintext), s.epoch, nil
}

// SealInto is Seal writing the ciphertext into dst (BlockBytes long, not
// overlapping plaintext) instead of allocating it: for a caller that hands
// the ciphertext to a store that copies it and can seal the next block
// into the same bytes.
func (s *Sealer) SealInto(dst []byte, addr uint64, plaintext []byte) (epoch uint64, err error) {
	if len(plaintext) != BlockBytes || len(dst) != BlockBytes {
		return 0, fmt.Errorf("crypt: plaintext and destination must be %d bytes, got %d and %d", BlockBytes, len(plaintext), len(dst))
	}
	s.epoch++
	s.xcryptBlock(dst, addr, s.epoch, plaintext)
	return s.epoch, nil
}

// Epoch returns the per-seal counter's current value. The durable store
// checkpoints it so a restored sealer never re-issues an (addr, epoch) IV.
func (s *Sealer) Epoch() uint64 { return s.epoch }

// SetEpoch overwrites the counter. Callers restoring from a checkpoint must
// pass a value at least as large as every epoch already sealed under this
// key and address domain, or IVs would repeat.
func (s *Sealer) SetEpoch(e uint64) { s.epoch = e }

// MaxBlobBytes bounds Blob inputs: the blob IV reserves 3 low bytes of
// counter space, so one (addr, epoch) keystream covers 2^24 AES blocks.
const MaxBlobBytes = (1 << 24) * 16

// Blob applies the AES-CTR keystream bound to (addr, epoch) over in and
// returns the result; sealing and opening a variable-length blob are the
// same operation. It exists for controller metadata (durable-store
// checkpoints hold position maps and stash contents, which the untrusted
// backend must never see in plaintext). The IV layout is the block
// layout; uniqueness rests on two facts the guards enforce. Blob callers
// use addresses disjoint from every block's (shard metadata counts down
// from ^0, block ids are capped at 2^40), so blob and block keystreams
// can never meet. And with epoch < 2^40, IV bytes 13-15 start at zero,
// leaving 2^24 blocks of CTR counter headroom per (addr, epoch) — so two
// blobs under distinct epochs cannot overlap while len(in) is at most
// MaxBlobBytes.
func (s *Sealer) Blob(addr, epoch uint64, in []byte) []byte {
	out := make([]byte, len(in))
	s.blobStream(addr, epoch, len(in)).XORKeyStream(out, in)
	return out
}

// BlobInPlace is Blob transforming buf itself: a caller that owns the
// plaintext (a checkpoint encoded into a buffer of its own) seals it
// without a second buffer of the same size.
func (s *Sealer) BlobInPlace(addr, epoch uint64, buf []byte) {
	s.blobStream(addr, epoch, len(buf)).XORKeyStream(buf, buf)
}

// blobStream is the keystream of a blob of n bytes under (addr, epoch),
// after the guards Blob documents.
func (s *Sealer) blobStream(addr, epoch uint64, n int) cipher.Stream {
	if n > MaxBlobBytes {
		panic(fmt.Sprintf("crypt: blob of %d bytes exceeds the %d-byte CTR span", n, MaxBlobBytes))
	}
	if epoch >= 1<<40 {
		panic(fmt.Sprintf("crypt: blob epoch %d exceeds the 40-bit IV field", epoch))
	}
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[0:8], addr)
	binary.LittleEndian.PutUint64(iv[8:16], epoch)
	return cipher.NewCTR(s.block, iv[:])
}

// Open decrypts a block sealed under (addr, epoch).
func (s *Sealer) Open(addr, epoch uint64, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != BlockBytes {
		return nil, fmt.Errorf("crypt: ciphertext must be %d bytes, got %d", BlockBytes, len(ciphertext))
	}
	return s.xcryptBlock(make([]byte, BlockBytes), addr, epoch, ciphertext), nil
}

// xcryptBlock is Blob's transform for one BlockBytes payload, byte for
// byte: the four keystream blocks are the encryptions of the IV
// incremented as a 128-bit big-endian integer, which is what cipher.NewCTR
// computes — minus its stream object and 512-byte buffer. Each
// counter block is written into out (BlockBytes long, not overlapping in)
// and encrypted in place, so the transform allocates nothing of its own
// (Encrypt is an interface call: a counter on the stack would escape).
func (s *Sealer) xcryptBlock(out []byte, addr, epoch uint64, in []byte) []byte {
	// The IV is addr then epoch, little-endian; read back big-endian.
	hi, lo := bits.ReverseBytes64(addr), bits.ReverseBytes64(epoch)
	for i := 0; i < BlockBytes; i += aes.BlockSize {
		ctr := out[i : i+aes.BlockSize]
		binary.BigEndian.PutUint64(ctr[0:8], hi)
		binary.BigEndian.PutUint64(ctr[8:16], lo)
		s.block.Encrypt(ctr, ctr)
		if lo++; lo == 0 {
			hi++
		}
	}
	subtle.XORBytes(out, out, in)
	return out
}
